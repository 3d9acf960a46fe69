"""Command-line front end: tables, simulate, condition, verify.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on invalid
configuration or arguments and when a particle ensemble dies out.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .config import ConfigError, load_config
from .engine import (PathConfig, _observation_grid, estimate_avoidance,
                     estimate_clock_event, estimate_survival, simulate_path)
from .model import Interval, ModelParams, require_number
from .particles import EnsembleExtinctionError, drift_probability, propagate_ensemble
from .suites import SUITES, _model_echo, dumps_17g, emit_table, run_suite

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, default=2.0**0.5)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--drift", type=float, default=0.0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)


def _model_interval(args) -> tuple[ModelParams, Interval]:
    return (ModelParams(sigma=args.sigma, lam=args.lam, eta=args.eta, drift=args.drift),
            Interval(a=args.a, b=args.b))


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise ConfigError(f"grid must be min:max:step, got {text!r}")
    for v in (lo, hi, step):
        require_number(v, "grid bounds and step")
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad grid {text!r}")
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="interval-avoid",
        description="Closed forms and Monte Carlo verification for a jump "
                    "diffusion conditioned to avoid an interval.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="emit closed-form value tables as CSV")
    _add_model_flags(t)
    t.add_argument("--kind", choices=("harmonics", "potentials", "nu_masses"),
                   default="harmonics")
    t.add_argument("--grid", required=True,
                   help="grid as min:max:step (potentials use it as distances)")
    t.add_argument("--k-max", type=int, default=4)
    t.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="raw Monte Carlo estimators")
    _add_model_flags(s)
    s.add_argument("--estimator", choices=("survival", "clock", "avoidance"),
                   default="survival",
                   help="clock and avoidance ignore --dt and --horizon")
    s.add_argument("--start", type=float, required=True)
    s.add_argument("--paths", type=int, default=100_000)
    s.add_argument("--dt", type=float, default=0.05)
    s.add_argument("--horizon", type=float, default=10.0)
    s.add_argument("--seed", type=int, default=20260801)
    s.add_argument("--no-bridge", action="store_true",
                   help="disable exact bridge killing (grid-only validation mode; "
                        "survival only)")
    s.add_argument("--t", type=float, default=None, help="time for the survival estimator")
    s.add_argument("--q", type=float, default=None, help="clock rate for the clock estimator")
    s.add_argument("--dump-paths", type=int, default=0, metavar="K",
                   help="also dump K recorded trajectories as CSV")
    s.add_argument("--dump-file", default="paths_dump.csv")

    c = sub.add_parser("condition", help="weighted-particle conditioned laws")
    _add_model_flags(c)
    c.add_argument("--transform", choices=("plus", "minus", "updown"), default="updown")
    c.add_argument("--start", type=float, required=True)
    c.add_argument("--horizon", type=float, default=60.0)
    c.add_argument("--particles", type=int, default=65536)
    c.add_argument("--dt", type=float, default=0.1)
    c.add_argument("--seed", type=int, default=20260801)
    c.add_argument("--timeseries", default=None,
                   help="optional CSV of ensemble summaries over time")

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--config", default=None, help="JSON configuration file")
    v.add_argument("--out", default=None, help="write the JSON report here")
    return p


def _cmd_tables(args) -> int:
    model, interval = _model_interval(args)
    grid = _parse_grid(args.grid)
    emit_table(args.kind, grid, args.out, model, interval, k_max=args.k_max)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model, interval = _model_interval(args)
    require_number(args.dt, "dt", low=0.0, strict=True)
    # only survival and --dump-paths step through a grid of --dt up to
    # --horizon; the clock and avoidance estimators read neither
    grid = args.estimator == "survival" or args.dump_paths > 0
    config = PathConfig(dt=args.dt if grid else args.horizon, horizon=args.horizon,
                        seed=args.seed, n_paths=args.paths)
    if args.no_bridge and args.estimator != "survival":
        raise ConfigError(f"--no-bridge is for survival only (got --estimator {args.estimator})")
    if args.estimator == "survival":
        t = args.horizon if args.t is None else args.t
        est = estimate_survival(model, interval, args.start, t, config,
                                bridge=not args.no_bridge)
        result, extra = est.total, {"above": est.above.mean, "below": est.below.mean, "t": t}
    elif args.estimator == "clock":
        if args.q is None:
            raise ConfigError("the clock estimator requires --q")
        est = estimate_clock_event(model, interval, args.start, args.q, config)
        result, extra = est.total, {"above": est.above.mean, "below": est.below.mean,
                                    "q": args.q}
    else:
        est = estimate_avoidance(model, interval, args.start, config)
        result, extra = est.result, {"unresolved": est.unresolved}

    payload = {
        "estimator": args.estimator,
        "mean": result.mean,
        "stderr": result.stderr,
        "n": result.n,
        "variants": extra,
        "config_echo": {
            "start": args.start, "paths": args.paths, "dt": args.dt,
            "horizon": args.horizon, "seed": args.seed,
            "bridge_correction": not args.no_bridge,
            **_model_echo(model, interval),
        },
    }
    print(dumps_17g(payload))

    if args.dump_paths > 0:
        with open(args.dump_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("path_id,t,value,is_jump,killed\n")
            for pid in range(args.dump_paths):
                tr = simulate_path(model, interval, args.start, config, path_index=pid,
                                   bridge=not args.no_bridge)
                for i in range(tr.times.size):
                    killed = tr.hit and i == tr.times.size - 1
                    fh.write(f"{pid},{tr.times[i]:.17g},{tr.values[i]:.17g},"
                             f"{int(tr.is_jump[i])},{int(killed)}\n")
    return EXIT_OK


def _cmd_condition(args) -> int:
    model, interval = _model_interval(args)
    require_number(args.dt, "dt", low=0.0, strict=True)
    # p_up comes from the exact terminal sample, which has no grid: --dt only
    # spaces the --timeseries rows
    config = PathConfig(dt=args.horizon, horizon=args.horizon, seed=args.seed,
                        n_paths=args.particles)
    if args.timeseries:
        small = PathConfig(dt=args.dt, horizon=args.horizon, seed=args.seed,
                           n_paths=min(args.particles, 8192))
    dp = drift_probability(model, interval, args.start, args.horizon, config,
                           transform=args.transform)
    payload = {
        "transform": args.transform,
        "p_up": dp.p_up.mean,
        "p_down": dp.p_down.mean,
        "stderr_up": dp.p_up.stderr,
        "stderr_down": dp.p_down.stderr,
        "ess_min": dp.ess_min,
        "resamples": dp.resamples,
        "config_echo": {
            "start": args.start, "particles": args.particles, "dt": args.dt,
            "horizon": args.horizon, "seed": args.seed,
            **_model_echo(model, interval),
        },
    }
    print(dumps_17g(payload))

    if args.timeseries:
        times = [0.0] + _observation_grid(args.dt, args.horizon)
        ens = propagate_ensemble(model, interval, args.transform, args.start,
                                 small, record_times=times)
        with open(args.timeseries, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time,total_weight,ess,frac_above,frac_below\n")
            for t, w, w2, w_up, w_dn in zip(ens.times, ens.weight, ens.weight_sq,
                                            ens.weight_above, ens.weight_below):
                ess = w * w / w2 if w2 > 0.0 else 0.0
                up, dn = (w_up / w, w_dn / w) if w > 0.0 else (math.nan, math.nan)
                fh.write(f"{t:.17g},{w / ens.n:.17g},{ess:.17g},{up:.17g},{dn:.17g}\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = load_config(args.config, suite=args.suite)
    if args.out:
        config = dataclasses.replace(config, output_path=args.out)
    report = run_suite(config)
    print(dumps_17g(report.to_dict()))
    return EXIT_OK if report.passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "condition":
            return _cmd_condition(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, EnsembleExtinctionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
