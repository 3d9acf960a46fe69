"""Command-line front end: tables, simulate, condition, verify.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on invalid
configuration or arguments, on a file that cannot be read or written and
when a particle ensemble dies out.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from .config import DEFAULTS, ConfigError, load_config
from .engine import (PathConfig, _observation_grid, estimate_avoidance,
                     estimate_clock_event, estimate_survival, simulate_path)
from .model import Interval, ModelParams, require_number
from .particles import EnsembleExtinctionError, drift_probability, propagate_ensemble
from .suites import SUITES, _model_echo, dumps_17g, emit_table, run_suite

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
# the most steps a --grid may take: tables evaluates and holds one row per point
_MAX_GRID_STEPS = 100_000


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    model, interval = DEFAULTS["model"], DEFAULTS["interval"]
    p.add_argument("--sigma", type=float, default=model["sigma"])
    p.add_argument("--lambda", dest="lam", type=float, default=model["lambda"])
    p.add_argument("--eta", type=float, default=model["eta"])
    p.add_argument("--drift", type=float, default=model["drift"])
    p.add_argument("--a", type=float, default=interval["a"])
    p.add_argument("--b", type=float, default=interval["b"])


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
    steps = (hi - lo) / step                    # inf where hi - lo overflows
    if not steps <= _MAX_GRID_STEPS:
        raise ConfigError(f"grid {text!r} takes more than {_MAX_GRID_STEPS} steps")
    n = int(round(steps))
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
    t.set_defaults(run=_cmd_tables)

    s = sub.add_parser("simulate", help="raw Monte Carlo estimators")
    _add_model_flags(s)
    s.add_argument("--estimator", choices=("survival", "clock", "avoidance"),
                   default="survival",
                   help="--dt spaces only the --dump-paths rows; clock and "
                        "avoidance ignore --horizon too")
    s.add_argument("--start", type=float, required=True)
    s.add_argument("--paths", type=int, default=100_000)
    s.add_argument("--dt", type=float, default=0.05)
    s.add_argument("--horizon", type=float, default=10.0)
    s.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    s.add_argument("--t", type=float, default=None, help="time for the survival estimator")
    s.add_argument("--q", type=float, default=None, help="clock rate for the clock estimator")
    s.add_argument("--dump-paths", type=int, default=0, metavar="K",
                   help="also dump K recorded trajectories as CSV")
    s.add_argument("--dump-file", default="paths_dump.csv")
    s.set_defaults(run=_cmd_simulate)

    c = sub.add_parser("condition", help="weighted-particle conditioned laws")
    _add_model_flags(c)
    c.add_argument("--transform", choices=("plus", "minus", "updown"), default="updown")
    c.add_argument("--start", type=float, required=True)
    c.add_argument("--horizon", type=float, default=60.0)
    c.add_argument("--particles", type=int, default=DEFAULTS["particles"])
    c.add_argument("--dt", type=float, default=0.1)
    c.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    c.add_argument("--timeseries", default=None,
                   help="optional CSV of ensemble summaries over time")
    c.set_defaults(run=_cmd_condition)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--config", default=None, help="JSON configuration file")
    v.add_argument("--out", default=None, help="write the JSON report here")
    v.set_defaults(run=_cmd_verify)
    return p


def _open_output(path):
    """``path`` opened for writing, or a null context for no path.  Each
    command opens its output files before its run, so that a path that
    cannot be written costs no run and leaves stdout empty."""
    if not path:
        return contextlib.nullcontext()
    return open(path, "w", encoding="utf-8", newline="\n")


def _cmd_tables(args) -> int:
    model, interval = _model_interval(args)
    grid = _parse_grid(args.grid)
    emit_table(args.kind, grid, args.out, model, interval, k_max=args.k_max)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model, interval = _model_interval(args)
    require_number(args.dt, "dt", low=0.0, strict=True)
    require_number(args.dump_paths, "dump-paths", integer=True, low=0)
    # only --dump-paths steps through a grid of --dt up to --horizon; the
    # estimators read neither
    config = PathConfig(dt=args.dt if args.dump_paths > 0 else args.horizon,
                        horizon=args.horizon, seed=args.seed, n_paths=args.paths)
    if args.estimator == "clock" and args.q is None:
        raise ConfigError("the clock estimator requires --q")
    with _open_output(args.dump_file if args.dump_paths > 0 else None) as dump:
        if args.estimator == "survival":
            t = args.horizon if args.t is None else args.t
            est = estimate_survival(model, interval, args.start, t, config)
            result, extra = est.total, {"above": est.above.mean, "below": est.below.mean, "t": t}
        elif args.estimator == "clock":
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
                **_model_echo(model, interval),
            },
        }
        print(dumps_17g(payload))

        if dump is not None:
            dump.write("path_id,t,value,is_jump,killed\n")
            for pid in range(args.dump_paths):
                tr = simulate_path(model, interval, args.start, config, path_index=pid)
                for i in range(tr.times.size):
                    killed = tr.hit and i == tr.times.size - 1
                    dump.write(f"{pid},{tr.times[i]:.17g},{tr.values[i]:.17g},"
                               f"{int(tr.is_jump[i])},{int(killed)}\n")
    return EXIT_OK


def _cmd_condition(args) -> int:
    model, interval = _model_interval(args)
    require_number(args.dt, "dt", low=0.0, strict=True)
    # p_up comes from the exact terminal sample, which has no grid: --dt only
    # spaces the --timeseries rows
    config = PathConfig(dt=args.dt if args.timeseries else args.horizon,
                        horizon=args.horizon, seed=args.seed, n_paths=args.particles)
    with _open_output(args.timeseries) as series:
        dp = drift_probability(model, interval, args.start, args.horizon, config,
                               transform=args.transform)
        payload = {
            "transform": args.transform,
            "p_up": dp.p_up.mean,
            "p_down": dp.p_down.mean,
            "stderr_up": dp.p_up.stderr,
            "stderr_down": dp.p_down.stderr,
            "ess_min": dp.ess_min,
            "config_echo": {
                "start": args.start, "particles": args.particles, "dt": args.dt,
                "horizon": args.horizon, "seed": args.seed,
                **_model_echo(model, interval),
            },
        }
        print(dumps_17g(payload))

        if series is not None:
            times = [0.0] + _observation_grid(args.dt, args.horizon)
            ens = propagate_ensemble(model, interval, args.transform, args.start,
                                     config, record_times=times)
            series.write("time,total_weight,ess,frac_above,frac_below\n")
            for t, w, w2, w_up, w_dn in zip(ens.times, ens.weight, ens.weight_sq,
                                            ens.weight_above, ens.weight_below):
                ess = w * w / w2 if w2 > 0.0 else 0.0
                up, dn = (w_up / w, w_dn / w) if w > 0.0 else (math.nan, math.nan)
                series.write(f"{t:.17g},{w / ens.n:.17g},{ess:.17g},{up:.17g},{dn:.17g}\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = load_config(args.config, suite=args.suite)
    with _open_output(args.out) as out:
        report = run_suite(config)
        text = dumps_17g(report.to_dict())
        if out is not None:
            out.write(text + "\n")
    print(text)
    return EXIT_OK if report.passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, ValueError, EnsembleExtinctionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
