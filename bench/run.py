"""Benchmark of the interval-avoid verification harness.

Runs one workload, a ``verify`` suite or the ``condition`` command through
the real CLI, repeatedly for ``--seconds`` seconds (closed loop, one client:
each run starts after the previous one exits) and prints the end-to-end
metrics.  With ``--trace 1`` it adds a traced sequential run, the pool probe
and the layer microbenchmarks, and prints the per-layer metrics instead.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.

    python3 bench/run.py --workload overshoot --seed 7 --seconds 12 --trace 0

Run it from the repository root; it builds nothing and reads the program
from ``src/``.  Scratch files go to ``.bench_work/``.  See bench/METRICS.md
for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 20260801
RUN_TIMEOUT_S = 150.0
SETUP_PROBES = 5      # short `verify --suite closedform` runs that sample setup_s


@dataclass(frozen=True)
class Workload:
    command: tuple         # CLI arguments before the budget and seed
    budget: dict           # the documented paths/particles keys (flags for condition)
    threads: int           # INTERVAL_AVOID_THREADS for the timed runs
    headline: str          # check whose tolerance enters tol_x_sqrt_wall
    seeds: int = 1         # config seeds the timed runs take in turn


# Budgets keep every block at the full BLOCK_SIZE of 8192 paths: overshoot
# runs 8 blocks per crossing law, transient5 2 blocks per grid estimate (so
# the pool fans out on every call), condition 8 replicates of 8192
# particles.  condition's headline tolerance rests on the spread of its 8
# replicates, which varies between seeds, so its timed runs take two seeds.
# bench/METRICS.md says why the longtime suite is not a workload and
# condition, its drift-probability part, is.
WORKLOADS = {
    "overshoot": Workload(("verify", "--suite", "overshoot"), {"paths": 65536}, 1,
                          "nu1_mass"),
    "transient5": Workload(("verify", "--suite", "transient5"), {"paths": 196608}, 2,
                           "avoidance_harmonicity"),
    "condition": Workload(("condition", "--transform", "updown", "--start", "2",
                           "--horizon", "60"), {"particles": 65536}, 1, "updown_p_up",
                          seeds=2),
}
SETUP_PROBE = Workload(("verify", "--suite", "closedform"), {}, 1, "")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "tol_x_sqrt_wall": "sqrt_s"}


@dataclass
class CliRun:
    """One CLI process: its seed, exit code, resource use and report."""

    code: int
    seed: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    report: Optional[dict]
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.report is not None and self.report.get("passed") is True


def check_counts(run: CliRun, fallback: int) -> tuple[int, int]:
    """(attempted, failed) checks of one run.

    A run that crashed or exited non-zero counts every check as failed; when
    it left no report, it counts ``fallback`` checks (the number a good run
    of the same workload reports, at least 1).
    """
    checks = run.report.get("checks") if run.report else None
    attempted = len(checks) if checks else max(1, fallback)
    if not run.ok:
        return attempted, attempted
    return attempted, sum(1 for c in checks if not c["passed"])


def comparable(report: Optional[dict]) -> Optional[str]:
    """Report text with the fields that legitimately vary between runs removed.

    ``runtime_seconds`` is a wall-clock reading; a ``telemetry`` block (if the
    program grows one) is observability, excluded like ``runtime_seconds``.
    """
    if report is None:
        return None
    kept = {k: v for k, v in report.items() if k not in ("runtime_seconds", "telemetry")}
    return json.dumps(kept, sort_keys=True)


def workload_seeds(workload: Workload, seed: int) -> list[int]:
    """``seed`` followed by independent seeds derived from it."""
    import numpy as np

    derived = [int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])
               for i in range(1, workload.seeds)]
    return [seed, *derived]


def cli_args(workload: Workload, seed: int, workdir: Path, out: Path) -> list[str]:
    """The CLI arguments of one run; a verify report goes to ``out``."""
    if workload.command[0] == "verify":
        config = workdir / f"config-{seed}.json"
        config.write_text(json.dumps({**workload.budget, "seed": seed}))
        return [*workload.command, "--config", str(config), "--out", str(out)]
    flags = [f"--{key}={value}" for key, value in workload.budget.items()]
    return [*workload.command, *flags, f"--seed={seed}"]


def run_cli(workload: Workload, seed: int, workdir: Path, tag: str, threads: int,
            spans: Optional[Path] = None) -> CliRun:
    """Run the workload's CLI command in a child process and reap it with wait4.

    wait4 gives the child's own rusage, which covers the pool workers it
    reaped but no earlier run, so cpu_s and peak RSS belong to this run alone.
    """
    out, summary = workdir / f"{tag}.report.json", workdir / f"{tag}.summary.json"
    stdout = workdir / f"{tag}.stdout"
    for stale in (out, summary, stdout):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "probe.py"), "--summary", str(summary)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *cli_args(workload, seed, workdir, out)]
    env = dict(os.environ, PYTHONPATH=str(SRC), INTERVAL_AVOID_THREADS=str(threads))
    with open(workdir / f"{tag}.stderr", "w") as err, open(stdout, "w") as std:
        tic = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=std, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - tic
    proc.returncode = os.waitstatus_to_exitcode(status)
    if workload.command[0] == "verify":
        report = _load_json(out)
    else:
        report = condition_report(_load_json(stdout))
    return CliRun(code=proc.returncode, seed=seed, wall_s=wall,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mib=usage.ru_maxrss / 1024.0,      # Linux reports KiB
                  report=report, summary=_load_json(summary) or {})


def _load_json(path: Path) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def condition_report(payload: Optional[dict]) -> Optional[dict]:
    """Checks of one ``condition`` output, in the shape of a verify report.

    They are the longtime suite's drift-probability checks (criterion 7):
    p_up within 0.02 + 3 standard errors of h_plus/h at the start, and
    p_up + p_down = 1.
    """
    if payload is None:
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from interval_avoid import Interval, ModelParams, harmonics

    echo = payload["config_echo"]
    model = ModelParams(sigma=echo["model"]["sigma"], lam=echo["model"]["lambda"],
                        eta=echo["model"]["eta"], drift=echo["model"]["drift"])
    h = harmonics(model, Interval(echo["interval"]["a"], echo["interval"]["b"]))
    target = float(h.plus(echo["start"]) / h.combined(echo["start"]))
    p_up, p_down = payload["p_up"], payload["p_down"]
    tol = 0.02 + 3.0 * payload["stderr_up"]
    checks = [
        {"name": "updown_p_up", "passed": abs(p_up - target) <= tol, "tolerance": tol},
        {"name": "p_up_plus_p_down", "passed": abs(p_up + p_down - 1.0) <= 1e-12,
         "tolerance": 1e-12},
    ]
    return {"passed": all(c["passed"] for c in checks), "checks": checks,
            "output": payload}


def headline_tolerance(run: CliRun, name: str) -> float:
    for check in run.report["checks"]:
        if check["name"] == name:
            return float(check["tolerance"])
    raise KeyError(f"headline check {name!r} missing from the report")


def setup_times(runs: list[CliRun]) -> list[float]:
    """Process wall minus the report's runtime, for runs whose report has one."""
    return [r.wall_s - r.report["runtime_seconds"] for r in runs
            if "runtime_seconds" in r.report]


def end_to_end(workload: Workload, runs: list[CliRun], probes: list[CliRun]) -> dict:
    """Median of each end-to-end metric over the timed runs.

    setup_s also takes the set-up probes, so that it is a median of several
    samples even when one timed run fills the measuring time; on condition,
    whose output has no runtime, it is the median of the probes alone.
    """
    good = [r for r in runs if r.ok]
    med = statistics.median
    return {
        "wall_s": med(r.wall_s for r in good),
        "cpu_s": med(r.cpu_s for r in good),
        "setup_s": med(setup_times(good + probes)),
        "peak_rss_mib": med(r.rss_mib for r in good),
        "tol_x_sqrt_wall": med(headline_tolerance(r, workload.headline) * math.sqrt(r.wall_s)
                               for r in good),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1])


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def per_layer(traced: CliRun, timed: list[CliRun], untraced_seq_wall: float,
              micro: dict) -> dict:
    """Per-layer metrics from the traced run's spans and the public returns."""
    summary = traced.summary
    layers = summary["layers"]
    wall = summary["wall_s"]

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "self_s": 0.0})

    calls_us = [1e6 * s for s in summary["advance_call_s"]] or [0.0]
    observed = summary["observed"]
    crossing = observed.get("empirical_crossing_law", [])
    avoidance = observed.get("estimate_avoidance", [])
    drift = observed.get("drift_probability", [])
    covered = sum(v["self_s"] for k, v in layers.items() if k != "suites")
    metrics = {
        "engine.advance.calls": layer("engine.advance")["calls"],
        "engine.advance.self_s": layer("engine.advance")["self_s"],
        "engine.advance.share": _share(layer("engine.advance")["self_s"], wall),
        "engine.advance.call_us.p50": percentile(calls_us, 50),
        "engine.advance.call_us.p99": percentile(calls_us, 99),
        "engine.estimator.calls": layer("engine.estimator")["calls"],
        "engine.estimator.self_s": layer("engine.estimator")["self_s"],
        "engine.pool.startups": statistics.median(r.summary.get("pool_startups", 0)
                                                  for r in timed),
        "engine.pool.call_overhead_ms": micro["engine.pool.call_overhead_ms"],
        "particles.calls": layer("particles")["calls"],
        "particles.self_s": layer("particles")["self_s"],
        "particles.ess_min_frac": min((d["ess_min"] / d["per_replicate"] for d in drift),
                                      default=0.0),
        "particles.resamples": sum(d["resamples"] for d in drift),
        "closedform.calls": layer("closedform")["calls"],
        "closedform.self_s": layer("closedform")["self_s"],
        "model.self_s": layer("model")["self_s"],
        "suites.self_s": wall - covered,
        "engine.crossing.censored_frac": _share(
            sum(c["censored_fraction"] * c["paths"] for c in crossing),
            sum(c["paths"] for c in crossing)),
        "engine.avoidance.unresolved": _share(sum(a["unresolved"] for a in avoidance),
                                              sum(a["paths"] for a in avoidance)),
        "trace.wall_s": wall,
        "trace.overhead_s": traced.wall_s - untraced_seq_wall,
    }
    metrics.update({k: v for k, v in micro.items() if k != "engine.pool.call_overhead_ms"})
    return metrics


PER_LAYER_UNITS = {
    "engine.advance.calls": "count", "engine.advance.self_s": "s",
    "engine.advance.share": "ratio", "engine.advance.call_us.p50": "us",
    "engine.advance.call_us.p99": "us", "engine.estimator.calls": "count",
    "engine.estimator.self_s": "s", "engine.pool.startups": "count",
    "engine.pool.call_overhead_ms": "ms", "particles.calls": "count",
    "particles.self_s": "s", "particles.ess_min_frac": "ratio",
    "particles.resamples": "count", "closedform.calls": "count",
    "closedform.self_s": "s", "model.self_s": "s", "suites.self_s": "s",
    "engine.crossing.censored_frac": "ratio", "engine.avoidance.unresolved": "ratio",
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "engine.advance.tail_block_s": "s", "engine.advance.step_ms": "ms",
    "engine.advance.bulk_paths_per_s": "paths/s",
    "closedform.harmonics_ns_per_point": "ns", "particles.propagate_ms_per_step": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="config seed of every verify run (default %(default)s)")
    p.add_argument("--seconds", type=float, default=12.0,
                   help="keep starting timed runs until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in an unsigned 64-bit integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "interval_avoid" / "cli.py").is_file():
        print(f"error: {SRC}/interval_avoid not found; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    # at least two timed runs, so that a slow run is never the median alone
    seeds = workload_seeds(workload, args.seed)
    timed: list[CliRun] = []
    started = time.perf_counter()
    while (len(timed) < max(2, len(seeds))
           or time.perf_counter() - started < args.seconds):
        timed.append(run_cli(workload, seeds[len(timed) % len(seeds)], workdir,
                             f"run{len(timed)}", workload.threads))
        if not timed[-1].ok:
            break
    probes = [run_cli(SETUP_PROBE, args.seed, workdir, f"setup{i}", 1)
              for i in range(SETUP_PROBES)]

    problems = []
    reference: dict[int, Optional[str]] = {}     # seed -> report of its first run
    for i, run in enumerate(timed):
        if not run.ok:
            problems.append(f"run {i}: exit {run.code}, passed "
                            f"{run.report.get('passed') if run.report else None}")
        elif reference.setdefault(run.seed, comparable(run.report)) != comparable(run.report):
            problems.append(f"run {i}: report differs from the first run of seed {run.seed}")
    problems += [f"set-up probe {i}: exit {run.code}"
                 for i, run in enumerate(probes) if not run.ok]
    first = reference.get(args.seed)

    gates: list[CliRun] = []

    def gate(tag: str, threads: int, what: str, spans: Optional[Path] = None) -> CliRun:
        run = run_cli(workload, args.seed, workdir, tag, threads, spans=spans)
        gates.append(run)
        if not run.ok or comparable(run.report) != first:
            problems.append(what)
        return run

    # every seed's runs must repeat exactly; a repeat run when none did
    if not problems and len(timed) == len(reference):
        gate("repeat", workload.threads, "repeated run's report differs from the first")
    # a sequential reference: the 2-worker report must equal it (README promise)
    seq_wall = None
    if workload.threads > 1 and not problems:
        seq_wall = gate("sequential", 1, "sequential report differs from the "
                        f"{workload.threads}-worker report").wall_s

    traced = micro = None
    if args.trace and not problems:
        traced = gate("traced", 1, "traced report differs from the untraced report",
                      spans=workdir / "spans.csv")
        sys.path.insert(0, str(SRC))
        import micro as micro_mod
        micro = micro_mod.run_all(args.seed, workload.threads)

    every = timed + gates
    fallback = max((len(r.report["checks"]) for r in every if r.report), default=1)
    attempted = failed = 0
    for run in every:
        a, f = check_counts(run, fallback)
        attempted, failed = attempted + a, failed + f

    correct = not problems and failed == 0
    metrics: dict = {}
    if correct:
        e2e = end_to_end(workload, timed, probes)
        if args.trace:
            values = per_layer(traced, timed,
                               seq_wall if seq_wall is not None else e2e["wall_s"],
                               micro)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    _describe(args, workload, timed, metrics, problems, failed / attempted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _describe(args, workload, timed, metrics, problems, failed_frac) -> None:
    """Human-readable summary on stderr: machine, budget and every metric."""
    import numpy
    import scipy

    err = sys.stderr
    print(f"workload {args.workload}: {' '.join(workload.command)} "
          f"{json.dumps(workload.budget)} seed={args.seed} "
          f"INTERVAL_AVOID_THREADS={workload.threads}; {len(timed)} timed runs", file=err)
    print(f"machine: {os.cpu_count()} CPUs, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}", file=err)
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}", file=err)
    print(f"  {'checks_failed_frac':36s} {failed_frac:.6g} ratio", file=err)
    for problem in problems:
        print(f"FAILED: {problem}", file=err)


if __name__ == "__main__":
    sys.exit(main())
