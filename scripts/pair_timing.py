"""Paired timing of verification suites on two source trees.

For each suite, runs ``interval_avoid.cli verify --suite SUITE`` at the
default configuration, or with ``--config FILE`` passed on to ``verify``,
from a base tree and a head tree in turn (the first of each pair
alternates), and reads the suite's own ``runtime_seconds``
from the report, so interpreter start-up is left out.  Each run's process
wall (from its start to when ``os.wait4`` reaps it), CPU time (user +
system) and peak RSS are read as well, the last two from the rusage that
``os.wait4`` returns, which covers the pool workers it reaped; they show
start-up and teardown.  A run's start-up is its process wall less its
``runtime_seconds``: interpreter start, imports, config parsing and report
output, the quantity that ``bench/run.py``'s ``setup_s`` samples.  Prints
one JSON line per suite and worker count: the quartiles and medians of
each, how many pairs the head won on each of the four times and, as
``reports_identical``, whether the two trees' reports held equal ``checks``
arrays in every pair (the rest of a report, such as its ``config_echo``,
may differ between trees whose checks agree).

    python3 scripts/pair_timing.py --base ../parent --head . \\
        --suites harmonicity clocklimit --threads 1 2 --pairs 10
    python3 scripts/pair_timing.py --base ../parent --head . \\
        --suites transient5 --threads 2 --config budget.json

``budget.json`` holds a ``verify`` config such as ``{"paths": 196608}``.

Each tree is a checkout of this repository; its ``src/`` is put first on
PYTHONPATH.  Every run starts with PYTHONDONTWRITEBYTECODE=1 and so
compiles the package from source, as the benchmark's runs do: a cached
``.pyc`` lowers a run's start-up and peak RSS, so a tree that holds
``src/interval_avoid/__pycache__`` is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional


# one run's measures, in the order ``run_suite`` returns them
MEASURES = ("runtime_s", "wall_s", "cpu_s", "rss_mib")


def run_suite(tree: Path, suite: str, threads: int,
              config: Optional[Path] = None) -> tuple[tuple[float, ...], str]:
    """The suite's ``runtime_seconds``, the run's process wall and CPU
    seconds and peak RSS in MiB, and its report's ``checks`` array as JSON
    text (text, so that a NaN compares equal to itself)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), INTERVAL_AVOID_THREADS=str(threads),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "interval_avoid.cli", "verify", "--suite", suite]
    if config is not None:
        cmd += ["--config", str(config.resolve())]
    with tempfile.TemporaryFile() as err:
        tic = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - tic
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise subprocess.CalledProcessError(proc.returncode, cmd, out, err.read())
    report = json.loads(out)
    return (report["runtime_seconds"], wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0), json.dumps(report["checks"])     # ru_maxrss: KiB


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 3), round(q2, 3), round(q3, 3)]


def wins(base: list[float], head: list[float]) -> int:
    """Pairs in which the head took less than the base."""
    return sum(h < b for b, h in zip(base, head))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="tree timed as the base")
    parser.add_argument("--head", type=Path, required=True, help="tree timed as the head")
    parser.add_argument("--suites", nargs="+", required=True)
    parser.add_argument("--threads", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--config", type=Path, help="config file passed to verify")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2 for the quartiles (got {args.pairs})")
    for tree in (args.base, args.head):
        cache = tree / "src" / "interval_avoid" / "__pycache__"
        if cache.exists():
            parser.error(f"{cache} exists: remove it, so that the runs compile from source")
    for suite in args.suites:
        for threads in args.threads:
            base = {name: [] for name in MEASURES}
            head = {name: [] for name in MEASURES}
            identical = True
            for i in range(args.pairs):
                order = [(args.base, base), (args.head, head)]
                checks = []
                for tree, runs in order if i % 2 == 0 else order[::-1]:
                    measures, report_checks = run_suite(tree, suite, threads, args.config)
                    for name, value in zip(MEASURES, measures):
                        runs[name].append(value)
                    checks.append(report_checks)
                identical &= checks[0] == checks[1]
            for runs in (base, head):
                runs["startup_s"] = [w - r for w, r in zip(runs["wall_s"], runs["runtime_s"])]
            line = {"suite": suite, "threads": threads, "pairs": args.pairs,
                    "config": None if args.config is None else str(args.config),
                    "base_q1_median_q3": quartiles(base["runtime_s"]),
                    "head_q1_median_q3": quartiles(head["runtime_s"]),
                    "head_wins": wins(base["runtime_s"], head["runtime_s"])}
            for name in ("wall_s", "cpu_s", "startup_s"):
                line[f"base_{name}_q1_median_q3"] = quartiles(base[name])
                line[f"head_{name}_q1_median_q3"] = quartiles(head[name])
                line[f"head_wins_{name}"] = wins(base[name], head[name])
            line["base_rss_mib_q1_median_q3"] = quartiles(base["rss_mib"])
            line["head_rss_mib_q1_median_q3"] = quartiles(head["rss_mib"])
            line["reports_identical"] = identical
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
