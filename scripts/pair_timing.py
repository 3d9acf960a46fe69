"""Paired timing of verification suites on two source trees.

For each suite, runs ``interval_avoid.cli verify --suite SUITE`` at the
default configuration, or with ``--config FILE`` passed on to ``verify``,
from a base tree and a head tree in turn (the first of each pair
alternates), and reads the suite's own ``runtime_seconds``
from the report, so interpreter start-up is left out.  Each run's peak RSS
comes from the rusage that ``os.wait4`` returns when the run is reaped,
which covers the pool workers it reaped.  Prints one JSON line per suite
and worker count: the quartiles and medians of both, how many pairs the
head won on time and whether the two trees' reports, less their
``runtime_seconds`` line, were byte-identical in every pair.

    python3 scripts/pair_timing.py --base ../parent --head . \\
        --suites harmonicity clocklimit --threads 1 2 --pairs 10
    python3 scripts/pair_timing.py --base ../parent --head . \\
        --suites transient5 --threads 2 --config budget.json

``budget.json`` holds a ``verify`` config such as ``{"paths": 196608}``.

Each tree is a checkout of this repository; its ``src/`` is put first on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional


def run_suite(tree: Path, suite: str, threads: int,
              config: Optional[Path] = None) -> tuple[float, float, str]:
    """The suite's ``runtime_seconds``, the run's peak RSS in MiB and its
    report without the ``runtime_seconds`` line."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), INTERVAL_AVOID_THREADS=str(threads))
    cmd = [sys.executable, "-m", "interval_avoid.cli", "verify", "--suite", suite]
    if config is not None:
        cmd += ["--config", str(config.resolve())]
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise subprocess.CalledProcessError(proc.returncode, cmd, out, err.read())
    rest = "".join(line for line in out.splitlines(keepends=True)
                   if not line.lstrip().startswith('"runtime_seconds":'))
    return json.loads(out)["runtime_seconds"], usage.ru_maxrss / 1024.0, rest     # KiB on Linux


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 3), round(q2, 3), round(q3, 3)]


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
    for suite in args.suites:
        for threads in args.threads:
            base, head, identical = ([], []), ([], []), True
            for i in range(args.pairs):
                order = [(args.base, base), (args.head, head)]
                reports = []
                for tree, (times, rss) in order if i % 2 == 0 else order[::-1]:
                    seconds, mib, report = run_suite(tree, suite, threads, args.config)
                    times.append(seconds)
                    rss.append(mib)
                    reports.append(report)
                identical &= reports[0] == reports[1]
            print(json.dumps({
                "suite": suite, "threads": threads, "pairs": args.pairs,
                "config": None if args.config is None else str(args.config),
                "base_q1_median_q3": quartiles(base[0]), "head_q1_median_q3": quartiles(head[0]),
                "head_wins": sum(h < b for b, h in zip(base[0], head[0])),
                "base_rss_mib_q1_median_q3": quartiles(base[1]),
                "head_rss_mib_q1_median_q3": quartiles(head[1]),
                "reports_identical": identical,
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
