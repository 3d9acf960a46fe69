"""Paired timing of verification suites on two source trees.

For each suite, runs ``interval_avoid.cli verify --suite SUITE`` at the
default configuration from a base tree and a head tree in turn (the first
of each pair alternates), and reads the suite's own ``runtime_seconds``
from the report, so interpreter start-up is left out.  Prints one JSON
line per suite and worker count: the medians, the quartiles, how many
pairs the head won and whether the two trees' reports, less their
``runtime_seconds`` line, were byte-identical in every pair.

    python3 scripts/pair_timing.py --base ../parent --head . \\
        --suites harmonicity clocklimit --threads 1 2 --pairs 10

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
from pathlib import Path


def run_suite(tree: Path, suite: str, threads: int) -> tuple[float, str]:
    """The suite's ``runtime_seconds`` and its report without that line."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), INTERVAL_AVOID_THREADS=str(threads))
    out = subprocess.run([sys.executable, "-m", "interval_avoid.cli", "verify", "--suite", suite],
                         env=env, capture_output=True, text=True, check=True).stdout
    rest = "".join(line for line in out.splitlines(keepends=True)
                   if not line.lstrip().startswith('"runtime_seconds":'))
    return json.loads(out)["runtime_seconds"], rest


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
    args = parser.parse_args(argv)
    for suite in args.suites:
        for threads in args.threads:
            base, head, identical = [], [], True
            for i in range(args.pairs):
                order = [(args.base, base), (args.head, head)]
                reports = []
                for tree, times in order if i % 2 == 0 else order[::-1]:
                    seconds, report = run_suite(tree, suite, threads)
                    times.append(seconds)
                    reports.append(report)
                identical &= reports[0] == reports[1]
            print(json.dumps({
                "suite": suite, "threads": threads, "pairs": args.pairs,
                "base_q1_median_q3": quartiles(base), "head_q1_median_q3": quartiles(head),
                "head_wins": sum(h < b for b, h in zip(base, head)),
                "reports_identical": identical,
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
