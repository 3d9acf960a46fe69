"""Failure rates of a suite's checks over seeds 1..N.

Runs one verification suite through ``run_suite`` on seeds 1..N, at its
default configuration or with ``--config FILE`` (whose seed is replaced),
and prints one JSON line per check, in report order: how many seeds failed
it, which ones, the Clopper-Pearson 95% interval of its failure
probability and, for a check with a positive tolerance, the median and
maximum over the seeds of |observed - expected| / tolerance, the share of
its band that the seeds use (null where a seed's tolerance is 0).  A last
line gives the number of seeds on which the report failed.  Workers come from INTERVAL_AVOID_THREADS, as for ``verify``; the
package is imported from the path, so the same script sweeps any checkout:

    PYTHONPATH=src python3 tools/calibrate.py --suite transient5 --seeds 60 \\
        --config budget.json

``budget.json`` holds a ``verify`` config such as ``{"paths": 196608}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys

from scipy.stats import beta

from interval_avoid.config import load_config
from interval_avoid.suites import SUITES, run_suite


def clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact two-sided interval for a binomial probability from k of n."""
    tail = (1.0 - level) / 2.0
    lo = float(beta.ppf(tail, k, n - k + 1)) if k > 0 else 0.0
    hi = float(beta.ppf(1.0 - tail, k + 1, n - k)) if k < n else 1.0
    return lo, hi


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", required=True, choices=sorted(SUITES))
    parser.add_argument("--seeds", type=int, required=True, help="run seeds 1..N")
    parser.add_argument("--config", default=None, help="JSON configuration file")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1 (got {args.seeds})")
    try:
        base = load_config(args.config, suite=args.suite)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    failed: dict[str, list[int]] = {}
    band_use: dict[str, list[float]] = {}
    runs_failed = 0
    for seed in range(1, args.seeds + 1):
        report = run_suite(dataclasses.replace(base, seed=seed, output_path=None))
        runs_failed += not report.passed
        for check in report.checks:
            seeds = failed.setdefault(check.name, [])
            if not check.passed:
                seeds.append(seed)
            use = band_use.setdefault(check.name, [])
            if check.tolerance > 0.0:
                use.append(abs(check.observed - check.expected) / check.tolerance)
    for name, seeds in failed.items():
        lo, hi = clopper_pearson(len(seeds), args.seeds)
        use = band_use[name]
        print(json.dumps({"check": name, "failures": len(seeds), "seeds": args.seeds,
                          "ci95": [lo, hi], "failed_seeds": seeds,
                          "band_use": ({"median": statistics.median(use), "max": max(use)}
                                       if len(use) == args.seeds else None)}))
    print(json.dumps({"suite": args.suite, "config": args.config, "seeds": args.seeds,
                      "runs_failed": runs_failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
