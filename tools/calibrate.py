"""Failure rates of a suite's checks over seeds S..S+N-1.

Runs one verification suite through ``run_suite`` on seeds S..S+N-1
(``--first-seed S``, 1 by default, and ``--seeds N``), at its
default configuration or with ``--config FILE`` (whose seed is replaced),
and prints one JSON line per check, in report order: how many seeds failed
it, which ones, the Clopper-Pearson 95% interval of its failure
probability and the share of its band that the seeds use: the median and
maximum of |observed - expected| / tolerance over the seeds on which the
tolerance is positive, how many those are, and the mean and sample sd of
the signed (observed - expected) / tolerance over them (null where there
are none; the sd is null on one seed).  For a band of 3 standard errors,
3 x sd is the sd of the z-scores, which should be near 1 where the
standard error is honest, and the mean shows a bias.
A last line gives the number of seeds on which the report failed.  Workers
come from INTERVAL_AVOID_THREADS, as for ``verify``; the package is
imported from the path, so the same script sweeps any checkout:

    PYTHONPATH=src python3 tools/calibrate.py --suite transient5 --seeds 60 \\
        --config budget.json

A long sweep splits over processes by seed range, each run with its own
``--first-seed``, for example seeds 1..500 and 501..1000:

    PYTHONPATH=src python3 tools/calibrate.py --suite overshoot --seeds 500 \\
        --first-seed 501 --config budget.json

``budget.json`` holds a ``verify`` config such as ``{"paths": 196608}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys

from interval_avoid.config import load_config
from interval_avoid.suites import SUITES, run_suite


def clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact two-sided interval for a binomial probability from k of n."""
    # imported here, after the package: scipy loads numpy, and the package
    # must come first to set its one-thread OpenBLAS default
    from scipy.stats import beta

    tail = (1.0 - level) / 2.0
    lo = float(beta.ppf(tail, k, n - k + 1)) if k > 0 else 0.0
    hi = float(beta.ppf(1.0 - tail, k + 1, n - k)) if k < n else 1.0
    return lo, hi


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", required=True, choices=sorted(SUITES))
    parser.add_argument("--seeds", type=int, required=True, help="run N seeds")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the first seed S of the run: seeds S..S+N-1 (default 1)")
    parser.add_argument("--config", default=None, help="JSON configuration file")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1 (got {args.seeds})")
    if not 0 <= args.first_seed <= 2**64 - args.seeds:
        parser.error(f"--first-seed must lie in [0, 2^64 - N] for N seeds "
                     f"(got {args.first_seed})")
    try:
        base = load_config(args.config, suite=args.suite)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    failed: dict[str, list[int]] = {}
    band_use: dict[str, list[float]] = {}
    runs_failed = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        report = run_suite(dataclasses.replace(base, seed=seed))
        runs_failed += not report.passed
        for check in report.checks:
            seeds = failed.setdefault(check.name, [])
            if not check.passed:
                seeds.append(seed)
            use = band_use.setdefault(check.name, [])
            if check.tolerance > 0.0:
                use.append((check.observed - check.expected) / check.tolerance)
    for name, seeds in failed.items():
        lo, hi = clopper_pearson(len(seeds), args.seeds)
        use = band_use[name]
        size = [abs(u) for u in use]
        print(json.dumps({"check": name, "failures": len(seeds), "seeds": args.seeds,
                          "ci95": [lo, hi], "failed_seeds": seeds,
                          "band_use": ({"median": statistics.median(size), "max": max(size),
                                        "seeds": len(use), "signed_mean": statistics.mean(use),
                                        "signed_sd": (statistics.stdev(use) if len(use) > 1
                                                      else None)} if use else None)}))
    print(json.dumps({"suite": args.suite, "config": args.config, "seeds": args.seeds,
                      "first_seed": args.first_seed, "runs_failed": runs_failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
