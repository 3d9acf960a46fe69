"""Layer microbenchmarks that call the public functions directly.

Each function warms up once (lazy imports, first-touch allocation), then
times a fixed number of repetitions of identical work and returns the
median.  The inputs depend only on ``seed``; the work of each metric is
fixed by the module constants, so that changing it means changing this file.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from interval_avoid import Interval, ModelParams, harmonics
from interval_avoid._rng import BLOCK_SIZE, block_stream
from interval_avoid.engine import PathBlock, PathConfig, advance, estimate_survival
from interval_avoid.particles import propagate_ensemble

MODEL = ModelParams()
INTERVAL = Interval(0.0, 1.0)
DT = 0.1                  # observation grid of the longtime suite
HORIZON = 60.0            # its drift-probability horizon
TAIL_HORIZON = 2000.0     # the overshoot suite's crossing-law horizon
CROSSINGS = 3             # crossings recorded per path (stop_after)
POINTS = 1_000_000        # closed-form evaluation points
STEPS = int(round(HORIZON / DT))


def _median_time(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        tic = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tic)
    return statistics.median(times)


def _tail_block(seed: int) -> PathBlock:
    """One full 8192-path block from -1, recording up to CROSSINGS crossings."""
    return PathBlock.start(MODEL, INTERVAL, -1.0, BLOCK_SIZE, block_stream(seed, 0),
                           max_crossings=CROSSINGS)


def tail_block_s(seed: int) -> float:
    """The block advanced to horizon 2000, censored at CROSSINGS crossings."""
    def run():
        advance(_tail_block(seed), TAIL_HORIZON, stop_after=CROSSINGS)
    return _median_time(run, 5)


def step_ms(seed: int) -> float:
    """The same block stepped on the dt = 0.1 grid to T = 60; ms per step."""
    def run():
        pb = _tail_block(seed)
        for k in range(1, STEPS + 1):
            advance(pb, k * DT, stop_after=CROSSINGS)
    return 1e3 * _median_time(run, 3) / STEPS


def bulk_paths_per_s(seed: int) -> float:
    """The same block to t = 1, where the kernel is bound by work, not per-call cost."""
    def run():
        advance(_tail_block(seed), 1.0, stop_after=CROSSINGS)
    return BLOCK_SIZE / _median_time(run, 15)


def harmonics_ns_per_point(seed: int) -> float:
    """Harmonics.combined on 10^6 points outside the interval."""
    rng = np.random.default_rng(seed)
    xs = np.where(rng.random(POINTS) < 0.5,
                  INTERVAL.a - rng.uniform(0.01, 6.0, POINTS),
                  INTERVAL.b + rng.uniform(0.01, 6.0, POINTS))
    h = harmonics(MODEL, INTERVAL)
    return 1e9 * _median_time(lambda: h.combined(xs), 7) / POINTS


def propagate_ms_per_step(seed: int) -> float:
    """propagate_ensemble with 8192 particles to T = 60; ms per grid step."""
    config = PathConfig(dt=DT, horizon=HORIZON, seed=seed, n_paths=BLOCK_SIZE)

    def run():
        propagate_ensemble(MODEL, INTERVAL, "updown", 2.0, config)
    return 1e3 * _median_time(run, 3) / STEPS


def pool_call_overhead_ms(seed: int, workers: int) -> float:
    """A two-block survival estimate at ``workers`` minus the same call at 1.

    The call does almost no path work (t = 0.01), so the difference is the
    cost of starting, feeding and shutting down the process pool.
    """
    config = PathConfig(dt=0.01, horizon=0.01, seed=seed, n_paths=2 * BLOCK_SIZE)
    saved = os.environ.get("INTERVAL_AVOID_THREADS")

    def timed(n: int) -> float:
        os.environ["INTERVAL_AVOID_THREADS"] = str(n)
        return _median_time(lambda: estimate_survival(MODEL, INTERVAL, 2.0, 0.01, config), 5)
    try:
        return 1e3 * (timed(workers) - timed(1))
    finally:
        if saved is None:
            os.environ.pop("INTERVAL_AVOID_THREADS", None)
        else:
            os.environ["INTERVAL_AVOID_THREADS"] = saved


def run_all(seed: int, workers: int) -> dict:
    """Every layer microbenchmark, keyed by its per-layer metric name."""
    return {
        "engine.advance.tail_block_s": tail_block_s(seed),
        "engine.advance.step_ms": step_ms(seed),
        "engine.advance.bulk_paths_per_s": bulk_paths_per_s(seed),
        "closedform.harmonics_ns_per_point": harmonics_ns_per_point(seed),
        "particles.propagate_ms_per_step": propagate_ms_per_step(seed),
        "engine.pool.call_overhead_ms":
            pool_call_overhead_ms(seed, workers) if workers > 1 else 0.0,
    }
