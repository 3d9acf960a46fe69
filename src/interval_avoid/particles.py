"""Weighted-particle realisation of the conditioned (h-transformed) laws.

Particles evolve under the plain killed dynamics; each carries the
Radon-Nikodym weight 1_{t < T} h(xi_t) / h(start), so weighted averages of
bounded functionals estimate expectations under the transformed law.

The weight telescopes, so it is evaluated at the time it is needed and never
carried from step to step: ``drift_probability`` weights one
``terminal_sample`` at the horizon, while ``propagate_ensemble`` and
``occupation_time`` advance every (seed, block) path block through the
observation grid and weight it afresh at each grid time; the former keeps
no paths, only each block's weighted sums at the record times, added in
block order.  Nothing is resampled: every estimate is an average over
independent killed paths, so its standard error is the iid one, and the
effective sample size of an ensemble decays as its paths die.  All three are
block-parallel, so their results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .closedform import harmonics
from .engine import (EstimatorResult, PathBlock, PathConfig, _Job, _map_jobs, _mean_result,
                     _observation_grid, _terminal_job, advance)
from .model import Interval, ModelParams, require_number

__all__ = [
    "EnsembleSums",
    "EnsembleExtinctionError",
    "propagate_ensemble",
    "drift_probability",
    "occupation_time",
    "harmonicity_residual",
    "DriftProbability",
]

Transform = Literal["plus", "minus", "updown"]

_KIND = {"plus": "plus", "minus": "minus", "updown": "combined"}


def _kind(transform: str) -> str:
    """Harmonic kind of a transform name; ValueError for an unknown one."""
    if transform not in _KIND:
        raise ValueError(f"transform must be one of {sorted(_KIND)}, got {transform!r}")
    return _KIND[transform]


def _ess(weights: np.ndarray) -> float:
    """Effective sample size (sum w)^2 / sum w^2; 0 for an all-zero ensemble."""
    s = weights.sum()
    s2 = (weights * weights).sum()
    return float(s * s / s2) if s2 > 0.0 else 0.0


class EnsembleExtinctionError(RuntimeError):
    """No particle alive at the end of a pass, or a weighted batch of zero weight."""

    def __init__(self, transform: str, start: float, time: float, n: int):
        super().__init__(
            f"particle ensemble extinct: transform={transform}, start={start}, "
            f"time={time:.6g}, n={n}; increase the particle count or shorten the horizon")
        self.transform = transform
        self.start = start
        self.time = time
        self.n = n


@dataclass(frozen=True)
class EnsembleSums:
    """Weighted sums of an ensemble of ``n`` killed paths at each record time.

    Entry k of each array sums over all paths at ``times[k]``, with
    w = 1{alive} h(xi_t) / h(start): ``weight`` is sum w, ``weight_sq`` sum
    w^2, ``weight_above`` sum w 1{xi_t > b}, ``weight_sq_above``
    sum w^2 1{xi_t > b} and ``weight_below`` sum w 1{xi_t < a}.
    """

    times: tuple[float, ...]
    n: int
    weight: np.ndarray
    weight_sq: np.ndarray
    weight_above: np.ndarray
    weight_sq_above: np.ndarray
    weight_below: np.ndarray


def _weigher(model, interval, kind, start):
    """The h-transform weight (x, alive) -> 1{alive} h(x) / h(start)."""
    h = harmonics(model, interval)
    h0 = float(h.value(kind, start))

    def weigh(x: np.ndarray, alive: np.ndarray) -> np.ndarray:
        w = np.zeros(x.size)
        w[alive] = h.value(kind, x[alive]) / h0
        return w

    return weigh


def _weighted_pass(pb, kind, start, times):
    """Advance block ``pb`` (started at ``start``) through ``times``; yield
    (t, w) at each.

    w = 1{alive} h(xi_t) / h(start) is evaluated afresh at every time.
    """
    weigh = _weigher(pb.model, pb.interval, kind, start)
    for t in times:
        advance(pb, t)
        yield t, weigh(pb.x, pb.alive)


def _ensemble_block(model, interval, start, n, rng, kind, times, record):
    pb = PathBlock.start(model, interval, start, n, rng)
    a, b = interval.a, interval.b
    sums = []
    for t, w in _weighted_pass(pb, kind, start, times):
        if t in record:
            up, ww = pb.x > b, w * w
            sums.append((w.sum(), ww.sum(), (w * up).sum(), (ww * up).sum(),
                         (w * (pb.x < a)).sum()))
    return np.reshape(sums, (-1, 5)).T, bool(pb.alive.any())


def propagate_ensemble(model: ModelParams, interval: Interval, transform: Transform,
                       start: float, config: PathConfig, *,
                       record_times: Optional[Sequence[float]] = None) -> EnsembleSums:
    """Weighted sums of the ensemble at the record times (default: the horizon).

    Each (seed, block) path block is advanced through the observation grid
    merged with the record times, weighted at each record time by
    w = 1{alive} h(xi_t) / h(start) and reduced to its sums there; the
    blocks' sums are added in block order, so memory grows with the number
    of record times only.  Nothing is resampled.  Raises
    ``EnsembleExtinctionError`` when no path is alive at the end of the pass.
    """
    kind = _kind(transform)
    interval.require_outside(start, "starting point")
    if record_times is None:
        record_times = [config.horizon]
    for t in record_times:
        require_number(t, "record times", low=0.0)
    record = sorted({float(t) for t in record_times})
    times = sorted(set(_observation_grid(config.dt, config.horizon)) | set(record))
    parts = _map_jobs([_Job(_ensemble_block, model, interval, start, config.seed,
                            config.n_paths, (kind, times, record), list)])[0]
    if not any(alive for _, alive in parts):
        raise EnsembleExtinctionError(transform, start, times[-1], config.n_paths)
    sums = sum(block for block, _ in parts)
    return EnsembleSums(tuple(record), config.n_paths, *sums)


@dataclass(frozen=True)
class DriftProbability:
    """Escape-direction estimate; ``per_replicate`` holds the batch ratios.

    ``ess_min`` is the smallest batch effective sample size of the terminal
    weights.  ``resamples`` is always 0 (no resampling happens); it is kept
    because ``bench/probe.py`` reads it.
    """

    p_up: EstimatorResult
    p_down: EstimatorResult
    ess_min: float
    resamples: int
    per_replicate: np.ndarray


def _drift_job(model, interval, start, horizon, seed, n, transform, replicates=8):
    kind = _kind(transform)
    require_number(replicates, "replicates", integer=True, low=1)
    require_number(horizon, "horizon", low=0.0, strict=True)
    per_rep = max(1, n // replicates)
    n = replicates * per_rep
    job = _terminal_job(model, interval, start, horizon, seed, n)
    weigh = _weigher(model, interval, kind, start)

    def finish(parts):
        xs, alive = job.finish(parts)
        w = weigh(xs, alive)
        up = xs > interval.b
        batches = w.reshape(replicates, per_rep)
        batch_total = batches.sum(axis=1)
        if not np.all(batch_total > 0.0):
            raise EnsembleExtinctionError(transform, start, horizon, per_rep)
        total = w.sum()
        # a BLAS dot product would split its sum by the OpenBLAS thread count
        p = float(np.sum(w, where=up) / total)
        se = float(math.sqrt(np.sum((w * (up - p)) ** 2)) / total)
        return DriftProbability(
            p_up=EstimatorResult(p, se, n),
            p_down=EstimatorResult(1.0 - p, se, n),
            ess_min=min(_ess(row) for row in batches),
            resamples=0,
            per_replicate=(batches * up.reshape(replicates, per_rep)).sum(axis=1) / batch_total,
        )

    return job._replace(finish=finish)


def drift_probability(model: ModelParams, interval: Interval, start: float,
                      horizon: float, config: PathConfig, *,
                      transform: Transform = "updown",
                      replicates: int = 8) -> DriftProbability:
    """Weighted fractions above/below the interval at the horizon.

    Estimates the escape-direction probabilities of the conditioned process,
    P^h_x(xi_T > b) = E_x[1{T < T_[a,b]} h(xi_T) 1{xi_T > b}] / h(x), from
    one exact ``terminal_sample`` of ``replicates * (n_paths // replicates)``
    killed paths weighted by w = 1{alive} h(xi_T) / h(x).  ``p_up`` is the
    ratio of sums p = sum(w 1{xi_T > b}) / sum(w) over all paths, and its
    stderr is the delta-method iid one, sqrt(sum(w^2 (1{xi_T > b} - p)^2)) /
    sum(w).  p_up + p_down = 1 exactly since live paths are never inside
    [a, b].  The sample is also cut into ``replicates`` contiguous batches,
    whose ratios (``per_replicate``) and smallest effective sample size
    (``ess_min``) are reported as diagnostics; a batch whose weight is all
    zero raises ``EnsembleExtinctionError``.  The sample is block-parallel,
    so the result is bit-identical for any worker count.
    """
    return _map_jobs([_drift_job(model, interval, start, horizon, config.seed, config.n_paths,
                                 transform, replicates)])[0]


def _occupation_block(model, interval, start, n, rng, kind, window, horizons, times):
    pb = PathBlock.start(model, interval, start, n, rng)
    d, c = window
    a, b = interval.a, interval.b
    occ = np.zeros(n)
    at = {}
    t_prev = 0.0
    for t, w in _weighted_pass(pb, kind, start, times):
        x = pb.x
        inside = ((x >= d) & (x < a)) | ((x > b) & (x <= c))
        occ += (t - t_prev) * w * inside
        t_prev = t
        if t in horizons:
            at[t] = occ.copy()
    return np.column_stack([at[hz] for hz in horizons])


def _occupation_job(model, interval, start, window, horizons, seed, n, dt, transform):
    kind = _kind(transform)
    interval.require_outside(start, "starting point")
    d, c = window
    require_number(d, "window start d")
    require_number(c, "window end c")
    if not (d < interval.a and c > interval.b):
        raise ValueError(f"window must satisfy d < a and c > b, got {window}")
    for hz in horizons:
        require_number(hz, "horizons", low=0.0, strict=True)
    horizons = tuple(float(hz) for hz in horizons)
    if not horizons:
        raise ValueError("horizons must not be empty")
    times = sorted(set(_observation_grid(dt, max(horizons))) | set(horizons))
    return _Job(_occupation_block, model, interval, start, seed, n,
                (kind, window, horizons, times), np.concatenate)


def occupation_time(model: ModelParams, interval: Interval, start: float,
                    window: tuple[float, float], horizons: Sequence[float],
                    config: PathConfig, *, transform: Transform = "updown") -> np.ndarray:
    """Each path's weighted time in [d, a) u (b, c] up to each horizon.

    Returns an (n_paths, len(horizons)) array: row i holds path i's
    rectangle-rule integral sum_k dt_k w_k 1{xi_k in W}, with
    w_k = 1{alive} h(xi_k) / h(start), over the observation grid merged with
    the horizons, up to each horizon.  Rows are independent paths, so column
    means and their iid standard errors estimate the expected occupation under
    the transform, which increases with the horizon to a finite limit for the
    transient conditioned process.  The grid ends at the last horizon;
    ``config.horizon`` is not used.
    """
    return _map_jobs([_occupation_job(model, interval, start, window, horizons, config.seed,
                                      config.n_paths, config.dt, transform)])[0]


def _harmonicity_job(model, interval, kind, start, times, seed, n):
    _weigher(model, interval, kind, start)     # rejects a drifted model or an unknown kind
    interval.require_outside(start, "starting point")

    def finish(parts):
        sums = sum(block for block, _alive in parts)
        return [EstimatorResult(r.mean - 1.0, r.stderr, n)
                for r in (_mean_result(w, ww, n) for w, ww in sums[:2].T.tolist())]

    # the increasing times as the only grid and record times: one advance call
    # per time and block, and one result per time
    return _Job(_ensemble_block, model, interval, start, seed, n, (kind, times, times), finish)


def harmonicity_residual(model: ModelParams, interval: Interval, kind: str,
                         start: float, t: float, config: PathConfig) -> EstimatorResult:
    """Relative martingale defect (E[1_{t<T} h(xi_t)] - h(x)) / h(x).

    Plain Monte Carlo on exact terminal samples, each block reduced to its
    sums of w = 1{alive} h(xi_t) / h(x) and w^2, which are added in block
    order; zero in expectation for a harmonic h.
    """
    require_number(t, "t", low=0.0)
    job = _harmonicity_job(model, interval, kind, start, [t], config.seed, config.n_paths)
    if t == 0.0:
        return EstimatorResult(0.0, 0.0, config.n_paths)
    return _map_jobs([job])[0][0]
