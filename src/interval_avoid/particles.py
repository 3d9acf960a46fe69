"""Weighted-particle realisation of the conditioned (h-transformed) laws.

Particles evolve under the plain killed dynamics; each carries the
Radon-Nikodym weight 1_{t < T} h(xi_t) / h(start), so weighted averages of
bounded functionals estimate expectations under the transformed law.

The weight telescopes, so it is evaluated at the time it is needed and never
carried from step to step: ``drift_probability`` weights one
``terminal_sample`` at the horizon, while ``propagate_ensemble`` and
``occupation_time`` advance every (seed, block) path block through the
observation grid and weight it afresh at each grid time.  Nothing is
resampled: every estimate is an average over independent killed paths, so
its standard error is the iid one, and the effective sample size of an
ensemble decays as its paths die.  All three are block-parallel, so their
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .closedform import harmonics
from .engine import (EstimatorResult, PathConfig, _map_blocks, _observation_grid, advance,
                     terminal_sample)
from .model import Interval, ModelParams

__all__ = [
    "ParticleEnsemble",
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


@dataclass
class ParticleEnsemble:
    """Snapshot of a weighted ensemble at one observation time."""

    states: np.ndarray
    weights: np.ndarray
    alive: np.ndarray
    time: float
    transform: Transform
    normalizer: float            # h(start)

    @property
    def n(self) -> int:
        return self.states.size

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def ess(self) -> float:
        return _ess(self.weights)

    def weighted_fraction(self, mask: np.ndarray) -> float:
        s = self.weights.sum()
        return float((self.weights * mask).sum() / s) if s > 0.0 else math.nan


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


def _ensemble_block(pb, kind, start, times, record):
    snaps = [(pb.x.copy(), w, pb.alive.copy())
             for t, w in _weighted_pass(pb, kind, start, times) if t in record]
    return snaps, bool(pb.alive.any())


def propagate_ensemble(model: ModelParams, interval: Interval, transform: Transform,
                       start: float, config: PathConfig, *,
                       record_times: Optional[Sequence[float]] = None
                       ) -> list[ParticleEnsemble]:
    """Weighted ensemble snapshots at the record times (default: the horizon).

    Each (seed, block) path block is advanced through the observation grid
    merged with the record times and weighted at each record time by
    w = 1{alive} h(xi_t) / h(start); nothing is resampled.  Raises
    ``EnsembleExtinctionError`` when no path is alive at the end of the pass.
    """
    kind = _kind(transform)
    interval.require_outside(start, "starting point")
    config.require_bridge("propagate_ensemble")
    record = sorted({float(t) for t in
                     (record_times if record_times is not None else [config.horizon])})
    if not all(0.0 <= t < math.inf for t in record):
        raise ValueError(f"record times must be nonnegative and finite (got {record})")
    times = sorted(set(_observation_grid(config.dt, config.horizon)) | set(record))
    parts = _map_blocks(_ensemble_block, model, interval, start, config,
                        kind, start, times, record)
    if not any(alive for _, alive in parts):
        raise EnsembleExtinctionError(transform, start, times[-1], config.n_paths)
    normalizer = float(harmonics(model, interval).value(kind, start))
    snapshots = []
    for t in record:
        # pop each block's arrays so only one copy of the snapshots is held
        states, weights, alive = (np.concatenate(arrays) for arrays in
                                  zip(*(snaps.pop(0) for snaps, _ in parts)))
        snapshots.append(ParticleEnsemble(states, weights, alive, t, transform, normalizer))
    return snapshots


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
    kind = _kind(transform)
    config.require_bridge("drift_probability")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1 (got {replicates})")
    per_rep = max(1, config.n_paths // replicates)
    cfg = PathConfig(dt=horizon, horizon=horizon, seed=config.seed,
                     n_paths=replicates * per_rep)
    xs, alive = terminal_sample(model, interval, start, horizon, cfg)
    w = _weigher(model, interval, kind, start)(xs, alive)
    up = xs > interval.b
    batches = w.reshape(replicates, per_rep)
    batch_total = batches.sum(axis=1)
    if not np.all(batch_total > 0.0):
        raise EnsembleExtinctionError(transform, start, horizon, per_rep)
    total = w.sum()
    p = float(w @ up / total)
    se = float(math.sqrt(np.sum((w * (up - p)) ** 2)) / total)
    n = cfg.n_paths
    return DriftProbability(
        p_up=EstimatorResult(p, se, n),
        p_down=EstimatorResult(1.0 - p, se, n),
        ess_min=min(_ess(row) for row in batches),
        resamples=0,
        per_replicate=(batches * up.reshape(replicates, per_rep)).sum(axis=1) / batch_total,
    )


def _occupation_block(pb, kind, start, window, horizons, times):
    d, c = window
    a, b = pb.interval.a, pb.interval.b
    occ = np.zeros(pb.n)
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
    kind = _kind(transform)
    interval.require_outside(start, "starting point")
    config.require_bridge("occupation_time")
    d, c = window
    if not (d < interval.a and c > interval.b):
        raise ValueError(f"window must satisfy d < a and c > b, got {window}")
    horizons = tuple(float(hz) for hz in horizons)
    if not horizons or not all(0.0 < hz < math.inf for hz in horizons):
        raise ValueError(f"horizons must be positive and finite (got {horizons})")
    times = sorted(set(_observation_grid(config.dt, max(horizons))) | set(horizons))
    parts = _map_blocks(_occupation_block, model, interval, start, config,
                        kind, start, window, horizons, times)
    return np.concatenate(parts)


def harmonicity_residual(model: ModelParams, interval: Interval, kind: str,
                         start: float, t: float, config: PathConfig) -> EstimatorResult:
    """Relative martingale defect (E[1_{t<T} h(xi_t)] - h(x)) / h(x).

    Plain Monte Carlo on exact terminal samples; zero in expectation for a
    harmonic h.
    """
    if t == 0.0:
        return EstimatorResult(0.0, 0.0, config.n_paths)
    weigh = _weigher(model, interval, kind, start)
    xs, alive = terminal_sample(model, interval, start, t, config)
    w = weigh(xs, alive)
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(w.size))
    return EstimatorResult(mean - 1.0, se, int(xs.size))
