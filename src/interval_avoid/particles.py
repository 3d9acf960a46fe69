"""Weighted-particle realisation of the conditioned (h-transformed) laws.

Particles evolve under the plain killed dynamics; each carries the
Radon-Nikodym weight 1_{t < T} h(xi_t) / h(start), so weighted averages of
bounded functionals estimate expectations under the transformed law.

The weight telescopes, so a functional of the position at one time needs
only the exact killed sample at that time: ``drift_probability`` weights one
``terminal_sample`` at the horizon, with no grid and no resampling.
Path functionals observed along a grid (``propagate_ensemble``,
``occupation_time``) maintain the weight incrementally as h(new)/h(old),
which keeps it meaningful across multinomial resampling steps: resampling
preserves the total weight exactly and the weighted empirical law in
expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from ._rng import block_stream
from .closedform import Harmonics, harmonics
from .engine import (EstimatorResult, PathBlock, PathConfig, _observation_grid, advance,
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
    """All particles dead; the weighted ensemble can no longer be propagated."""

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


class _System:
    """One ensemble: a path block plus weights and resampling machinery."""

    def __init__(self, model: ModelParams, interval: Interval, transform: Transform,
                 start: float, n: int, rng: np.random.Generator,
                 ess_threshold: float, track_level: Optional[float] = None):
        self.h: Harmonics = harmonics(model, interval)
        self.kind = _KIND[transform]
        self.transform = transform
        self.start = float(start)
        self.normalizer = float(self.h.value(self.kind, start))
        self.block = PathBlock.start(model, interval, start, n, rng,
                                     track_level=track_level)
        self.weights = np.ones(n)
        self.h_cur = np.full(n, self.normalizer)
        self.ess_threshold = float(ess_threshold)
        self.resamples = 0
        self.ess_min = float(n)
        self.interval = interval
        # first-passage weights for the tracked level, frozen at passage time
        self.level_weight = np.full(n, np.nan) if track_level is not None else None

    def step(self, t: float) -> None:
        pb = self.block
        advance(pb, t)
        alive = pb.alive
        if not alive.any():
            raise EnsembleExtinctionError(self.transform, self.start, t, pb.n)
        h_new = np.zeros(pb.n)
        h_new[alive] = self.h.value(self.kind, pb.x[alive])
        ratio = np.zeros(pb.n)
        live = alive & (self.weights > 0.0)
        ratio[live] = h_new[live] / self.h_cur[live]
        self.weights = self.weights * ratio
        self.h_cur = np.where(alive, h_new, self.h_cur)
        if self.level_weight is not None:
            just = ~np.isnan(pb.level_time) & np.isnan(self.level_weight)
            if just.any():
                self.level_weight[just] = (self.h.value(self.kind, pb.level_value[just])
                                           / self.normalizer)

        ess = _ess(self.weights)
        self.ess_min = min(self.ess_min, ess)
        if self.ess_threshold > 0.0 and ess < self.ess_threshold * pb.n:
            self.resample()

    def resample(self) -> None:
        pb = self.block
        total = self.weights.sum()
        if total <= 0.0:
            raise EnsembleExtinctionError(self.transform, self.start,
                                          float(pb.t.max()), pb.n)
        counts = pb.rng.multinomial(pb.n, self.weights / total)
        sel = np.repeat(np.arange(pb.n), counts)
        for arr in (pb.x, pb.t, pb.next_jump, pb.hit_time, pb.hit_value):
            arr[:] = arr[sel]
        pb.alive[:] = pb.alive[sel]
        pb.frozen[:] = pb.frozen[sel]
        pb.n_cross[:] = pb.n_cross[sel]
        pb.k_dagger[:] = pb.k_dagger[sel]
        if pb.level_time is not None:
            pb.level_time[:] = pb.level_time[sel]
            pb.level_value[:] = pb.level_value[sel]
        if self.level_weight is not None:
            self.level_weight[:] = self.level_weight[sel]
        self.h_cur[:] = self.h_cur[sel]
        self.weights[:] = total / pb.n     # total weight preserved exactly
        self.resamples += 1

    def snapshot(self, transform: Transform) -> ParticleEnsemble:
        return ParticleEnsemble(
            states=self.block.x.copy(),
            weights=self.weights.copy(),
            alive=self.block.alive.copy(),
            time=float(self.block.t.max()),
            transform=transform,
            normalizer=self.normalizer,
        )


def propagate_ensemble(model: ModelParams, interval: Interval, transform: Transform,
                       start: float, config: PathConfig, *,
                       ess_threshold: float = 0.5,
                       record_times: Optional[Sequence[float]] = None,
                       track_level: Optional[float] = None):
    """Propagate one weighted ensemble and return snapshots at the record times.

    ``ess_threshold`` is the resampling trigger as a fraction of the particle
    count; 0 disables resampling.  Returns (snapshots, system) where the
    system exposes ess_min, resample count and tracked level passages.
    """
    _kind(transform)
    interval.require_outside(start, "starting point")
    config.require_bridge("propagate_ensemble")
    rng = block_stream(config.seed, 0)
    sys_ = _System(model, interval, transform, start, config.n_paths, rng,
                   ess_threshold, track_level=track_level)
    if record_times is None:
        record_times = [config.horizon]
    record = sorted(set(float(t) for t in record_times))
    snapshots = [sys_.snapshot(transform)] if 0.0 in record else []
    record = [t for t in record if t > 0.0]

    times = sorted(set(_observation_grid(config.dt, config.horizon)) | set(record))
    for t in times:
        sys_.step(t)
        if t in record:
            snapshots.append(sys_.snapshot(transform))
    return snapshots, sys_


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


def _replicated(model, interval, transform, start, config, replicates, ess_threshold,
                reducer, horizon=None):
    """Run independent replicate ensembles; reduce each, return per-replicate values."""
    horizon = config.horizon if horizon is None else horizon
    per_rep = max(1, config.n_paths // replicates)
    values = []
    ess_min = math.inf
    resamples = 0
    for r in range(replicates):
        cfg = PathConfig(dt=config.dt, horizon=horizon, seed=config.seed,
                         n_paths=per_rep)
        rng = block_stream(config.seed, r)
        sys_ = _System(model, interval, transform, start, per_rep, rng, ess_threshold)
        out = reducer(sys_, cfg)
        values.append(out)
        ess_min = min(ess_min, sys_.ess_min)
        resamples += sys_.resamples
    return np.asarray(values), ess_min, resamples


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return m, se


def drift_probability(model: ModelParams, interval: Interval, start: float,
                      horizon: float, config: PathConfig, *,
                      transform: Transform = "updown",
                      replicates: int = 8) -> DriftProbability:
    """Weighted fractions above/below the interval at the horizon.

    Estimates the escape-direction probabilities of the conditioned process,
    P^h_x(xi_T > b) = E_x[1{T < T_[a,b]} h(xi_T) 1{xi_T > b}] / h(x), from
    one exact ``terminal_sample`` of ``replicates * (n_paths // replicates)``
    killed paths weighted by w = 1{alive} h(xi_T) / h(x).  The sample is cut
    into ``replicates`` contiguous batches; ``p_up`` is the mean of the batch
    ratios sum(w 1{xi_T > b}) / sum(w) and its stderr comes from their
    spread.  p_up + p_down = 1 exactly since live paths are never inside
    [a, b].  The sample is block-parallel, so the result is bit-identical
    for any worker count.  A batch whose weight is all zero raises
    ``EnsembleExtinctionError``.
    """
    kind = _kind(transform)
    config.require_bridge("drift_probability")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1 (got {replicates})")
    per_rep = max(1, config.n_paths // replicates)
    cfg = PathConfig(dt=config.dt, horizon=horizon, seed=config.seed,
                     n_paths=replicates * per_rep)
    xs, alive = terminal_sample(model, interval, start, horizon, cfg)
    h = harmonics(model, interval)
    w = np.zeros(xs.size)
    w[alive] = h.value(kind, xs[alive]) / float(h.value(kind, start))
    w = w.reshape(replicates, per_rep)
    total = w.sum(axis=1)
    if not np.all(total > 0.0):
        raise EnsembleExtinctionError(transform, start, horizon, per_rep)
    up = (xs > interval.b).reshape(replicates, per_rep)
    vals = (w * up).sum(axis=1) / total
    m, se = _mean_se(vals)
    n = cfg.n_paths
    return DriftProbability(
        p_up=EstimatorResult(m, se, n),
        p_down=EstimatorResult(1.0 - m, se, n),
        ess_min=min(_ess(row) for row in w),
        resamples=0,
        per_replicate=vals,
    )


def occupation_time(model: ModelParams, interval: Interval, start: float,
                    window: tuple[float, float], horizon: float, config: PathConfig, *,
                    transform: Transform = "updown", replicates: int = 8,
                    ess_threshold: float = 0.5) -> EstimatorResult:
    """Expected time in [d, a) u (b, c] before the horizon, under the transform.

    Rectangle-rule quadrature on the observation grid of the weighted
    occupation indicator; increases with the horizon to a finite limit for
    the transient conditioned process.
    """
    config.require_bridge("occupation_time")
    d, c = window
    if not (d < interval.a and c > interval.b):
        raise ValueError(f"window must satisfy d < a and c > b, got {window}")

    def reduce(sys_: _System, cfg: PathConfig):
        total = 0.0
        t_prev = 0.0
        for t in _observation_grid(cfg.dt, horizon):
            sys_.step(t)
            x = sys_.block.x
            inside = ((x >= d) & (x < interval.a)) | ((x > interval.b) & (x <= c))
            total += (t - t_prev) * float((sys_.weights * inside).mean())
            t_prev = t
        return total

    vals, _, _ = _replicated(model, interval, transform, start, config,
                             replicates, ess_threshold, reduce, horizon)
    m, se = _mean_se(vals)
    return EstimatorResult(m, se, config.n_paths)


def harmonicity_residual(model: ModelParams, interval: Interval, kind: str,
                         start: float, t: float, config: PathConfig) -> EstimatorResult:
    """Relative martingale defect (E[1_{t<T} h(xi_t)] - h(x)) / h(x).

    Plain Monte Carlo on exact terminal samples; zero in expectation for a
    harmonic h.
    """
    if t == 0.0:
        return EstimatorResult(0.0, 0.0, config.n_paths)
    h = harmonics(model, interval)
    href = float(h.value(kind, start))
    xs, alive = terminal_sample(model, interval, start, t, config)
    w = np.zeros(xs.size)
    w[alive] = h.value(kind, xs[alive]) / href
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(w.size))
    return EstimatorResult(mean - 1.0, se, int(xs.size))
