"""Exact path simulation and raw Monte Carlo estimators.

Paths are advanced event by event: the only event times are jump times,
caller-supplied target times (grid points, clock times, fixed horizons) and
death.  Between events the path is a Brownian segment, and entry into
[a, b] is decided exactly:

* a segment endpoint landing inside the interval kills;
* a segment whose endpoints straddle the interval kills with probability 1
  (a continuous path cannot pass over it);
* a segment with both endpoints on the same side at distances d0, d1 from
  the nearest boundary kills with the Brownian-bridge touch probability
  exp(-2 d0 d1 / (sigma^2 dt)), sampled as a Bernoulli.

Jumps crossing the interval (pre-jump value on one side, post-jump value at
or beyond the other boundary) are recorded as crossings; a jump landing
inside kills on the spot.  All event-time observables are therefore exact in
distribution; no discretisation grid is needed unless one is requested.

Blocks of paths are simulated together with numpy; each block owns its own
counter-based stream (see _rng), so estimator outputs are bit-identical for
a fixed seed regardless of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import BLOCK_SIZE, block_stream, iter_blocks, worker_count
from .closedform import gamma_bound, nu
from .model import Interval, ModelParams

__all__ = [
    "PathConfig",
    "EstimatorResult",
    "Trajectory",
    "PathBlock",
    "advance",
    "bridge_cross_prob",
    "simulate_path",
    "estimate_survival",
    "estimate_clock_event",
    "empirical_crossing_law",
    "estimate_avoidance",
    "terminal_sample",
    "ks_distance",
    "ks_critical_value",
    "SurvivalEstimate",
    "ClockEstimate",
    "CrossingLawEstimate",
    "AvoidanceEstimate",
]


@dataclass(frozen=True)
class PathConfig:
    """Simulation budget: observation step, horizon, seed and path count."""

    dt: float
    horizon: float
    seed: int
    n_paths: int
    bridge_correction: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite (got {self.horizon})")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite (got {self.dt})")
        if self.dt > self.horizon:
            raise ValueError(f"dt = {self.dt} exceeds horizon = {self.horizon}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1 (got {self.n_paths})")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def require_bridge(self, what: str) -> None:
        if not self.bridge_correction:
            raise ValueError(f"{what} requires exact bridge killing; "
                             "bridge_correction=False is supported by survival only")


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    stderr: float
    n: int


def _binomial_result(successes: float, n: int) -> EstimatorResult:
    p = successes / n
    var = (successes - n * p * p) / (n - 1) if n > 1 else 0.0  # sum x^2 = sum x for 0/1
    return EstimatorResult(mean=p, stderr=math.sqrt(max(var, 0.0) / n), n=n)


def _observation_grid(dt: float, horizon: float) -> list[float]:
    """Grid times min(k dt, horizon), k = 1..ceil(horizon/dt)."""
    n_steps = int(math.ceil(horizon / dt))
    return [min(k * dt, horizon) for k in range(1, n_steps + 1)]


def bridge_cross_prob(x0, x1, dt, interval: Interval, sigma: float) -> np.ndarray:
    """Probability that Brownian segments from x0 to x1 over dt touch [a, b].

    ``x0``, ``x1`` and ``dt`` are arrays of one shape (dt > 0).  A segment
    with both endpoints strictly on one side, at distances d0, d1 from the
    near boundary, touches with the bridge probability
    exp(-2 d0 d1 / (sigma^2 dt)); any other segment (straddling the interval
    or with an endpoint in it) touches with probability 1.  The bridge law
    does not depend on the drift, so the formula holds for drifted segments
    as well.
    """
    x0, x1, dt = (np.asarray(v, dtype=float) for v in (x0, x1, dt))
    a, b = interval.a, interval.b
    expo = np.zeros(x0.shape)
    same_hi = (x0 > b) & (x1 > b)
    same_lo = (x0 < a) & (x1 < a)
    # far from the interval the product overflows to inf, and exp(-inf) = 0
    # is the exact limit: such a segment cannot touch it
    with np.errstate(over="ignore"):
        expo[same_hi] = (x0[same_hi] - b) * (x1[same_hi] - b) / dt[same_hi]
        expo[same_lo] = (a - x0[same_lo]) * (a - x1[same_lo]) / dt[same_lo]
    return np.where(same_hi | same_lo, np.exp(-2.0 * expo / (sigma * sigma)), 1.0)


# --------------------------------------------------------------------------- #
# Block state and the event-driven advance kernel
# --------------------------------------------------------------------------- #

@dataclass
class PathBlock:
    """Mutable state of one block of paths sharing a random stream."""

    model: ModelParams
    interval: Interval
    rng: np.random.Generator
    x: np.ndarray
    t: np.ndarray
    alive: np.ndarray
    frozen: np.ndarray           # stopped early (crossing cap or avoidance exit)
    hit_time: np.ndarray
    hit_value: np.ndarray
    next_jump: np.ndarray
    n_cross: np.ndarray
    k_dagger: np.ndarray         # crossing index at a jump-landing hit, else -1
    cross_pos: Optional[np.ndarray] = None   # (n, max_crossings)
    level: Optional[float] = None            # tracked first passage at/below level
    level_time: Optional[np.ndarray] = None
    level_value: Optional[np.ndarray] = None

    @classmethod
    def start(cls, model: ModelParams, interval: Interval, start: float, n: int,
              rng: np.random.Generator, *, max_crossings: int = 0,
              track_level: Optional[float] = None) -> "PathBlock":
        interval.require_outside(start, "starting point")
        pb = cls(
            model=model,
            interval=interval,
            rng=rng,
            x=np.full(n, float(start)),
            t=np.zeros(n),
            alive=np.ones(n, dtype=bool),
            frozen=np.zeros(n, dtype=bool),
            hit_time=np.full(n, np.nan),
            hit_value=np.full(n, np.nan),
            next_jump=rng.exponential(1.0 / model.lam, n),
            n_cross=np.zeros(n, dtype=np.int64),
            k_dagger=np.full(n, -1, dtype=np.int64),
        )
        if max_crossings > 0:
            pb.cross_pos = np.full((n, max_crossings), np.nan)
        if track_level is not None:
            pb.level = float(track_level)
            pb.level_time = np.full(n, np.nan)
            pb.level_value = np.full(n, np.nan)
        return pb

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _record_level(pb: PathBlock, idx: np.ndarray, when: np.ndarray) -> None:
    mask = np.isnan(pb.level_time[idx]) & (pb.x[idx] <= pb.level) & pb.alive[idx]
    hit = idx[mask]
    pb.level_time[hit] = when[mask]
    pb.level_value[hit] = pb.x[hit]


def advance(pb: PathBlock, targets, *, bridge: bool = True,
            stop_after: int = 0) -> None:
    """Advance every live path to its target time (or death, or crossing cap).

    ``targets`` is a scalar or per-path array of absolute times.  With
    ``stop_after`` > 0, a path is frozen once it has recorded that many
    crossings (used to censor crossing-law extraction).
    """
    model, interval = pb.model, pb.interval
    a, b = interval.a, interval.b
    sigma, lam, eta, drift = model.sigma, model.lam, model.eta, model.drift
    targets = np.broadcast_to(np.asarray(targets, dtype=float), (pb.n,))

    idx = np.flatnonzero(pb.alive & ~pb.frozen & (pb.t < targets))
    while idx.size:
        rng = pb.rng
        t0 = pb.t[idx]
        x0 = pb.x[idx]
        tj = pb.next_jump[idx]
        tt = targets[idx]
        jump_now = tj <= tt
        t1 = np.where(jump_now, tj, tt)
        dt = np.maximum(t1 - t0, 1e-300)

        x1 = x0 + drift * dt + sigma * np.sqrt(dt) * rng.standard_normal(idx.size)

        inside1 = interval.contains(x1)
        if bridge:
            u = rng.random(idx.size)
            died = u < bridge_cross_prob(x0, x1, dt, interval, sigma)
        else:
            died = inside1

        if died.any():
            dead = idx[died]
            pb.alive[dead] = False
            pb.t[dead] = t1[died]
            pb.hit_time[dead] = t1[died]
            # continuous entry touches the near boundary first; only an
            # endpoint landing inside keeps its own value
            pb.hit_value[dead] = np.where(inside1[died], x1[died],
                                          np.where(x0[died] > b, b, a))

        live = ~died
        lidx = idx[live]
        pb.x[lidx] = x1[live]
        pb.t[lidx] = t1[live]

        jl = jump_now & live
        jidx = idx[jl]
        if jidx.size:
            mag = rng.exponential(1.0 / eta, jidx.size)
            sign_up = rng.random(jidx.size) < 0.5
            xpre = x1[jl]
            xpost = xpre + np.where(sign_up, mag, -mag)
            crossed = ((xpre > b) & (xpost <= b)) | ((xpre < a) & (xpost >= a))
            landed_inside = (xpost >= a) & (xpost <= b)

            if crossed.any():
                cidx = jidx[crossed]
                slot = pb.n_cross[cidx]
                if pb.cross_pos is not None:
                    cap = pb.cross_pos.shape[1]
                    rec = slot < cap
                    pb.cross_pos[cidx[rec], slot[rec]] = xpost[crossed][rec]
                pb.n_cross[cidx] = slot + 1

            pb.x[jidx] = xpost
            pb.next_jump[jidx] = t1[jl] + rng.exponential(1.0 / lam, jidx.size)

            if landed_inside.any():
                dead = jidx[landed_inside]
                pb.alive[dead] = False
                pb.hit_time[dead] = t1[jl][landed_inside]
                pb.hit_value[dead] = xpost[landed_inside]
                pb.k_dagger[dead] = pb.n_cross[dead]

            if stop_after > 0:
                pb.frozen[jidx[pb.n_cross[jidx] >= stop_after]] = True

        if pb.level is not None:
            _record_level(pb, lidx, t1[live])

        # paths remain active only if they jumped, survived, and are not done
        still = jl & ~died
        sidx = idx[still]
        idx = sidx[pb.alive[sidx] & ~pb.frozen[sidx] & (pb.t[sidx] < targets[sidx])]


# --------------------------------------------------------------------------- #
# Single-path recorder
# --------------------------------------------------------------------------- #

@dataclass
class Trajectory:
    """One recorded path: grid and jump times, values, crossings, hit data.

    ``values`` holds right limits (post-jump at jump marks); a hit ends the
    path with its hit value.  ``k_dagger`` is set only when the hit happens
    at a jump crossing the interval.
    """

    times: np.ndarray
    values: np.ndarray
    is_jump: np.ndarray
    hit: bool
    hit_time: Optional[float]
    crossings: list
    k_dagger: Optional[int]


def simulate_path(model: ModelParams, interval: Interval, start: float,
                  config: PathConfig, path_index: int = 0) -> Trajectory:
    """Record one path of the ``advance`` kernel on the observation grid.

    Each kernel call stops at the next jump or grid time, so every event is
    read back from a one-path block.  Deterministic in (config.seed,
    path_index, start): each path owns the stream keyed by (seed, path_index).
    """
    pb = PathBlock.start(model, interval, start, 1, block_stream(config.seed, path_index))
    times, values, jumps, crossings = [0.0], [float(start)], [False], []
    for grid_t in _observation_grid(config.dt, config.horizon):
        while pb.alive[0] and pb.t[0] < grid_t:
            jump_t, n_cross = pb.next_jump[0], pb.n_cross[0]
            advance(pb, min(jump_t, grid_t), bridge=config.bridge_correction)
            times.append(pb.t[0])
            values.append(pb.x[0] if pb.alive[0] else pb.hit_value[0])
            jumps.append(pb.next_jump[0] != jump_t)
            if pb.n_cross[0] > n_cross:
                crossings.append((pb.t[0], pb.x[0]))
    hit = not pb.alive[0]
    return Trajectory(
        times=np.asarray(times),
        values=np.asarray(values),
        is_jump=np.asarray(jumps, dtype=bool),
        hit=hit,
        hit_time=float(pb.hit_time[0]) if hit else None,
        crossings=crossings,
        k_dagger=int(pb.k_dagger[0]) if pb.k_dagger[0] >= 0 else None,
    )


# --------------------------------------------------------------------------- #
# Block-parallel estimator plumbing
# --------------------------------------------------------------------------- #

def _map_blocks(fn, argsets):
    workers = worker_count()
    if workers <= 1 or len(argsets) <= 1:
        return [fn(args) for args in argsets]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, argsets, chunksize=1))


def _block_args(model, interval, start, config, extra=()):
    return [(model, interval, start, config, bi, count) + tuple(extra)
            for bi, _offset, count in iter_blocks(config.n_paths, BLOCK_SIZE)]


@dataclass(frozen=True)
class SurvivalEstimate:
    total: EstimatorResult
    above: EstimatorResult
    below: EstimatorResult


def estimate_survival(model: ModelParams, interval: Interval, start: float,
                      t: float, config: PathConfig) -> SurvivalEstimate:
    """P(t < T), split by the side of the interval occupied at time t."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite (got {t})")
    xs, alive = terminal_sample(model, interval, start, t, config)
    n = xs.size
    return SurvivalEstimate(
        total=_binomial_result(int(alive.sum()), n),
        above=_binomial_result(int((alive & (xs > interval.b)).sum()), n),
        below=_binomial_result(int((alive & (xs < interval.a)).sum()), n),
    )


@dataclass(frozen=True)
class ClockEstimate:
    total: EstimatorResult
    above: EstimatorResult
    below: EstimatorResult
    q: float


def _clock_block(args):
    model, interval, start, config, bi, count, q = args
    rng = block_stream(config.seed, bi)
    pb = PathBlock.start(model, interval, start, count, rng)
    clocks = rng.exponential(1.0 / q, count)
    advance(pb, clocks)
    up = pb.alive & (pb.x > interval.b)
    dn = pb.alive & (pb.x < interval.a)
    return count, int(pb.alive.sum()), int(up.sum()), int(dn.sum())


def estimate_clock_event(model: ModelParams, interval: Interval, start: float,
                         q: float, config: PathConfig) -> ClockEstimate:
    """P(e_q < T) for an independent Exp(q) clock, split by side at the clock."""
    interval.require_outside(start, "starting point")
    config.require_bridge("estimate_clock_event")
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be positive and finite (got {q})")
    parts = _map_blocks(_clock_block, _block_args(model, interval, start, config, (q,)))
    n = sum(p[0] for p in parts)
    return ClockEstimate(
        total=_binomial_result(sum(p[1] for p in parts), n),
        above=_binomial_result(sum(p[2] for p in parts), n),
        below=_binomial_result(sum(p[3] for p in parts), n),
        q=q,
    )


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov sup distance of a sample against a continuous cdf."""
    s = np.sort(np.asarray(samples, dtype=float))
    m = s.size
    if m == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(s), dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / m))))


def ks_critical_value(m: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample critical value sqrt(-ln(alpha/2)/2)/sqrt(m)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(m)


@dataclass(frozen=True)
class CrossingLawEstimate:
    """Laws of crossings j = 1..k from one censored pass.

    Every per-crossing field is a length-k tuple indexed j - 1.
    """

    n_paths: int
    censored_fraction: float
    positions: tuple[np.ndarray, ...]
    mass: tuple[EstimatorResult, ...]
    ks_distance: tuple[float, ...]
    ks_critical: tuple[float, ...]
    insufficient: tuple[bool, ...]
    censor_bias_bound: tuple[float, ...]


def _crossing_block(args):
    model, interval, start, config, bi, count, k, horizon = args
    rng = block_stream(config.seed, bi)
    pb = PathBlock.start(model, interval, start, count, rng, max_crossings=k)
    advance(pb, horizon, stop_after=k)
    outside = ~interval.contains(np.nan_to_num(pb.cross_pos, nan=interval.midpoint))
    recorded = ~np.isnan(pb.cross_pos) & outside
    positions = [pb.cross_pos[recorded[:, j], j] for j in range(k)]
    censored = pb.alive & ~pb.frozen
    # residual potential of the censored paths short of crossing j:
    # gamma^(j - crossings so far) each
    gam = gamma_bound(model, interval)
    done = pb.n_cross[censored]
    bias = [float(np.sum(gam ** (j - done[done < j]))) for j in range(1, k + 1)]
    return count, positions, int(censored.sum()), bias


def empirical_crossing_law(model: ModelParams, interval: Interval, start: float,
                           k: int, config: PathConfig,
                           min_samples: int = 500) -> CrossingLawEstimate:
    """Empirical laws of the crossing landing positions j = 1..k, against nu_j.

    One pass freezes each path at its k-th crossing and censors it at
    ``config.horizon`` (hitting times have infinite mean, so some cap is
    unavoidable).  Crossing j's mass therefore undershoots by at most
    ``censor_bias_bound[j - 1]``: every censored path short of crossing j
    adds gamma^(j - crossings so far), divided by the path count.  A path
    frozen at crossing k, or already past crossing j, adds nothing.  The
    conditional shape past the far boundary is unaffected by censoring.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    interval.require_outside(start, "starting point")
    config.require_bridge("empirical_crossing_law")
    laws = [nu(model, interval, start, j) for j in range(1, k + 1)]
    parts = _map_blocks(
        _crossing_block,
        _block_args(model, interval, start, config, (k, config.horizon)))
    n = sum(p[0] for p in parts)
    positions = tuple(np.concatenate([p[1][j] for p in parts]) for j in range(k))
    censored = sum(p[2] for p in parts)
    sizes = [pos.size for pos in positions]
    return CrossingLawEstimate(
        n_paths=n,
        censored_fraction=censored / n,
        positions=positions,
        mass=tuple(_binomial_result(float(m), n) for m in sizes),
        ks_distance=tuple(ks_distance(pos, law.conditional_cdf) if pos.size else math.nan
                          for pos, law in zip(positions, laws)),
        ks_critical=tuple(ks_critical_value(max(m, 1)) for m in sizes),
        insufficient=tuple(m < min_samples for m in sizes),
        censor_bias_bound=tuple(sum(p[3][j] for p in parts) / n for j in range(k)),
    )


@dataclass(frozen=True)
class AvoidanceEstimate:
    result: EstimatorResult
    horizon: float
    exit_level: float
    return_prob_bound: float
    unresolved: int


def adjustment_coefficient(model: ModelParams) -> float:
    """Positive root of (sigma^2/2) g + lam g/(eta^2 - g^2) = drift, g in (0, eta).

    exp(-g xi_t) is then a unit-mean martingale, so the probability that an
    upward-drifting path ever falls by D is at most exp(-g D).
    """
    if not model.drift > 0.0:
        raise ValueError("adjustment coefficient requires positive drift")
    from scipy.optimize import brentq

    def f(g):
        return 0.5 * model.sigma**2 * g + model.lam * g / (model.eta**2 - g * g) - model.drift

    return float(brentq(f, 1e-12, model.eta * (1.0 - 1e-12)))


def _avoidance_horizon(model: ModelParams, interval: Interval, start: float) -> float:
    # drift * H >= distance + 30 sqrt(variance_rate * H), solved for H
    dist = max(interval.a - start, start - interval.b, interval.width)
    v = model.variance_rate
    s = (30.0 * math.sqrt(v) + math.sqrt(900.0 * v + 4.0 * model.drift * dist)) / (2.0 * model.drift)
    return s * s


def _avoidance_block(args):
    model, interval, start, config, bi, count, horizon, exit_level, g = args
    rng = block_stream(config.seed, bi)
    pb = PathBlock.start(model, interval, start, count, rng)
    # advance in stretches, freezing paths that escape above the exit level
    stretch = max(10.0, 200.0 / model.lam)
    t_next = stretch
    bound = 0.0
    while True:
        out = pb.alive & ~pb.frozen & (pb.x >= exit_level)
        if out.any():
            bound += float(np.exp(-g * (pb.x[out] - interval.b)).sum())
            pb.frozen[out] = True
        if not (pb.alive & ~pb.frozen & (pb.t < horizon)).any():
            break
        advance(pb, min(t_next, horizon))
        t_next += stretch
    avoided = int(pb.frozen.sum())
    unresolved = int((pb.alive & ~pb.frozen).sum())
    return count, avoided, unresolved, bound


def estimate_avoidance(model: ModelParams, interval: Interval, start: float,
                       config: PathConfig, *, bound_target: float = 1e-7) -> AvoidanceEstimate:
    """P(T = infinity) for a transient (drift > 0) model.

    A path counts as avoiding once it climbs ``exit_level`` above the
    interval, where the certified return probability exp(-g * distance) is
    below ``bound_target``; the summed per-path bounds are reported.  The
    horizon cap is sized so that drift dominates a 30-sigma fluctuation.
    """
    if not model.drift > 0.0:
        raise ValueError("avoidance estimation requires drift > 0 (transient case)")
    interval.require_outside(start, "starting point")
    config.require_bridge("estimate_avoidance")
    g = adjustment_coefficient(model)
    exit_level = interval.b + math.log(1.0 / bound_target) / g
    horizon = _avoidance_horizon(model, interval, start)
    parts = _map_blocks(
        _avoidance_block,
        _block_args(model, interval, start, config, (horizon, exit_level, g)))
    n = sum(p[0] for p in parts)
    avoided = sum(p[1] for p in parts)
    unresolved = sum(p[2] for p in parts)
    bound = (sum(p[3] for p in parts) + unresolved) / n
    return AvoidanceEstimate(
        result=_binomial_result(float(avoided), n),
        horizon=horizon,
        exit_level=exit_level,
        return_prob_bound=bound,
        unresolved=unresolved,
    )


def _terminal_block(args):
    model, interval, start, config, bi, count, t = args
    rng = block_stream(config.seed, bi)
    pb = PathBlock.start(model, interval, start, count, rng)
    if config.bridge_correction:
        advance(pb, t)
    else:
        for grid_t in _observation_grid(config.dt, t):
            advance(pb, grid_t, bridge=False)
    return pb.x.copy(), pb.alive.copy()


def terminal_sample(model: ModelParams, interval: Interval, start: float,
                    t: float, config: PathConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact sample of (position, alive) at time t for killed paths.

    With ``config.bridge_correction`` off, a path is killed only when a
    segment endpoint (``config.dt`` grid point or jump time) lies inside the
    interval: the grid-only validation mode.
    """
    interval.require_outside(start, "starting point")
    parts = _map_blocks(_terminal_block, _block_args(model, interval, start, config, (t,)))
    xs = np.concatenate([p[0] for p in parts])
    alive = np.concatenate([p[1] for p in parts])
    return xs, alive
