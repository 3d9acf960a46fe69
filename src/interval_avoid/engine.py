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

Blocks of paths are simulated together with numpy by one kernel,
``advance``.  Each of its loop iterations resolves up to K events for every
live path: K is one plus the expected number of jumps left before the latest
target, capped at MAX_EVENTS and at BLOCK_SIZE // (live paths), so K = 1
while a block is full and grows to MAX_EVENTS in the long tail of a
horizon.  A path stops at death, at its target, at a crossing cap or at an
exit level above the interval.  Every estimator runs its blocks through one
runner, ``_map_blocks``, which starts block bi on the counter-based stream
keyed by (seed, bi) (see _rng).  K depends only on the block's state, so
estimator outputs are bit-identical for a fixed seed regardless of the worker
count; the order in which draws are consumed does depend on K.
"""

from __future__ import annotations

import math
import numbers
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
        for name in ("seed", "n_paths"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer (got {value!r})")
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
    # distances past the boundary on x0's side, clipped at 0: both are
    # positive only for a same-side segment; any other segment gets
    # exponent 0, so probability 1
    above = x0 > b
    d0 = np.maximum(np.where(above, x0 - b, a - x0), 0.0)
    d1 = np.maximum(np.where(above, x1 - b, a - x1), 0.0)
    # far from the interval the product overflows to inf, and exp(-inf) = 0
    # is the exact limit: such a segment cannot touch it
    with np.errstate(over="ignore"):
        return np.exp(d0 * d1 / dt * (-2.0 / (sigma * sigma)))


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

    @classmethod
    def start(cls, model: ModelParams, interval: Interval, start: float, n: int,
              rng: np.random.Generator, *, max_crossings: int = 0) -> "PathBlock":
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
        return pb

    @property
    def n(self) -> int:
        return self.x.shape[0]


MAX_EVENTS = 64     # cap on the events drawn per live path per loop iteration


def _events_per_path(t0: np.ndarray, tt: np.ndarray, lam: float) -> int:
    """K for the m = t0.size live paths at times t0 with targets tt: one event
    plus the expected jumps left to the latest target, capped at MAX_EVENTS
    and at BLOCK_SIZE // m so that an iteration's (m, K) arrays never
    outgrow one block."""
    expected = lam * float(tt.max() - t0.min())
    return max(1, min(MAX_EVENTS, BLOCK_SIZE // t0.size, 1 + int(min(expected, MAX_EVENTS))))


def advance(pb: PathBlock, targets, *, bridge: bool = True, stop_after: int = 0,
            exit_above: Optional[float] = None) -> None:
    """Advance every live path to its target time, death or early stop.

    ``targets`` is a scalar or per-path array of absolute times.  A path
    stops at the first of: death (bridge touch or an endpoint inside the
    interval, or with ``bridge=False`` an endpoint inside only; a jump
    landing inside), its target, its ``stop_after``-th crossing (if > 0) and
    the first event value at or above ``exit_above`` (if given; a path
    already there is frozen on entry).  An early stop sets ``frozen``.  A
    dead path holds its hit time and hit value in ``t`` and ``x``.

    Each loop iteration draws K events for each of its m live paths, with
    K = max(1, min(MAX_EVENTS, BLOCK_SIZE // m, 1 + floor(lam (latest target
    - earliest time)))): K - 1 inter-jump gaps, K normals, K bridge uniforms,
    a Laplace(1/eta) signed jump size for each column that ends in a jump,
    and then one gap for each path whose stopping event is a jump.  Event c of a path ends at its c-th next jump, or at its
    target if that comes first.  Positions come from cumulative sums along
    the row, and each row resolves its events up to its first stopping
    column; the draws past it are discarded, which leaves the law exact.
    K depends only on the block's state, so results are bit-identical
    across worker counts, but the draw order depends on K and therefore on
    how a horizon is split into calls.
    """
    model, interval = pb.model, pb.interval
    a, b = interval.a, interval.b
    sigma, lam, eta, drift = model.sigma, model.lam, model.eta, model.drift
    targets = np.broadcast_to(np.asarray(targets, dtype=float), (pb.n,))
    rng = pb.rng
    if exit_above is not None:
        pb.frozen |= pb.alive & (pb.x >= exit_above)

    idx = np.flatnonzero(pb.alive & ~pb.frozen & (pb.t < targets))
    while idx.size:
        m = idx.size
        t0, x0, tt = pb.t[idx], pb.x[idx], targets[idx][:, None]
        K = _events_per_path(t0, tt, lam)
        # The K > 1 branches below could serve K = 1 too with the same draws,
        # but the fork is kept: without it step_ms is 1.31-1.41x,
        # bulk_paths_per_s 0.74-0.85x and propagate_ms_per_step 1.16-1.43x
        # (bench/micro.py medians, 2 CPUs, two separate sets of paired runs).
        # jump clock: column c's next jump time, and the event time it ends at
        tj = pb.next_jump[idx][:, None]
        if K > 1:
            tj = tj + np.cumsum(np.concatenate(
                [np.zeros((m, 1)), rng.exponential(1.0 / lam, (m, K - 1))], axis=1), axis=1)
        jump = tj <= tt
        t1 = np.minimum(tj, tt)
        dt = np.diff(t1, axis=1, prepend=t0[:, None]) if K > 1 else t1 - t0[:, None]
        np.maximum(dt, 1e-300, out=dt)

        steps = drift * dt + sigma * np.sqrt(dt) * rng.standard_normal((m, K))
        size = np.zeros((m, K))
        size[jump] = rng.laplace(0.0, 1.0 / eta, np.count_nonzero(jump))
        post = steps + size                      # value after each event
        if K > 1:
            np.cumsum(post, axis=1, out=post)
        post += x0[:, None]
        pre = post - size                        # value just before it
        seg0 = (np.concatenate([x0[:, None], post[:, :-1]], axis=1) if K > 1
                else x0[:, None])                # segment start values

        if bridge:
            killed = rng.random((m, K)) < bridge_cross_prob(seg0, pre, dt, interval, sigma)
        else:
            killed = interval.contains(pre)
        # a live pre-jump value is outside [a, b]; a non-jump column has
        # post == pre and never crosses
        crossed = np.where(pre > b, post <= b, post >= a)
        landed = interval.contains(post)
        n_cross = pb.n_cross[idx][:, None] + (np.cumsum(crossed, axis=1) if K > 1
                                              else crossed)
        early = []                               # crossing cap, exit level
        if stop_after > 0:
            early.append(jump & (n_cross >= stop_after))
        if exit_above is not None:
            early.append(post >= exit_above)

        # each row's first stopping column c (the last one if none stops)
        if K > 1:
            stop = killed | landed | (tj >= tt)
            for mask in early:
                stop |= mask
            stop[:, -1] = True
            col = stop.argmax(axis=1)
            flat = np.arange(m) * K + col

            def at_stop(v):
                return v.ravel()[flat]
        else:
            col = np.zeros(m, dtype=np.intp)

            def at_stop(v):
                return v[:, 0]

        kill_c = at_stop(killed)
        dead = kill_c | at_stop(landed)
        t_c = at_stop(t1)
        x_c = at_stop(post)
        n_c = at_stop(n_cross) - (kill_c & at_stop(crossed))
        pb.t[idx] = t_c
        pb.n_cross[idx] = n_c

        if pb.cross_pos is not None:
            # crossings up to the stopping column, unless a kill preempts it
            r, c = np.nonzero(crossed)
            keep = (c < col[r]) | ((c == col[r]) & ~kill_c[r])
            r, c = r[keep], c[keep]
            slot = n_cross[r, c] - 1
            rec = slot < pb.cross_pos.shape[1]
            pb.cross_pos[idx[r[rec]], slot[rec]] = post[r[rec], c[rec]]

        if dead.any():
            di = np.flatnonzero(dead)
            bridge_hit = kill_c[di]
            hv = np.where(bridge_hit, at_stop(pre)[di], x_c[di])
            # continuous entry touches the near boundary first; only an
            # endpoint landing inside keeps its own value
            edge = bridge_hit & ~interval.contains(hv)
            hv[edge] = np.where(at_stop(seg0)[di][edge] > b, b, a)
            x_c[di] = hv
            gone = idx[di]
            pb.alive[gone] = False
            pb.hit_time[gone] = t_c[di]
            pb.hit_value[gone] = hv
            pb.k_dagger[gone[~bridge_hit]] = n_c[di[~bridge_hit]]
        pb.x[idx] = x_c

        # the jump pending after the stopping event; a path that jumped there
        # (landing inside included) draws its next gap
        tj_c = at_stop(tj)
        ji = np.flatnonzero(at_stop(jump) & ~kill_c)
        tj_c[ji] += rng.exponential(1.0 / lam, ji.size)
        pb.next_jump[idx] = tj_c

        for mask in early:
            pb.frozen[idx[at_stop(mask) & ~dead]] = True

        idx = idx[pb.alive[idx] & ~pb.frozen[idx] & (t_c < tt[:, 0])]


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
            values.append(pb.x[0])
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

def _run_block(task):
    fn, model, interval, start, seed, bi, count, extra = task
    return fn(PathBlock.start(model, interval, start, count, block_stream(seed, bi)), *extra)


def _map_blocks(fn, model, interval, start, config, *extra):
    """[fn(pb, *extra) for each block pb of ``config.n_paths`` paths], in block order.

    Block bi holds up to BLOCK_SIZE paths started at ``start`` on the stream
    keyed by (config.seed, bi), so the results do not depend on how many
    workers run the blocks.
    """
    tasks = [(fn, model, interval, start, config.seed, bi, count, extra)
             for bi, _offset, count in iter_blocks(config.n_paths, BLOCK_SIZE)]
    workers = worker_count()
    if workers <= 1 or len(tasks) <= 1:
        return [_run_block(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_run_block, tasks, chunksize=1))


def _concat_blocks(parts) -> tuple[np.ndarray, np.ndarray]:
    """The (x, alive) arrays of the blocks, joined in block order."""
    xs, alive = zip(*parts)
    return np.concatenate(xs), np.concatenate(alive)


@dataclass(frozen=True)
class SurvivalEstimate:
    total: EstimatorResult
    above: EstimatorResult
    below: EstimatorResult


def _side_split(interval: Interval, xs: np.ndarray, alive: np.ndarray) -> SurvivalEstimate:
    """Fractions of paths alive in total, above and below the interval."""
    n = xs.size
    return SurvivalEstimate(
        total=_binomial_result(int(alive.sum()), n),
        above=_binomial_result(int((alive & (xs > interval.b)).sum()), n),
        below=_binomial_result(int((alive & (xs < interval.a)).sum()), n),
    )


def estimate_survival(model: ModelParams, interval: Interval, start: float,
                      t: float, config: PathConfig) -> SurvivalEstimate:
    """P(t < T), split by the side of the interval occupied at time t."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite (got {t})")
    return _side_split(interval, *terminal_sample(model, interval, start, t, config))


def _clock_block(pb, q):
    advance(pb, pb.rng.exponential(1.0 / q, pb.n))
    return pb.x, pb.alive


def estimate_clock_event(model: ModelParams, interval: Interval, start: float,
                         q: float, config: PathConfig) -> SurvivalEstimate:
    """P(e_q < T) for an independent Exp(q) clock, split by side at the clock."""
    interval.require_outside(start, "starting point")
    config.require_bridge("estimate_clock_event")
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be positive and finite (got {q})")
    parts = _map_blocks(_clock_block, model, interval, start, config, q)
    return _side_split(interval, *_concat_blocks(parts))


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


def _crossing_block(pb, k, horizon):
    pb.cross_pos = np.full((pb.n, k), np.nan)     # crossings 1..k of each path
    interval = pb.interval
    advance(pb, horizon, stop_after=k)
    outside = ~interval.contains(np.nan_to_num(pb.cross_pos, nan=interval.midpoint))
    recorded = ~np.isnan(pb.cross_pos) & outside
    positions = [pb.cross_pos[recorded[:, j], j] for j in range(k)]
    censored = pb.alive & ~pb.frozen
    # residual potential of the censored paths short of crossing j:
    # gamma^(j - crossings so far) each
    gam = gamma_bound(pb.model, interval)
    done = pb.n_cross[censored]
    bias = [float(np.sum(gam ** (j - done[done < j]))) for j in range(1, k + 1)]
    return positions, int(censored.sum()), bias


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
    parts = _map_blocks(_crossing_block, model, interval, start, config, k, config.horizon)
    n = config.n_paths
    positions = tuple(np.concatenate([p[0][j] for p in parts]) for j in range(k))
    censored = sum(p[1] for p in parts)
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
        censor_bias_bound=tuple(sum(p[2][j] for p in parts) / n for j in range(k)),
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


def _avoidance_block(pb, horizon, exit_level, g):
    advance(pb, horizon, exit_above=exit_level)
    # each escaped path is frozen at its first event at or above the exit level
    bound = float(np.exp(-g * (pb.x[pb.frozen] - pb.interval.b)).sum())
    avoided = int(pb.frozen.sum())
    unresolved = int((pb.alive & ~pb.frozen).sum())
    return avoided, unresolved, bound


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
    parts = _map_blocks(_avoidance_block, model, interval, start, config,
                        horizon, exit_level, g)
    n = config.n_paths
    avoided = sum(p[0] for p in parts)
    unresolved = sum(p[1] for p in parts)
    bound = (sum(p[2] for p in parts) + unresolved) / n
    return AvoidanceEstimate(
        result=_binomial_result(float(avoided), n),
        horizon=horizon,
        exit_level=exit_level,
        return_prob_bound=bound,
        unresolved=unresolved,
    )


def _terminal_block(pb, times, bridge):
    for t in times:
        advance(pb, t, bridge=bridge)
    return pb.x, pb.alive


def terminal_sample(model: ModelParams, interval: Interval, start: float,
                    t: float, config: PathConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact sample of (position, alive) at time t for killed paths.

    With ``config.bridge_correction`` off, a path is killed only when a
    segment endpoint (``config.dt`` grid point or jump time) lies inside the
    interval: the grid-only validation mode.
    """
    interval.require_outside(start, "starting point")
    bridge = config.bridge_correction
    times = [t] if bridge else _observation_grid(config.dt, t)
    return _concat_blocks(_map_blocks(_terminal_block, model, interval, start, config,
                                      times, bridge))
