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
horizon.  A path stops at death, at its target or at a crossing cap.  Every
estimator is a job (``_Job``); ``_map_jobs`` runs the blocks of a list of
jobs as one task list, block bi of a job on the PCG64DXSM stream seeded by
SeedSequence(the job's seed, spawn_key=(bi,)) (see _rng), as
block(model, interval, start, n, rng, *args); a block that calls ``advance``
starts its own ``PathBlock``.  K depends only on the block's state, so
estimator outputs are bit-identical for a fixed seed regardless of the
worker count and of the order in which blocks run; the order in which one
block's draws are consumed does depend on K.

Two estimators do not use ``advance``, because their observables have no
time in it: avoidance (the first post-jump value at or above an exit level
before any entry into [a, b]) and the crossing laws (the landings of the
first k jumps over the interval).  Their walks sample each inter-jump
segment without its duration.  At an Exp(lam) time the infimum of a
Brownian motion with drift and its rise after the infimum are independent
exponentials with rates phi- and phi+, phi+- = (sqrt(drift^2 + 2 lam
sigma^2) -+ drift) / sigma^2 (the Wiener-Hopf factorisation), so four
standard exponentials per path and segment (rise, fall and the two halves
of the Laplace jump) decide the kill, the landing, the crossing and the
exit, at well under half the cost of an ``advance`` event.
``_avoidance_walk`` resolves one segment per live path and iteration;
``_crossing_walk`` resolves up to K, by ``advance``'s rule with the
segments left in place of the expected jumps.  Each walk's time cap is a
cap of ceil(lam * horizon) jump segments.  The walks take start positions
and a stream, not a ``PathBlock``, and return per-path arrays.

Blocks return counts or sums wherever those suffice, and a finish adds
them up in block order: the survival and clock blocks return the numbers
of paths alive in total, above and below the interval, and the avoidance
blocks the counts of their paths' values (reached the roulette level,
killed after it, unresolved in each stage) and summed return bounds.
Per-path arrays come back only where the finish needs the sample: the
crossing landings (for the KS test) and ``terminal_sample``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import BLOCK_SIZE, block_stream, iter_blocks, worker_count
from .closedform import gamma_bound, nu
from .model import Interval, ModelParams, require_number

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

    def __post_init__(self) -> None:
        require_number(self.horizon, "horizon", low=0.0, strict=True)
        require_number(self.dt, "dt", low=0.0, strict=True)
        if self.dt > self.horizon:
            raise ValueError(f"dt = {self.dt} exceeds horizon = {self.horizon}")
        require_number(self.seed, "seed", integer=True, low=0, high=2**64)
        require_number(self.n_paths, "n_paths", integer=True, low=1)


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    stderr: float
    n: int


def _mean_result(total: float, total_sq: float, n: int) -> EstimatorResult:
    """Mean of n per-path values and its standard error, from their sum and
    sum of squares (the sample variance with divisor n - 1)."""
    mean = total / n
    var = (total_sq - n * mean * mean) / (n - 1) if n > 1 else 0.0
    return EstimatorResult(mean=mean, stderr=math.sqrt(max(var, 0.0) / n), n=n)


def _binomial_result(successes: float, n: int) -> EstimatorResult:
    return _mean_result(successes, successes, n)   # sum x^2 = sum x for 0/1


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
    return np.exp(_bridge_exponent(x0, x1, dt, interval, sigma))


def _bridge_exponent(x0, x1, dt, interval: Interval, sigma: float) -> np.ndarray:
    """The log of ``bridge_cross_prob``: -2 d0 d1 / (sigma^2 dt), at most 0."""
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
        return d0 * d1 / dt * (-2.0 / (sigma * sigma))


# Below this exponent exp leaves numpy's fast path (underflow past -745,
# subnormal results past -708).  exp(-700) ~ 1e-304 is still far below
# 2^-53, the smallest positive uniform that Generator.random draws.
_EXP_FLOOR = -700.0


def _bridge_kill(u, x0, x1, dt, interval: Interval, sigma: float) -> np.ndarray:
    """``u < bridge_cross_prob(x0, x1, dt, interval, sigma)``, elementwise.

    Exact for uniforms on Generator.random's grid of multiples of 2^-53:
    a positive u is at least 2^-53 > exp(_EXP_FLOOR), so it is compared with
    exp of the exponent floored there, and only the cells with u == 0 (one
    draw in 2^53) are compared with the unfloored exp.
    """
    e = _bridge_exponent(x0, x1, dt, interval, sigma)
    killed = u < np.exp(np.maximum(e, _EXP_FLOOR))
    zero = u == 0.0
    if zero.any():
        killed[zero] = 0.0 < np.exp(e[zero])
    return killed


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
    frozen: np.ndarray           # stopped early at the crossing cap
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


def _jump_sizes(rng: np.random.Generator, shape, eta: float) -> np.ndarray:
    """Signed jump sizes, Laplace(1/eta) distributed: (E1 - E2) / eta for two
    standard exponentials, which the ziggurat draws faster than one Laplace."""
    size = rng.standard_exponential(shape)
    size -= rng.standard_exponential(shape)
    size /= eta
    return size


def _events_per_path(t0: np.ndarray, tt: np.ndarray, lam: float) -> int:
    """K for the m = t0.size live paths at times t0 with targets tt: one event
    plus the expected jumps left to the latest target, capped at MAX_EVENTS
    and at BLOCK_SIZE // m so that an iteration's (m, K) arrays never
    outgrow one block."""
    expected = lam * float(tt.max() - t0.min())
    return max(1, min(MAX_EVENTS, BLOCK_SIZE // t0.size, 1 + int(min(expected, MAX_EVENTS))))


def advance(pb: PathBlock, targets, *, bridge: bool = True, stop_after: int = 0) -> None:
    """Advance every live path to its target time, death or early stop.

    ``targets`` is a scalar or per-path array of absolute times.  A path
    stops at the first of: death (bridge touch or an endpoint inside the
    interval, or with ``bridge=False`` an endpoint inside only; a jump
    landing inside), its target and its ``stop_after``-th crossing (if > 0).
    A stop at the crossing cap sets ``frozen``.  A dead path holds its hit
    time and hit value in ``t`` and ``x``.

    Each loop iteration draws K events for each of its m live paths, with
    K = max(1, min(MAX_EVENTS, BLOCK_SIZE // m, 1 + floor(lam (latest target
    - earliest time)))): K - 1 inter-jump gaps, K normals, K bridge uniforms,
    a Laplace(1/eta) signed jump size for each column that ends in a jump,
    and then one gap for each path whose stopping event is a jump.  Event c
    of a path ends at its c-th next jump, or at its target if that comes
    first.  Positions come from cumulative sums along the row, and each row
    resolves its events up to its first stopping column; the draws past it
    are discarded, which leaves the law exact.
    K depends only on the block's state, so results are bit-identical
    across worker counts, but the draw order depends on K and therefore on
    how a horizon is split into calls.
    """
    model, interval = pb.model, pb.interval
    a, b = interval.a, interval.b
    sigma, lam, eta, drift = model.sigma, model.lam, model.eta, model.drift
    targets = np.broadcast_to(np.asarray(targets, dtype=float), (pb.n,))
    rng = pb.rng

    idx = np.flatnonzero(pb.alive & ~pb.frozen & (pb.t < targets))
    while idx.size:
        m = idx.size
        t0, x0, tt = pb.t[idx], pb.x[idx], targets[idx][:, None]
        K = _events_per_path(t0, tt, lam)
        # The K > 1 branches below could serve K = 1 too with the same draws,
        # but the fork is kept: without it step_ms is 1.38-1.64x,
        # bulk_paths_per_s 0.61-0.84x and propagate_ms_per_step 1.22-1.48x
        # (bench/micro.py medians, 2 CPUs, three paired runs).
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
        n_jumps = np.count_nonzero(jump)
        if n_jumps == jump.size:                 # every column ends in a jump
            size = _jump_sizes(rng, (m, K), eta)
        else:
            size = np.zeros((m, K))
            size[jump] = _jump_sizes(rng, n_jumps, eta)
        post = steps + size                      # value after each event
        if K > 1:
            np.cumsum(post, axis=1, out=post)
        post += x0[:, None]
        pre = post - size                        # value just before it
        seg0 = (np.concatenate([x0[:, None], post[:, :-1]], axis=1) if K > 1
                else x0[:, None])                # segment start values

        if bridge:
            killed = _bridge_kill(rng.random((m, K)), seg0, pre, dt, interval, sigma)
        else:
            killed = interval.contains(pre)
        # a live pre-jump value is outside [a, b]; a non-jump column has
        # post == pre and never crosses
        crossed = np.where(pre > b, post <= b, post >= a)
        landed = interval.contains(post)
        n_cross = pb.n_cross[idx][:, None] + (np.cumsum(crossed, axis=1) if K > 1
                                              else crossed)
        capped = jump & (n_cross >= stop_after) if stop_after > 0 else None

        # each row's first stopping column c (the last one if none stops)
        if K > 1:
            stop = killed | landed | (tj >= tt)
            if capped is not None:
                stop |= capped
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
            pb.k_dagger[gone[~bridge_hit]] = n_c[di[~bridge_hit]]
        pb.x[idx] = x_c

        # the jump pending after the stopping event; a path that jumped there
        # (landing inside included) draws its next gap
        tj_c = at_stop(tj)
        jumped = at_stop(jump) & ~kill_c
        n_jumped = np.count_nonzero(jumped)
        if n_jumped == m:
            tj_c += rng.exponential(1.0 / lam, m)
        else:
            tj_c[jumped] += rng.exponential(1.0 / lam, n_jumped)
        pb.next_jump[idx] = tj_c

        if capped is not None:
            pb.frozen[idx[at_stop(capped) & ~dead]] = True

        idx = idx[pb.alive[idx] & ~pb.frozen[idx] & (t_c < tt[:, 0])]


# --------------------------------------------------------------------------- #
# Single-path recorder
# --------------------------------------------------------------------------- #

@dataclass
class Trajectory:
    """One recorded path: grid and jump times, values, crossings, hit data.

    ``values`` holds right limits (post-jump at jump marks); a hit ends the
    path at its hit time ``times[-1]`` with its hit value.  ``k_dagger`` is
    set only when the hit happens at a jump crossing the interval.
    """

    times: np.ndarray
    values: np.ndarray
    is_jump: np.ndarray
    hit: bool
    crossings: list
    k_dagger: Optional[int]


def simulate_path(model: ModelParams, interval: Interval, start: float,
                  config: PathConfig, path_index: int = 0, *,
                  bridge: bool = True) -> Trajectory:
    """Record one path of the ``advance`` kernel on the observation grid.

    Each kernel call stops at the next jump or grid time, so every event is
    read back from a one-path block.  Deterministic in (config.seed,
    path_index, start): each path owns the stream keyed by (seed, path_index).
    ``bridge=False`` kills only at segment endpoints inside the interval.
    """
    pb = PathBlock.start(model, interval, start, 1, block_stream(config.seed, path_index))
    times, values, jumps, crossings = [0.0], [float(start)], [False], []
    for grid_t in _observation_grid(config.dt, config.horizon):
        while pb.alive[0] and pb.t[0] < grid_t:
            jump_t, n_cross = pb.next_jump[0], pb.n_cross[0]
            advance(pb, min(jump_t, grid_t), bridge=bridge)
            times.append(pb.t[0])
            values.append(pb.x[0])
            jumps.append(pb.next_jump[0] != jump_t)
            if pb.n_cross[0] > n_cross:
                crossings.append((pb.t[0], pb.x[0]))
    return Trajectory(
        times=np.asarray(times),
        values=np.asarray(values),
        is_jump=np.asarray(jumps, dtype=bool),
        hit=not pb.alive[0],
        crossings=crossings,
        k_dagger=int(pb.k_dagger[0]) if pb.k_dagger[0] >= 0 else None,
    )


# --------------------------------------------------------------------------- #
# Block-parallel estimator plumbing
# --------------------------------------------------------------------------- #

def _run_block(task):
    fn, model, interval, start, seed, bi, count, args = task
    return fn(model, interval, start, count, block_stream(seed, bi), *args)


# One estimate: block(model, interval, start, n, rng, *args) runs on each
# block of n paths started at start, with the block's stream rng, and finish
# turns the list of block results, in block order, into the estimate.
_Job = namedtuple("_Job", "block model interval start config args finish")


def _map_jobs(jobs: list[_Job]) -> list:
    """The finished estimate of each job, in job order.

    Block bi of a job holds up to BLOCK_SIZE paths started at its ``start``
    on the stream keyed by (config.seed, bi), so the results depend neither
    on how many workers run the blocks nor on the order of the jobs.  With
    more than one worker and more than one block, every block of every job
    goes to one process pool, shut down before the call returns, as one task
    list in job order; list the costly jobs first, so that no worker is left
    with a long task at the end.
    """
    tasks, ends = [], []
    for job in jobs:
        tasks += [(job.block, job.model, job.interval, job.start, job.config.seed, bi,
                   count, job.args)
                  for bi, _offset, count in iter_blocks(job.config.n_paths, BLOCK_SIZE)]
        ends.append(len(tasks))
    workers = worker_count()
    if workers <= 1 or len(tasks) <= 1:
        results = [_run_block(task) for task in tasks]
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_run_block, tasks, chunksize=1))
        finally:
            pool.shutdown(cancel_futures=True)
    return [job.finish(results[lo:hi]) for job, lo, hi in zip(jobs, [0, *ends], ends)]


def _concat_blocks(parts) -> tuple[np.ndarray, np.ndarray]:
    """The (x, alive) arrays of the blocks, joined in block order."""
    xs, alive = zip(*parts)
    return np.concatenate(xs), np.concatenate(alive)


def _add_blocks(parts) -> tuple:
    """Field-wise sums of the blocks' result tuples, added in block order."""
    return tuple(sum(field) for field in zip(*parts))


@dataclass(frozen=True)
class SurvivalEstimate:
    total: EstimatorResult
    above: EstimatorResult
    below: EstimatorResult


def _side_counts(interval: Interval, xs: np.ndarray, alive: np.ndarray) -> tuple[int, int, int]:
    """Numbers of paths alive in total, above and below the interval."""
    return (int(np.count_nonzero(alive)), int(np.count_nonzero(alive & (xs > interval.b))),
            int(np.count_nonzero(alive & (xs < interval.a))))


def _side_split(n: int, counts) -> SurvivalEstimate:
    """Fractions of n paths alive in total, above and below the interval,
    from the summed ``_side_counts`` of their blocks."""
    total, above, below = counts
    return SurvivalEstimate(total=_binomial_result(total, n),
                            above=_binomial_result(above, n),
                            below=_binomial_result(below, n))


def _survival_block(model, interval, start, n, rng, times, bridge):
    return _side_counts(interval, *_terminal_block(model, interval, start, n, rng, times, bridge))


def estimate_survival(model: ModelParams, interval: Interval, start: float,
                      t: float, config: PathConfig, *, bridge: bool = True) -> SurvivalEstimate:
    """P(t < T), split by the side occupied at time t; ``bridge`` as in ``terminal_sample``."""
    job = _terminal_job(model, interval, start, t, config, bridge)._replace(
        block=_survival_block, finish=lambda parts: _side_split(config.n_paths, _add_blocks(parts)))
    return _map_jobs([job])[0]


def _clock_block(model, interval, start, n, rng, q):
    pb = PathBlock.start(model, interval, start, n, rng)
    advance(pb, rng.exponential(1.0 / q, n))
    return _side_counts(interval, pb.x, pb.alive)


def _clock_job(model, interval, start, q, config):
    interval.require_outside(start, "starting point")
    require_number(q, "q", low=0.0, strict=True)
    return _Job(_clock_block, model, interval, start, config, (q,),
                lambda parts: _side_split(config.n_paths, _add_blocks(parts)))


def estimate_clock_event(model: ModelParams, interval: Interval, start: float,
                         q: float, config: PathConfig) -> SurvivalEstimate:
    """P(e_q < T) for an independent Exp(q) clock, split by side at the clock."""
    return _map_jobs([_clock_job(model, interval, start, q, config)])[0]


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


MIN_LAW_SAMPLES = 500   # a law with fewer recorded crossings is ``insufficient``


@dataclass(frozen=True)
class CrossingLawEstimate:
    """Laws of crossings j = 1..k from one censored pass.

    The pass censors each path after ceil(lam * horizon) jump segments;
    ``censored_fraction`` is the share of paths still live and short of
    crossing k then.  Every per-crossing field is a length-k tuple indexed
    j - 1.
    """

    n_paths: int
    censored_fraction: float
    positions: tuple[np.ndarray, ...]
    mass: tuple[EstimatorResult, ...]
    ks_distance: tuple[float, ...]
    ks_critical: tuple[float, ...]
    insufficient: tuple[bool, ...]
    censor_bias_bound: tuple[float, ...]


def _wiener_hopf_scales(model: ModelParams) -> tuple[float, float]:
    """1/phi+ and 1/phi-, the mean rise above and fall below its start of a
    Brownian motion with drift run for an Exp(lam) time, with phi+- =
    (sqrt(drift^2 + 2 lam sigma^2) -+ drift) / sigma^2.  Each is computed in
    the form without cancellation for the sign of the drift."""
    root = math.sqrt(model.drift**2 + 2.0 * model.lam * model.sigma**2)
    if model.drift >= 0.0:
        return (root + model.drift) / (2.0 * model.lam), model.sigma**2 / (root + model.drift)
    return model.sigma**2 / (root - model.drift), (root - model.drift) / (2.0 * model.lam)


def _crossing_walk(model: ModelParams, interval: Interval, x: np.ndarray,
                   rng: np.random.Generator, n_segments: int, k: int) -> tuple:
    """Walk paths started at ``x`` from jump to jump, without event times,
    until death, their k-th crossing or ``n_segments`` segments.

    A segment is sampled as in ``_avoidance_walk``: from a start x the path
    falls to x - D/phi-, rises U/phi+ above that and jumps (E1 - E2)/eta.
    Each iteration resolves up to K segments per live path, with K =
    max(1, min(MAX_EVENTS, BLOCK_SIZE // m, segments left)) for its m live
    paths (all of them have used the same number of segments), from one
    (4, m, K) draw of standard exponentials U, D, E1, E2.  Positions are
    cumulative sums along the row.  A segment starting above b kills if its
    infimum is at or below b, one starting below a if its supremum is at or
    above a.  As in ``advance``, a landing at or beyond the near boundary
    is a crossing, and a landing inside [a, b] kills as well; a kill
    preempts its own segment's crossing.  Each row stops at its first kill,
    landing inside or k-th crossing, and the draws past it are discarded.
    Returns the (n, k) landings of crossings 1..k (NaN past a path's last;
    one inside [a, b] is a dead path's last) and the index and position of
    each path still live.
    """
    a, b = interval.a, interval.b
    rise, fall = _wiener_hopf_scales(model)
    landings = np.full((x.size, k), np.nan)
    idx = np.arange(x.size)
    n_cross = np.zeros(x.size, dtype=np.int64)
    left = n_segments
    while idx.size and left > 0:
        m = idx.size
        K = max(1, min(MAX_EVENTS, BLOCK_SIZE // m, left))
        left -= K
        up, down, post, e2 = rng.standard_exponential((4, m, K))
        up *= rise
        down *= fall
        post -= e2
        post /= model.eta
        post += up - down
        np.cumsum(post, axis=1, out=post)
        post += x[:, None]
        seg0 = np.concatenate([x[:, None], post[:, :-1]], axis=1)
        above = seg0 > b
        killed = np.where(above, seg0 - down <= b, seg0 + up >= a)
        crossed = np.where(above, post <= b, post >= a)
        count = n_cross[:, None] + np.cumsum(crossed, axis=1)
        stop = killed | interval.contains(post) | (count >= k)
        stop[:, -1] = True
        col = stop.argmax(axis=1)
        rows = np.arange(m)
        kill_c = killed[rows, col]
        n_c = count[rows, col] - (kill_c & crossed[rows, col])

        # crossings up to the stopping column, unless a kill preempts it
        r, c = np.nonzero(crossed)
        keep = (c < col[r]) | ((c == col[r]) & ~kill_c[r])
        r, c = r[keep], c[keep]
        landings[idx[r], count[r, c] - 1] = post[r, c]

        x_c = post[rows, col]
        go = ~(kill_c | interval.contains(x_c)) & (n_c < k)
        idx, x, n_cross = idx[go], x_c[go], n_c[go]
    return landings, idx, x


def _crossing_block(model, interval, start, n, rng, k, n_segments):
    p, live, _x = _crossing_walk(model, interval, np.full(n, float(start)), rng, n_segments, k)
    positions = [p[(p[:, j] < interval.a) | (p[:, j] > interval.b), j] for j in range(k)]
    # residual potential of the live (censored) paths short of crossing j:
    # gamma^(j - crossings so far) each
    gam = gamma_bound(model, interval)
    done = np.count_nonzero(~np.isnan(p[live]), axis=1)
    bias = [float(np.sum(gam ** (j - done[done < j]))) for j in range(1, k + 1)]
    return positions, live.size, bias


def empirical_crossing_law(model: ModelParams, interval: Interval, start: float,
                           k: int, config: PathConfig) -> CrossingLawEstimate:
    """Empirical laws of the crossing landing positions j = 1..k, against nu_j.

    One pass walks each path from jump to jump (``_crossing_walk``), stops
    it at its k-th crossing and censors it after ceil(lam *
    ``config.horizon``) jump segments (hitting times have infinite mean, so
    some cap is unavoidable).  Crossing j's mass therefore undershoots by at
    most
    ``censor_bias_bound[j - 1]``: every censored path short of crossing j
    adds gamma^(j - crossings so far), divided by the path count.  A path
    stopped at crossing k, or already past crossing j, adds nothing.  The
    conditional shape past the far boundary is unaffected by censoring.
    """
    require_number(k, "k", integer=True, low=1)
    interval.require_outside(start, "starting point")
    laws = [nu(model, interval, start, j) for j in range(1, k + 1)]
    parts = _map_jobs([_Job(_crossing_block, model, interval, start, config,
                            (k, math.ceil(model.lam * config.horizon)), list)])[0]
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
        insufficient=tuple(m < MIN_LAW_SAMPLES for m in sizes),
        censor_bias_bound=tuple(sum(p[2][j] for p in parts) / n for j in range(k)),
    )


@dataclass(frozen=True)
class AvoidanceEstimate:
    """P(T = infinity) and its certificate.

    ``result`` is the mean of the per-path values Y of ``estimate_avoidance``
    over ``result.n`` paths, with the standard error of that mean.
    ``horizon`` is the time cap H; each of the walk's two stages stops after
    ceil(lam * H) jump segments, and paths still live then are
    ``unresolved`` (both stages counted).  ``return_prob_bound`` bounds the
    bias of the mean: divided by the path count, it sums 1 for each path
    unresolved in stage 1, R for each path unresolved in stage 2 and
    R exp(-g (x - b)) for each path that escaped in stage 2 with exit
    landing x, R = 8 being the weight of a path kept by the roulette.
    """

    result: EstimatorResult
    horizon: float
    exit_level: float
    return_prob_bound: float
    unresolved: int


def adjustment_coefficient(model: ModelParams) -> float:
    """Root g in (0, eta) of psi(g) = 0, i.e. (sigma^2/2) g + lam g/(eta^2 - g^2) = drift.

    exp(-g xi_t) is then a unit-mean martingale, so the probability that an
    upward-drifting path ever falls by D is at most exp(-g D).  Multiplying
    -psi(-theta)/theta by eta^2 - theta^2 leaves the cubic
    (drift + sigma^2 theta/2)(eta^2 - theta^2) + lam theta, whose real roots
    are -r2 < -eta < -g < 0 < eta < rho (Kou & Wang 2003).  Its two outer
    roots, polished by one Newton step, give g through the product of the
    roots, r2 g rho = 2 drift eta^2 / sigma^2, which keeps a tiny g accurate.

    The roots need no eigenvalue solver: -r2 is the smallest root of the
    trigonometric form of the monic cubic x^3 + B x^2 + C x + D, and -g and
    rho are the roots of the deflated quadratic x^2 + p x + q with
    q = -D/(-r2) and p = (q - C)/(-r2) (equal to B - r2, which cancels when
    r2 is large), taken by the quadratic formula without cancellation.
    """
    if not model.drift > 0.0:
        raise ValueError("adjustment coefficient requires positive drift")
    s2 = 0.5 * model.sigma**2
    cubic = [-s2, -model.drift, s2 * model.eta**2 + model.lam, model.drift * model.eta**2]
    B, C, D = (c / cubic[0] for c in cubic[1:])
    # depressed cubic t^3 + P t + Q in t = x + B/3; P < 0 with three real roots
    P = C - B * B / 3.0
    Q = (2.0 * B * B - 9.0 * C) * B / 27.0 + D
    r = math.sqrt(-P / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 1.5 * Q / (P * r))))
    x1 = 2.0 * r * math.cos((phi + 2.0 * math.pi) / 3.0) - B / 3.0
    q = -D / x1
    p = (q - C) / x1
    t = -0.5 * (p + math.copysign(math.sqrt(p * p - 4.0 * q), p))
    roots = np.array(sorted([x1, t, q / t]))
    roots -= np.polyval(cubic, roots) / np.polyval(np.polyder(cubic), roots)
    return float(model.drift * model.eta**2 / (s2 * -roots[0] * roots[2]))


def _avoidance_horizon(model: ModelParams, interval: Interval, start: float) -> float:
    # drift * H >= distance + 30 sqrt(variance_rate * H), solved for H
    dist = max(interval.a - start, start - interval.b, interval.width)
    v = model.variance_rate
    s = (30.0 * math.sqrt(v) + math.sqrt(900.0 * v + 4.0 * model.drift * dist)) / (2.0 * model.drift)
    return s * s


def _avoidance_walk(model: ModelParams, interval: Interval, x: np.ndarray,
                    rng: np.random.Generator, n_segments: int, exit_level: float) -> tuple:
    """Walk paths started at ``x`` from jump to jump, without event times,
    until death, the exit level or ``n_segments`` segments.

    A segment is the Brownian motion with drift run for an Exp(lam) time,
    then a jump.  At an exponential time the infimum of that motion and its
    rise after the infimum are independent, Exp(phi-) and Exp(phi+) below
    and above the start, with phi+- = (sqrt(drift^2 + 2 lam sigma^2) -+
    drift) / sigma^2 (Wiener-Hopf factorisation; Kyprianou, Fluctuations of
    Levy Processes, 2nd ed., section 6.5).  So each iteration draws one
    (4, m) array of standard exponentials U, D, E1, E2 for its m live
    paths.  With lo = x - D/phi-, a path above b dies if lo <= b, and a path
    below a dies if x + U/phi+ >= a (its supremum).  Otherwise it moves to
    post = lo + U/phi+ + (E1 - E2)/eta, dies if post lies in [a, b] and
    escapes if post >= ``exit_level``.  The live paths are compacted after
    every iteration.  Returns each path's exit landing, its first post-jump
    value at or above the exit level (NaN if it did not escape), and the
    index and position of each path still live after ``n_segments``.
    """
    a, b = interval.a, interval.b
    rise, fall = _wiener_hopf_scales(model)
    exits = np.full(x.size, np.nan)
    idx = np.arange(x.size)
    for _ in range(n_segments):
        if not idx.size:
            break
        up, down, post, e2 = rng.standard_exponential((4, idx.size))
        up *= rise
        down *= fall
        lo = x - down
        # a live x lies outside [a, b]: above b, x + up >= a holds; below a,
        # lo <= b holds; so each side's test reduces to one of the two
        dead = (lo <= b) & (x + up >= a)
        post -= e2
        post /= model.eta
        post += lo + up
        dead |= (post >= a) & (post <= b)
        out = post >= exit_level
        stop = dead | out
        if stop.any():
            out &= ~dead
            exits[idx[out]] = post[out]
            keep = ~stop
            idx, post = idx[keep], post[keep]
        x = post
    return exits, idx, x


_BOUND_TARGET = 1e-7      # certified return probability at the avoidance exit level
_ROULETTE_TARGET = 1e-3   # certified return probability at the roulette level
_ROULETTE_WEIGHT = 8      # a path at the roulette level goes on with probability 1/8


def _avoidance_block(model, interval, start, n, rng, n_segments, roulette_level,
                     exit_level, g):
    """Counts of the per-path values Y of ``estimate_avoidance`` for n paths:
    paths that reached the roulette level, paths kept there and killed later,
    unresolved paths of stage 1 and of stage 2, and the summed return bounds
    of the paths kept there that escaped, times R.  With the roulette level
    at or above the exit level, stage 1 walks to the exit level, nothing is
    kept and each escaped path's bound is summed with weight 1."""
    level = min(roulette_level, exit_level)
    exits, live, _x = _avoidance_walk(model, interval, np.full(n, float(start)), rng,
                                      n_segments, level)
    reached = exits[~np.isnan(exits)]
    if level == exit_level:
        return reached.size, 0, live.size, 0, float(np.exp(-g * (reached - interval.b)).sum())
    kept = reached[rng.random(reached.size) < 1.0 / _ROULETTE_WEIGHT]
    exits, live_kept, _x = _avoidance_walk(model, interval, kept, rng, n_segments, exit_level)
    escaped = exits[~np.isnan(exits)]
    bound = _ROULETTE_WEIGHT * float(np.exp(-g * (escaped - interval.b)).sum())
    return (reached.size, kept.size - escaped.size - live_kept.size, live.size,
            live_kept.size, bound)


def _avoidance_job(model, interval, start, config):
    if not model.drift > 0.0:
        raise ValueError("avoidance estimation requires drift > 0 (transient case)")
    interval.require_outside(start, "starting point")
    g = adjustment_coefficient(model)
    roulette_level = interval.b + math.log(1.0 / _ROULETTE_TARGET) / g
    exit_level = interval.b + math.log(1.0 / _BOUND_TARGET) / g
    horizon = _avoidance_horizon(model, interval, start)

    def finish(parts):
        n, w = config.n_paths, _ROULETTE_WEIGHT
        reached, killed, unresolved, unresolved_kept, bound = _add_blocks(parts)
        # Y = 1 for each path that reached the roulette level, less w for
        # each one kept there and killed (Y = 1 - w) and 1 for each one kept
        # there and unresolved (Y = 0); Y^2 = 1 + w^2 - 2w for a killed one
        return AvoidanceEstimate(
            result=_mean_result(reached - w * killed - unresolved_kept,
                                reached - unresolved_kept + (w * w - 2 * w) * killed, n),
            horizon=horizon,
            exit_level=exit_level,
            return_prob_bound=(bound + unresolved + w * unresolved_kept) / n,
            unresolved=unresolved + unresolved_kept,
        )

    return _Job(_avoidance_block, model, interval, start, config,
                (math.ceil(model.lam * horizon), roulette_level, exit_level, g), finish)


def estimate_avoidance(model: ModelParams, interval: Interval, start: float,
                       config: PathConfig) -> AvoidanceEstimate:
    """P(T = infinity) for a transient (drift > 0) model.

    A path counts as avoiding once a jump lands it at or above
    ``exit_level``, where the certified return probability exp(-g *
    distance) is below ``_BOUND_TARGET`` = 1e-7.  Paths are walked from jump
    to jump without event times (``_avoidance_walk``) in two stages, with
    Russian roulette between them.  Stage 1 walks every path to its first
    landing at or above the roulette level b + ln(1/beta)/g, beta =
    ``_ROULETTE_TARGET`` = 1e-3, where the certified return probability is
    below beta.  Each path that reached it is kept with probability 1/R,
    R = ``_ROULETTE_WEIGHT`` = 8, from the block's stream; stage 2 walks the
    kept paths on from their landings to the exit level.  A path's value Y
    is 1 if it reached the roulette level and was not kept, 1 if it was
    kept and escaped, 1 - R if it was kept and killed, and 0 otherwise
    (killed or unresolved before the roulette level, or kept and
    unresolved), so E[Y] = P(T = infinity) up to the bias that
    ``return_prob_bound`` bounds; the mean and standard error come from the
    sums of Y and Y^2.  Each stage walks at most ceil(lam * horizon) jump
    segments, with the horizon sized so that drift dominates a 30-sigma
    fluctuation, so a kept path walks at most twice that.
    """
    return _map_jobs([_avoidance_job(model, interval, start, config)])[0]


def _terminal_block(model, interval, start, n, rng, times, bridge):
    pb = PathBlock.start(model, interval, start, n, rng)
    for t in times:
        advance(pb, t, bridge=bridge)
    return pb.x, pb.alive


def _terminal_job(model, interval, start, t, config, bridge=True):
    require_number(t, "t", low=0.0)
    interval.require_outside(start, "starting point")
    times = [t] if bridge else _observation_grid(config.dt, t)
    return _Job(_terminal_block, model, interval, start, config, (times, bridge),
                _concat_blocks)


def terminal_sample(model: ModelParams, interval: Interval, start: float,
                    t: float, config: PathConfig, *,
                    bridge: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Exact sample of (position, alive) at time t for killed paths.

    With ``bridge=False``, a path is killed only when a segment endpoint
    (``config.dt`` grid point or jump time) lies inside the interval: the
    grid-only validation mode.
    """
    return _map_jobs([_terminal_job(model, interval, start, t, config, bridge)])[0]
