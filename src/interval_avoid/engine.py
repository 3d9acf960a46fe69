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
horizon.  Each row of an iteration stops at its first kill, crossing or
target, so a path takes at most one crossing per iteration; a path that
reaches the crossing cap is frozen there.  Every
estimator is a job (``_Job``): a block function, a start, a seed, a path
count, the block's args and a finish; ``_map_jobs`` runs the blocks of a
list of jobs as one task list, block bi of a job on the PCG64DXSM stream
seeded by SeedSequence(the job's seed, spawn_key=(bi,)) (see _rng), as
block(model, interval, start, count, rng, *args); a block that calls
``advance`` starts its own ``PathBlock``.  K depends only on the block's
state, so estimator outputs are bit-identical for a fixed seed regardless
of the worker count and of the order in which blocks run; the order in
which one block's draws are consumed does depend on K.

Two estimators do not use ``advance``, because their observables have no
time in it: avoidance (whether a path is ever killed) and the crossing
laws (the landings of the first k jumps over the interval).  Their walks
sample each inter-jump segment without its duration.  At an Exp(lam) time
the infimum of a Brownian motion with drift and its rise after the infimum
are independent exponentials with rates phi- and phi+, phi+- =
(sqrt(drift^2 + 2 lam sigma^2) -+ drift) / sigma^2 (the Wiener-Hopf
factorisation), so four standard exponentials per path and segment (rise,
fall and the two halves of the Laplace jump) decide the kill, the landing
and the crossing, at well under half the cost of an ``advance`` event.
Both walks take their segments from one sampler, ``_walk_segments``,
which resolves up to K per live path and iteration, by ``advance``'s rule
(``_columns``) with the segments left in place of the expected jumps, under
a segment law given per row, and stops each row at its first kill or
crossing with ``advance``'s row sums (``_along_rows``) and stop search
(``_first_stop``); each walk adds only its own record logic.  The
avoidance walk runs the segments that start above b under the
exponentially tilted law (Siegmund's change of measure), so that every
path is killed and scores its likelihood ratio.  The crossing walk's time
cap is a cap of ceil(lam * horizon) jump segments per path, the avoidance
walk's a fixed segment cap.  The crossing masses are scored, not counted:
each segment adds the chance, given its start, that it makes the crossing
past the far boundary.  A crossing path censored at the cap scores its
mean future from the closed form instead (the strong Markov property at
its last jump), so the crossing masses carry no censoring bias.  Each
segment also adds its kill indicator less its kill chance to one control
of mean 0 and, if its Brownian part does not kill, its weighted landing
displacement away from the interval less its mean to a second; each mass
is the regression estimate on both.  The walks take start positions and a
stream, not a ``PathBlock``, and return per-path arrays.

Blocks return counts or sums wherever those suffice, and a finish adds
them up in block order: the survival block returns the numbers of paths
alive in total, above and below the interval, and the clock block those
numbers at each of its clocks: one Exp(1) time E per path rings the clock
at rate q at E/q, and the block advances to E/q in decreasing q, which is
exact because a path stopped at a clock keeps its pending jump.  The
avoidance blocks return the sums of their paths' scores and squared scores
and the count of unresolved paths, and the crossing blocks the sums of
their paths' crossing scores, censored paths' credit included, and
controls, of their products and of the credit.
Per-path arrays come back only where the finish needs the sample: the
crossing landings (for the KS test), ``drift_probability``'s replicate
batches, the occupation rows (both in ``particles``) and
``terminal_sample``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import BLOCK_SIZE, block_stream, iter_blocks, worker_count
from .closedform import _jump_over_mass, crossing_factor, nu
from .model import Interval, ModelParams, _drift_roots, require_number

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


# a second control whose squared correlation with the first is this close to
# 1 is collinear with it within rounding, and is dropped
_COLLINEAR = 1e-9


def _controlled_mean(sw: float, sww: float, sc, scc, swc, n: int
                     ) -> tuple[EstimatorResult, np.ndarray]:
    """Mean of n per-path values w with q <= 2 controls C of mean 0, from the
    sums of w, w^2, the controls (``sc``), their products (the (q, q)
    ``scc``) and their products with w (``swc``), scalars where q = 1:
    (sum w - beta . sum C)/n, beta the least-squares coefficients of w on
    the controls, with the regression residual's se (divisor n - 1 - the
    controls fitted), and beta.  A control with no spread (as where no path
    reached a crossing stage) is dropped, so is the second where it is
    collinear with the first within rounding (as where one path alone
    carries both), and so are those past n - 2, which leaves the residual a
    degree of freedom; a dropped control has beta 0, and with none left the
    result is the plain mean and its se.  The fit is solved in closed form,
    so that it neither raises nor warns where the controls are singular."""
    sc, swc, scc = np.atleast_1d(sc), np.atleast_1d(swc), np.atleast_2d(scc)
    q = sc.size
    s_cc = [[scc[i, j] - sc[i] * sc[j] / n for j in range(q)] for i in range(q)]
    s_wc = [swc[i] - sw * sc[i] / n for i in range(q)]
    fit = [i for i in range(q) if s_cc[i][i] > 0.0][:max(n - 2, 0)]
    beta = np.zeros(q)
    if len(fit) == 2:
        det = s_cc[0][0] * s_cc[1][1] - s_cc[0][1] * s_cc[0][1]
        if det > _COLLINEAR * s_cc[0][0] * s_cc[1][1]:
            beta[0] = (s_cc[1][1] * s_wc[0] - s_cc[0][1] * s_wc[1]) / det
            beta[1] = (s_cc[0][0] * s_wc[1] - s_cc[0][1] * s_wc[0]) / det
        else:
            fit = fit[:1]
    if len(fit) == 1:
        beta[fit[0]] = s_wc[fit[0]] / s_cc[fit[0]][fit[0]]
    if not fit:
        return _mean_result(sw, sww, n), beta
    rss = sww - sw * sw / n - sum(beta[i] * s_wc[i] for i in fit)
    se = math.sqrt(max(rss, 0.0) / ((n - 1 - len(fit)) * n))
    return EstimatorResult(float((sw - sum(beta[i] * sc[i] for i in fit)) / n), float(se),
                           n), beta


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


_SHORT_ROWS = 16    # rows up to this long are summed column by column


def _row_cumsum(v: np.ndarray) -> np.ndarray:
    """Running sums along the rows of the float (m, K) array ``v``, in place,
    as ``np.cumsum(v, axis=1)``.  Rows of up to _SHORT_ROWS cells are added
    column by column, in cumsum's left-to-right order, so the sums are bit
    for bit the same: at m K = 8192 cumsum took 43 us at K = 2 and 23 us at
    K = 16, the column adds 2.5 us and 13 us; they break even near K = 32
    (timeit, 2 CPUs)."""
    K = v.shape[1]
    if K > _SHORT_ROWS:
        return np.cumsum(v, axis=1, out=v)
    for c in range(1, K):
        v[:, c] += v[:, c - 1]
    return v


def _columns(m: int, want: int) -> int:
    """K, the events or segments drawn per live path in one loop iteration
    of m live paths: ``want`` capped at MAX_EVENTS and at BLOCK_SIZE // m, so
    that an iteration's (m, K) arrays never outgrow one block, and at least 1."""
    return max(1, min(MAX_EVENTS, BLOCK_SIZE // m, want))


def _along_rows(x: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions after each of the (m, K) ``steps`` from the m starts
    ``x`` (the running sums along each row plus x, in place of ``steps``) and
    each step's start (x[:, None] itself when K = 1)."""
    _row_cumsum(steps)                  # no work at K = 1
    steps += x[:, None]
    # K = 1, the common case while a block is full, skips the shifted copy
    # (without it and the sums transient5 took 2.9% longer at 1 worker, 17
    # of 20 pairs; 2 CPUs)
    if steps.shape[1] == 1:
        return steps, x[:, None]
    return steps, np.concatenate([x[:, None], steps[:, :-1]], axis=1)


def _first_stop(stop: np.ndarray) -> tuple:
    """Each row's first stopping column of the (m, K) mask ``stop`` (its last
    column where none stops; the mask is overwritten) and a reader that
    takes an (m, K) array's values at those columns."""
    m, K = stop.shape
    # K = 1 skips the search (without it transient5 took 11.9% longer at 1
    # and 2 workers, 39 of 40 pairs; 2 CPUs)
    if K == 1:
        return np.zeros(m, dtype=np.intp), lambda v: v[:, 0]
    stop[:, -1] = True
    col = stop.argmax(axis=1)
    flat = np.arange(m) * K + col
    return col, lambda v: v.ravel()[flat]


def advance(pb: PathBlock, targets, *, stop_after: int = 0) -> None:
    """Advance every live path to its target time, death or early stop.

    ``targets`` is a scalar or per-path array of absolute times.  A path
    stops at the first of: death (a bridge touch or an endpoint inside the
    interval, or a jump landing inside), its target and, if ``stop_after`` >
    0, its ``stop_after``-th crossing, which sets ``frozen``.  A dead path
    holds in ``t`` the end time of the event that killed it: the hit time of
    a jump landing inside [a, b], but the segment's end after a Brownian
    kill, whose entry time is never sampled.  Its ``x`` is its entry value
    xi_T: the landing of such a jump, or after a Brownian kill the boundary
    it entered through (b from above, a from below).

    Each loop iteration draws K events for each of its m live paths, with
    K = max(1, min(MAX_EVENTS, BLOCK_SIZE // m, 1 + floor(lam (latest target
    - earliest time)))): K - 1 inter-jump gaps, K normals, K bridge uniforms,
    a Laplace(1/eta) signed jump size for each column that ends in a jump,
    and then one gap for each path whose stopping event is a jump.  Event c
    of a path ends at its c-th next jump, or at its target if that comes
    first.  Positions come from cumulative sums along the row, and each row
    stops at its first kill, landing inside, crossing or target (at its last
    column if it has none), as the walks' rows do, so a row takes at most
    one crossing per iteration; the draws past the stop are discarded, which
    leaves the law exact (the strong Markov property at jump times).
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
        K = _columns(m, 1 + int(min(lam * float(tt.max() - t0.min()), MAX_EVENTS)))
        # The K > 1 branches below could serve K = 1 too with the same draws,
        # but the fork is kept: without it step_ms is 1.38-1.64x,
        # bulk_paths_per_s 0.61-0.84x and propagate_ms_per_step 1.22-1.48x
        # (bench/micro.py medians, 2 CPUs, three paired runs), and verify
        # harmonicity and longtime take 1.21x and 1.27x (20 of 20 pairs slower).
        # jump clock: column c's next jump time, and the event time it ends at
        tj = pb.next_jump[idx][:, None]
        if K > 1:
            tj = tj + _row_cumsum(np.concatenate(
                [np.zeros((m, 1)), rng.exponential(1.0 / lam, (m, K - 1))], axis=1))
        jump = tj <= tt
        t1 = np.minimum(tj, tt)
        dt = np.diff(t1, axis=1, prepend=t0[:, None]) if K > 1 else t1 - t0[:, None]
        np.maximum(dt, 1e-300, out=dt)

        steps = drift * dt + sigma * np.sqrt(dt) * rng.standard_normal((m, K))
        n_jumps = np.count_nonzero(jump)
        # without this fork drift_probability (262144 particles) took 2.4% longer, 15 of 20 pairs
        if n_jumps == jump.size:                 # every column ends in a jump
            size = _jump_sizes(rng, (m, K), eta)
        else:
            size = np.zeros((m, K))
            size[jump] = _jump_sizes(rng, n_jumps, eta)
        post, seg0 = _along_rows(x0, steps + size)   # the value after each event
        pre = post - size                        # value just before it

        killed = _bridge_kill(rng.random((m, K)), seg0, pre, dt, interval, sigma)
        # a live pre-jump value is outside [a, b]; a non-jump column has
        # post == pre and never crosses
        crossed = np.where(pre > b, post <= b, post >= a)
        landed = interval.contains(post)
        _, at_stop = _first_stop(killed | landed | crossed | (tj >= tt))

        kill_c = at_stop(killed)
        dead = kill_c | at_stop(landed)
        cross_c = at_stop(crossed) & ~kill_c     # a kill preempts its column's crossing
        t_c = at_stop(t1)
        x_c = at_stop(post)
        n_c = pb.n_cross[idx] + cross_c
        pb.t[idx] = t_c
        pb.n_cross[idx] = n_c

        if pb.cross_pos is not None:
            rec = np.flatnonzero(cross_c & (n_c <= pb.cross_pos.shape[1]))
            pb.cross_pos[idx[rec], n_c[rec] - 1] = x_c[rec]

        if dead.any():
            di = np.flatnonzero(dead)
            bridge_hit = kill_c[di]
            # the entry value: a Brownian kill entered continuously, through
            # b from above or a from below; a jump kill keeps its landing
            x_c[di] = np.where(bridge_hit, np.where(at_stop(seg0)[di] > b, b, a), x_c[di])
            gone = idx[di]
            pb.alive[gone] = False
            pb.k_dagger[gone[~bridge_hit]] = n_c[di[~bridge_hit]]
        pb.x[idx] = x_c

        # the jump pending after the stopping event; a path that jumped there
        # (landing inside included) draws its next gap
        tj_c = at_stop(tj)
        jumped = at_stop(jump) & ~kill_c
        tj_c[jumped] += rng.exponential(1.0 / lam, np.count_nonzero(jumped))
        pb.next_jump[idx] = tj_c

        if stop_after > 0:
            pb.frozen[idx] = ~dead & (n_c >= stop_after)

        idx = idx[pb.alive[idx] & ~pb.frozen[idx] & (t_c < tt[:, 0])]


# --------------------------------------------------------------------------- #
# Single-path recorder
# --------------------------------------------------------------------------- #

@dataclass
class Trajectory:
    """One recorded path: grid and jump times, values, crossings, hit data.

    ``values`` holds right limits (post-jump at jump marks).  A hit ends the
    path with ``advance``'s dead-path values: ``values[-1]`` is the entry
    value (a jump's landing, or the boundary a Brownian kill entered
    through), but after a Brownian kill ``times[-1]`` is the end of the
    killing segment (the next jump or grid time), not the hit time.
    ``k_dagger`` is set only when the hit is a jump landing inside the
    interval.
    """

    times: np.ndarray
    values: np.ndarray
    is_jump: np.ndarray
    hit: bool
    crossings: list
    k_dagger: Optional[int]


def simulate_path(model: ModelParams, interval: Interval, start: float,
                  config: PathConfig, path_index: int = 0) -> Trajectory:
    """Record one path of the ``advance`` kernel on the observation grid.

    Each kernel call stops at the next jump or grid time, so every event is
    read back from a one-path block.  Deterministic in (config.seed,
    path_index, start): each path owns the stream keyed by (seed, path_index),
    an integer >= 0.  The grid only adds observation times: the path is
    killed exactly between them, as in ``advance``.
    """
    require_number(path_index, "path_index", integer=True, low=0)
    pb = PathBlock.start(model, interval, start, 1, block_stream(config.seed, path_index))
    times, values, jumps, crossings = [0.0], [float(start)], [False], []
    for grid_t in _observation_grid(config.dt, config.horizon):
        while pb.alive[0] and pb.t[0] < grid_t:
            jump_t, n_cross = pb.next_jump[0], pb.n_cross[0]
            advance(pb, min(jump_t, grid_t))
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


# One estimate of n paths started at start: block(model, interval, start,
# count, rng, *args) runs on each block of count paths, with the stream rng
# keyed by (seed, block index), and finish turns the list of block results,
# in block order, into the estimate.
_Job = namedtuple("_Job", "block model interval start seed n args finish")


def _map_jobs(jobs: list[_Job]) -> list:
    """The finished estimate of each job, in job order.

    Block bi of a job holds up to BLOCK_SIZE of its ``n`` paths started at
    its ``start`` on the stream keyed by (seed, bi), so the results depend neither
    on how many workers run the blocks nor on the order of the jobs.  With
    more than one worker and more than one block, every block of every job
    goes to one process pool, shut down before the call returns, as one task
    list in job order; list the costly jobs first, so that no worker is left
    with a long task at the end.
    """
    tasks, ends = [], []
    for job in jobs:
        require_number(job.n, "n_paths", integer=True, low=1)
        tasks += [(job.block, job.model, job.interval, job.start, job.seed, bi, count, job.args)
                  for bi, count in iter_blocks(job.n)]
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


def _survival_block(model, interval, start, n, rng, t):
    return _side_counts(interval, *_terminal_block(model, interval, start, n, rng, t))


def estimate_survival(model: ModelParams, interval: Interval, start: float,
                      t: float, config: PathConfig) -> SurvivalEstimate:
    """P(t < T), split by the side occupied at time t, from the exact
    paths of ``terminal_sample``.  ``config`` gives the seed and the path
    count; its dt and horizon are not read."""
    n = config.n_paths
    job = _terminal_job(model, interval, start, t, config.seed, n)._replace(
        block=_survival_block, finish=lambda parts: _side_split(n, _add_blocks(parts)))
    return _map_jobs([job])[0]


def _clock_block(model, interval, start, n, rng, qs):
    pb = PathBlock.start(model, interval, start, n, rng)
    e, counts = rng.standard_exponential(n), {}
    for q in sorted(qs, reverse=True):          # the clocks E/q, earliest first
        advance(pb, e * (1.0 / q))
        counts[q] = _side_counts(interval, pb.x, pb.alive)
    return [counts[q] for q in qs]


def _clock_job(model, interval, start, qs, seed, n):
    interval.require_outside(start, "starting point")
    for q in qs:
        require_number(q, "q", low=0.0, strict=True)
    return _Job(_clock_block, model, interval, start, seed, n, (tuple(qs),),
                lambda parts: [_side_split(n, _add_blocks(c)) for c in zip(*parts)])


def estimate_clock_event(model: ModelParams, interval: Interval, start: float,
                         q: float, config: PathConfig) -> SurvivalEstimate:
    """P(e_q < T) for an independent Exp(q) clock, split by side at the clock."""
    job = _clock_job(model, interval, start, (q,), config.seed, config.n_paths)
    return _map_jobs([job])[0][0]


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
    j - 1.  ``positions`` holds the landings past the far boundary, for the
    shape tests.  ``mass`` is the regression estimate of the mean of the
    paths' scores S_j (see ``empirical_crossing_law``: each segment scores f
    at its start), censored paths' credit included, on the two controls C_j
    and L_j of mean 0, with the residual's standard error, and ``mass_cov``
    the (k, k) sample covariance of the residuals S_j - beta_j . (C_j, L_j),
    whose diagonal over n_paths is the squared standard error.  Apart from the censor
    credit, ``mass[j - 1]`` draws on S_j only from the paths that reach
    crossing j - 1; where few or none do, its sample standard error
    understates the error.  At M3 (sigma 0.5, lam 0.2, eta 4), from 65 536
    paths started at a - 1, no path reaches a second crossing, and
    ``mass[2]`` lies 18 to 1367 standard errors below nu_3.
    ``censor_credit`` is the mean credit per path that the censored paths
    add to each S_j from the closed form: the part of ``mass`` that rests
    on it rather than on simulated jumps.
    """

    n_paths: int
    censored_fraction: float
    positions: tuple[np.ndarray, ...]
    mass: tuple[EstimatorResult, ...]
    mass_cov: np.ndarray
    ks_distance: tuple[float, ...]
    ks_critical: tuple[float, ...]
    insufficient: tuple[bool, ...]
    censor_credit: tuple[float, ...]


def _wiener_hopf_scales(model: ModelParams) -> tuple[float, float]:
    """1/phi+ and 1/phi-, the mean rise above and fall below its start of a
    Brownian motion with drift run for an Exp(lam) time, with phi+- =
    (sqrt(drift^2 + 2 lam sigma^2) -+ drift) / sigma^2.  Each is computed in
    the form without cancellation for the sign of the drift."""
    root = math.sqrt(model.drift**2 + 2.0 * model.lam * model.sigma**2)
    if model.drift >= 0.0:
        return (root + model.drift) / (2.0 * model.lam), model.sigma**2 / (root + model.drift)
    return model.sigma**2 / (root - model.drift), (root - model.drift) / (2.0 * model.lam)


def _either(cond: np.ndarray, yes: np.ndarray, no: np.ndarray) -> np.ndarray:
    """``np.where(cond, yes, no)`` for boolean arrays, overwriting ``yes`` and
    ``no``; three in-place logical ops run several times faster than
    ``np.where`` does on booleans."""
    yes &= cond
    no &= ~cond
    yes |= no
    return yes


def _walk_segments(interval: Interval, x: np.ndarray, rng: np.random.Generator, left: int,
                   eta: float, rise, fall, c_up, c_down, away: bool = False) -> tuple:
    """The next K jump segments of the m = x.size live paths at ``x``, up to
    each row's first stop, with K = max(1, min(MAX_EVENTS, BLOCK_SIZE // m,
    left)), so K = 1 while m > BLOCK_SIZE // 2.

    From a start x a segment falls D * fall to its infimum, rises U * rise
    above that and jumps (c_up E1 - c_down E2)/eta, for one (4, m, K) draw of
    standard exponentials U, D, E1, E2; positions are cumulative sums along
    each row.  ``rise`` and ``fall`` are the scales 1/phi+ and 1/phi- of
    ``_wiener_hopf_scales``, ``c_up`` and ``c_down`` the jump factors (1 for
    the model's own symmetric jumps); each is a scalar or an (m, 1) column
    with one value per row.  A segment starting above b kills if its infimum
    is at or below b, one starting below a if its supremum is at or above a
    (and one starting inside [a, b] always).  A landing at or past the near
    boundary, inside [a, b] included, is a crossing.  Each row stops at its
    first kill or crossing (at its last column if it has neither), as in
    ``advance``, and the draws past it are discarded, which leaves the law
    exact (the strong Markov property at jump times).
    Returns K, each row's stop column, the kill flag, landing and crossing
    flag at it, the (m, K) arrays of the segments' starts (a view of ``x``
    when K = 1) and of whether each starts above b, and, with ``away`` (at
    the model's own laws only), the (m, K) array of each segment's landing
    displacement away from the interval without its Brownian travel toward
    it, less its mean: D fall - J - fall from below a and U rise + J - rise
    from above b, J the jump, and 0 where the segment kills (else None).  Its
    draws are independent of the travel toward the interval that decides the
    kill.
    """
    a, b = interval.a, interval.b
    up, down, post, e2 = rng.standard_exponential((4, x.size, _columns(x.size, left)))
    up *= rise
    down *= fall
    post *= c_up
    e2 *= c_down
    post -= e2
    np.divide(post, eta, out=e2)        # the jumps
    np.subtract(up, down, out=post)
    post += e2
    post, seg0 = _along_rows(x, post)
    above = seg0 > b
    killed = _either(above, seg0 - down <= b, seg0 + up >= a)
    crossed = _either(above, post <= b, post >= a)
    shift = None
    if away:        # up and down are dead now, and take it in place
        down -= e2
        down -= fall
        e2 += up
        e2 -= rise
        np.putmask(down, above, e2)
        np.putmask(down, killed, 0.0)
        shift = down
    col, at_stop = _first_stop(killed | crossed)
    return (post.shape[1], col, at_stop(killed), at_stop(post), at_stop(crossed), seg0, above,
            shift)


_DELTA_FLOOR = math.sqrt(np.finfo(float).tiny)    # see _segment_score_law


def _segment_score_law(eta: float, rise: float, fall: float, width: float) -> np.ndarray:
    """The constants of ``_segment_scores`` for a model with exponent ``eta``
    and Wiener-Hopf scales ``rise`` and ``fall`` (``_wiener_hopf_scales``)
    around an interval of width w: a (4, 2) array with rows -kappa, -delta,
    -C/delta and 1(1/s_t > eta), column 0 for a start below a and column 1
    for one above b.

    On each side s_t is the mean travel of a segment's Brownian part toward
    the interval and s_a that away from it ((rise, fall) below a, (fall,
    rise) above b); kappa = min(eta, 1/s_t), delta = |eta - 1/s_t| and
    C = exp(-eta w)/2 / (s_t (1 + eta s_a)).  delta is raised to at least
    sqrt(tiny) = 1.5e-154, tiny the smallest normal double, so that it can
    divide: that moves f by a relative delta u/2, below 1e-16 for any u
    under 1e138, and keeps delta u a normal double for u above 1.5e-154.
    """
    law = np.empty((4, 2))
    for side, (toward, away) in enumerate(((rise, fall), (fall, rise))):
        delta = max(abs(eta - 1.0 / toward), _DELTA_FLOOR)
        law[:, side] = (-min(eta, 1.0 / toward), -delta,
                        -0.5 * math.exp(-eta * width) / (toward * (1.0 + eta * away) * delta),
                        1.0 / toward > eta)
    return law


def _segment_scores(interval: Interval, y: np.ndarray, above: np.ndarray,
                    law: np.ndarray, away: Optional[np.ndarray] = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """f(y) = E[pi(pre) 1(no kill) | y] and the kill chance p(y) = exp(-u/s_t)
    for segments that start live at y outside [a, b] (above b where
    ``above``); ``law`` is ``_segment_score_law``'s.  ``away``, if given, is
    scaled in place by exp(-kappa u).

    pi(p) = exp(-eta d)/2 is the chance that a jump from p lands past the far
    boundary, at distance d from p.  Let u be the distance from y to the near
    boundary and w = b - a.  The segment's Brownian part travels T toward the
    interval to its extremum and then A back, independent exponentials with
    means s_t and s_a; it kills if T >= u, and otherwise d = w + u - T + A.
    So f(y) = exp(-eta (w + u))/2 E[exp(eta T); T < u] E[exp(-eta A)]
            = exp(-eta (w + u))/2 (u/s_t) exprel((eta - 1/s_t) u) / (1 + eta s_a)
            = (C/delta) exp(-kappa u) (1 - exp(-delta u)),
    with exprel(z) = (e^z - 1)/z.  The last form, with 1 - exp(-delta u) from
    ``expm1``, neither cancels (the form (exp(-u/s_t) - exp(-eta u))/(eta
    s_t - 1) does where eta s_t is near 1, as at the default model) nor
    overflows (both exponents are at most 0).  p comes from the same two
    exponentials: it is exp(-kappa u) where 1/s_t <= eta, and exp(-kappa u)
    (1 + expm1(-delta u)) where 1/s_t > eta, so kappa = eta.
    """
    neg_kappa, neg_delta, f = (np.where(above, hi, lo) for lo, hi in law[:3])
    u = y - interval.b      # the distance to the near boundary, rounded once
    np.maximum(u, interval.a - y, out=u)
    # 0 at a start inside [a, b], which only a cell past its row's stop can
    # have: its f is masked out, but must not overflow on a wide interval
    np.maximum(u, 0.0, out=u)
    neg_delta *= u
    np.expm1(neg_delta, out=neg_delta)
    neg_kappa *= u
    np.exp(neg_kappa, out=neg_kappa)
    f *= neg_kappa
    f *= neg_delta
    if away is not None:
        away *= neg_kappa
    if law[3].any():
        neg_delta *= np.where(above, law[3, 1], law[3, 0])
        neg_delta += 1.0
        neg_kappa *= neg_delta
    return f, neg_kappa


def _crossing_walk(model: ModelParams, interval: Interval, x: np.ndarray,
                   rng: np.random.Generator, n_segments: int, k: int,
                   sums: Optional[np.ndarray] = None) -> tuple:
    """Walk paths started at ``x`` from jump to jump, without event times,
    until death, their k-th crossing or ``n_segments`` segments.

    Each iteration resolves up to K segments per live path and stops each
    row at its first kill or crossing (``_walk_segments``), with K at most
    the fewest segments any live path has left; a row is charged the
    segments up to and including its stop, so every path gets exactly
    ``n_segments`` unless it stops first.  As in ``advance``, a landing at or
    beyond the near boundary is a crossing, and a landing inside [a, b]
    kills as well; a kill preempts its own segment's crossing.  A crossing
    is recorded, and its row goes on in the next iteration unless it landed
    inside or was the k-th.  Returns the (n, k) landings of crossings 1..k
    (NaN past a path's last; one inside [a, b] is a dead path's last) and
    the index and position of each path still live at its cap, in index
    order; a cap of 0 censors every path at its start without a draw.

    Each segment that a path starts live at y after j - 1 crossings adds to
    its score S_j the chance f(y) (``_segment_scores``) that the segment's
    jump is made and lands past the far boundary.  Every segment up to and
    including the row's stop column counts, a killing one too, since f
    carries the chance of the kill.  f is the conditional expectation, given
    the segment's start, of the indicator that the segment makes crossing j
    past the far boundary, so E[S_j] equals the mass of the recorded
    crossings j on the same censored paths, with a smaller variance.
    Over the same segments the control C_j sums 1(the segment kills) - p(y),
    with p(y) the segment's kill chance given its start; each term has
    conditional mean 0, so E[C_j] = 0 by optional stopping at the bounded
    segment count, at any model and cap.  The control L_j sums, over the
    segments among them that survive their Brownian part, exp(-kappa u) times
    the landing displacement away from the interval less its mean
    (``_walk_segments``), with kappa and u as in ``_segment_scores``: those
    draws are independent of the travel that decides the kill, so each term
    has conditional mean 0 too.  ``sums``, if given, is a C-contiguous
    (n, 3k) array of zeros that receives (S_1..S_k, C_1..C_k, L_1..L_k) per
    path; the walk adds to it through flat indices, which take under half
    the time of (row, column) pairs.
    """
    rise, fall = _wiener_hopf_scales(model)
    law = _segment_score_law(model.eta, rise, fall, interval.width)
    flat = (np.zeros((x.size, 3 * k)) if sums is None else sums).reshape(-1)
    landings = np.full((x.size, k), np.nan)
    censored, end = np.full(x.size, n_segments == 0), x.copy()
    idx = np.flatnonzero(~censored)
    n_cross = np.zeros(x.size, dtype=np.int64)
    left = np.full(x.size, n_segments)          # segments left per live path
    while idx.size:
        K, col, kill_c, x_c, cross_c, seg0, above, away = _walk_segments(
            interval, x, rng, int(left.min()), model.eta, rise, fall, 1.0, 1.0, away=True)
        left -= col + 1
        # segments up to and including the stop column, all after n_cross crossings
        f, p = _segment_scores(interval, seg0, above, law, away)
        used = np.arange(K) <= col[:, None]
        f *= used
        p *= used
        away *= used
        at = idx * (3 * k) + n_cross       # S_j of each row; C_j and L_j follow
        flat[at] += np.einsum("ij->i", f)
        at += k
        flat[at] += kill_c - np.einsum("ij->i", p)      # a row's one kill, if any, is its stop
        at += k
        flat[at] += np.einsum("ij->i", away)
        crossed = cross_c & ~kill_c
        landings[idx[crossed], n_cross[crossed]] = x_c[crossed]
        n_cross += crossed
        go = ~(kill_c | interval.contains(x_c)) & (n_cross < k)
        # a live path out of segments is censored where it stands
        out = go & (left == 0)
        censored[idx[out]], end[idx[out]] = True, x_c[out]
        go ^= out
        idx, x, n_cross, left = idx[go], x_c[go], n_cross[go], left[go]
    live = np.flatnonzero(censored)
    return landings, live, end[live]


def _crossing_block(model, interval, start, n, rng, k, n_segments):
    """The landings past the far boundary of crossings 1..k, the number of
    censored paths and the sums that the finish adds up over blocks: the
    censor credit sums, and sum v and the (3k, 3k) matrix sum v v' of the
    paths' stacked vectors v = (S_1..S_k, C_1..C_k, L_1..L_k) of scores, each
    censored path's credit included, and controls."""
    v = np.zeros((n, 3 * k))
    scores = v[:, :k]
    p, live, x = _crossing_walk(model, interval, np.full(n, float(start)), rng, n_segments, k, v)
    positions = [p[(p[:, j] < interval.a) | (p[:, j] > interval.b), j] for j in range(k)]
    # a censored path at x after ``done`` crossings still scores, in the mean,
    # mass(nu_(j - done)) from x = c^(j - 1 - done) m1(x) for each j > done
    # (strong Markov property at its last jump)
    done = np.count_nonzero(~np.isnan(p[live]), axis=1)
    later = np.arange(k) - done[:, None]
    credit = np.where(later >= 0, crossing_factor(model, interval) ** np.maximum(later, 0), 0.0)
    credit *= _jump_over_mass(model, interval, x)[:, None]
    scores[live] += credit
    return positions, live.size, (credit.sum(axis=0), v.sum(axis=0), np.einsum("ij,ik->jk", v, v))


def empirical_crossing_law(model: ModelParams, interval: Interval, start: float,
                           k: int, config: PathConfig) -> CrossingLawEstimate:
    """Empirical laws of the crossing landing positions j = 1..k, against nu_j.

    One pass walks each path from jump to jump (``_crossing_walk``), stops
    it at its k-th crossing and censors it after ceil(lam *
    ``config.horizon``) jump segments (hitting times have infinite mean, so
    some cap is unavoidable).  The mass of crossing j is estimated by
    conditional Monte Carlo: each path scores S_j, the sum over the segments
    it starts live after j - 1 crossings of f(y) (``_segment_scores``), the
    chance given the segment's start y that its jump is made and lands past
    the far boundary.  S_j has the mean of the indicator that crossing j is
    recorded past the far boundary, on the same censored paths, and a
    smaller variance.  A path censored at x after ``done`` crossings then
    adds its mean future score, c^(j - 1 - done) m1(x) = mass(nu_(j - done))
    from x, to S_j for each j > done (the strong Markov property at its
    last jump; m1 as in ``closedform.nu``), so the mean of S_j is unbiased
    for mass(nu_j) from ``start`` at any cap.  ``censor_credit[j - 1]`` is
    that credit's mean per path.  The conditional shape past the far
    boundary (the KS test of ``positions``) is unaffected by censoring.

    Over the same segments each path sums two controls of mean 0 at any cap
    (martingale controls: Henderson & Glynn 2002; Glasserman 2004, sec.
    4.1): C_j, the kill indicator less the kill chance p(y) = exp(-u/s_t) of
    each segment, and L_j, over the segments whose Brownian part does not
    kill, exp(-kappa u) times the landing displacement away from the
    interval less its mean (``_crossing_walk``), whose draws are independent
    of the travel that decides the kill.  ``mass[j - 1]`` is (sum S_j -
    beta_j . sum (C_j, L_j))/n, beta_j the least-squares coefficients of S_j
    on both (``_controlled_mean``), with the residual's standard error;
    fitting beta_j biases it by O(1/n).  At the overshoot benchmark's budget
    the variance of the first mass is 3.8 times smaller than that of the
    plain mean of S_1, and 1.7 times smaller than with C_1 alone.  Where no
    path reached crossing j - 1, both controls are 0 and the mass is the
    plain mean; where one path alone carries them, they are collinear and
    the fit keeps C_j.
    """
    require_number(k, "k", integer=True, low=1)
    interval.require_outside(start, "starting point")
    laws = [nu(model, interval, start, j) for j in range(1, k + 1)]
    n = config.n_paths
    parts = _map_jobs([_Job(_crossing_block, model, interval, start, config.seed, n,
                            (k, math.ceil(model.lam * config.horizon)), list)])[0]
    positions = tuple(np.concatenate([p[0][j] for p in parts]) for j in range(k))
    censored = sum(p[1] for p in parts)
    credit, total, total_sq = _add_blocks(p[2] for p in parts)
    fits = []
    for j in range(k):
        ctl = [k + j, 2 * k + j]          # C_j and L_j
        fits.append(_controlled_mean(float(total[j]), float(total_sq[j, j]), total[ctl],
                                     total_sq[np.ix_(ctl, ctl)], total_sq[j, ctl], n))
    mass, beta = zip(*fits)
    beta = np.array(beta)
    # the covariance of the residuals S_j - beta_j . (C_j, L_j), each over the
    # divisor of its se: n - 1 less the controls fitted
    proj = np.hstack([np.eye(k), -np.diag(beta[:, 0]), -np.diag(beta[:, 1])])
    dof = np.maximum(n - 1.0 - np.count_nonzero(beta, axis=1), 1.0)
    sizes = [pos.size for pos in positions]
    return CrossingLawEstimate(
        n_paths=n,
        censored_fraction=censored / n,
        positions=positions,
        mass=mass,
        mass_cov=proj @ (total_sq - np.outer(total, total) / n) @ proj.T / np.sqrt(
            np.outer(dof, dof)),
        ks_distance=tuple(ks_distance(pos, law.conditional_cdf) if pos.size else math.nan
                          for pos, law in zip(positions, laws)),
        ks_critical=tuple(ks_critical_value(max(m, 1)) for m in sizes),
        insufficient=tuple(m < MIN_LAW_SAMPLES for m in sizes),
        censor_credit=tuple(float(cj) / n for cj in credit),
    )


@dataclass(frozen=True)
class AvoidanceEstimate:
    """P(T = infinity) for a transient model.

    ``result`` is the mean of the per-path values Y = 1 - Z of
    ``estimate_avoidance`` over ``result.n`` paths, and ``returns`` that of
    the scores Z (1 - P(T = infinity), with Z's digits), each with the same
    standard error.  ``unresolved`` counts the paths still live after the
    walk's segment cap; each scores Z = 0, so they bias the mean up by at
    most their share of the paths.
    """

    result: EstimatorResult
    unresolved: int
    returns: EstimatorResult


def adjustment_coefficient(model: ModelParams) -> float:
    """Root g in (0, eta) of psi(g) = 0, i.e. (sigma^2/2) g + lam g/(eta^2 - g^2) = drift.

    exp(-g xi_t) is then a unit-mean martingale, so the probability that an
    upward-drifting path ever falls by D is at most exp(-g D) (``_drift_roots``).
    """
    return _drift_roots(model)[1]


def _tilted_model(model: ModelParams, g: float) -> tuple[ModelParams, float, float]:
    """The model under dQ/dP = exp(-g (xi_t - x)), g = ``adjustment_coefficient``.

    Q keeps the model's type: the Brownian drift becomes drift - sigma^2 g,
    the jump rate lam eta^2 / (eta^2 - g^2), and the jump size
    E1/(eta + g) - E2/(eta - g) for standard exponentials E1, E2, so that
    psi_Q(theta) = psi(theta - g).  Returns the model with Q's drift and jump
    rate (and the old eta, which it does not describe) and the jump factors
    eta/(eta + g) and eta/(eta - g) of ``_walk_segments``.
    """
    eta = model.eta
    # eta^2 - g^2: where the jumps carry at least half the drift, g can lie
    # within rounding of eta, and the drift equation's jump share
    # lam g / (eta^2 - g^2) gives it without cancellation
    jumps = model.drift - 0.5 * model.sigma**2 * g
    gap = model.lam * g / jumps if 2.0 * jumps >= model.drift else (eta - g) * (eta + g)
    tilted = ModelParams(model.sigma, model.lam * eta**2 / gap, eta,
                         model.drift - model.sigma**2 * g)
    return tilted, eta / (eta + g), eta * (eta + g) / gap


def _avoidance_laws(model: ModelParams) -> tuple[float, np.ndarray]:
    """g and the segment laws of ``_avoidance_walk``: rise, fall, c_up and
    c_down of ``_walk_segments``, row 0 for P and row 1 for Q.  Raises
    ValueError where Q's mean step per segment, rise - fall + (c_up -
    c_down)/eta, is not negative in floating point: at a drift so small that
    c_up and c_down differ by less than their rounding, Q would not drift
    down, and every path would walk to the segment cap."""
    g = adjustment_coefficient(model)
    tilted_model, c_up, c_down = _tilted_model(model, g)
    laws = np.array([[*_wiener_hopf_scales(model), 1.0, 1.0],
                     [*_wiener_hopf_scales(tilted_model), c_up, c_down]])
    rise, fall, up, down = laws[1]
    step = rise - fall + (up - down) / model.eta
    if not step < 0.0:
        raise ValueError(f"avoidance estimation needs a tilted walk that drifts down, but "
                         f"its mean step per segment rounds to {step:.3g} at drift "
                         f"{model.drift!r}")
    return g, laws


def _avoidance_walk(model: ModelParams, interval: Interval, x: np.ndarray,
                    rng: np.random.Generator, n_segments: int, g: float,
                    laws: np.ndarray) -> tuple:
    """Walk paths started at ``x`` from jump to jump under the tilted law,
    without event times, until death or ``n_segments`` segments.

    A segment that starts above b runs under Q (``_tilted_model``), which
    drifts down, and one that starts below a under P, which drifts up, so
    every path is killed.  Each iteration resolves up to K segments per live
    path and stops each row at its first kill or crossing
    (``_walk_segments``): a landing inside [a, b] or on the other side,
    where the measure switches.  Every live row is charged the iteration's
    K against ``n_segments``, whichever column it stops at, so the cap is a
    bound on the segments a path uses.  ``g`` and ``laws`` are
    ``_avoidance_laws(model)``'s, and each live row takes its side's law.  A
    Q phase that began at s scores exp(g (end - s)), with end = b at a kill
    (the path enters continuously), the landing inside [a, b] or the landing
    below a.  Returns each path's score Z, the product of its Q phases'
    scores (0 for a path still live at the cap), and the index of each path
    still live.  E[Z] = 1 - P(T = infinity), and 0 <= Z <= exp(-g (x - b))
    from x > b.
    """
    b = interval.b
    by_row = laws.T.copy()          # (4, 2): column 0 for P, 1 for Q
    log_z = np.zeros(x.size)        # each path's log Z, written at its death
    idx = np.arange(x.size)
    lz = np.zeros(x.size)           # the live paths' log Z so far
    s = x                           # where each Q phase began; read on Q rows only
    left = n_segments
    while idx.size and left > 0:
        tilted = x > b
        law = np.take(by_row, tilted.view(np.uint8), axis=1)[:, :, None]
        K, _col, kill_c, x, cross_c, _seg0, _above, _away = _walk_segments(
            interval, x, rng, left, model.eta, *law)
        left -= K
        dead = kill_c | interval.contains(x)
        ends = tilted & (kill_c | cross_c)
        lz += np.where(ends, g * (np.where(kill_c, b, x) - s), 0.0)
        s = np.where(tilted, s, x)      # a landing above b begins a Q phase
        if dead.any():
            log_z[idx[dead]] = lz[dead]
            keep = np.flatnonzero(~dead)
            idx, x, s, lz = idx[keep], x[keep], s[keep], lz[keep]
    z = np.exp(log_z)
    z[idx] = 0.0
    return z, idx


_AVOIDANCE_SEGMENTS = 100_000    # segment cap per path of the avoidance walk


def _avoidance_block(model, interval, start, n, rng, n_segments, g, laws):
    """Sum Z, sum Z^2 and the unresolved count of ``_avoidance_walk`` for n paths."""
    z, live = _avoidance_walk(model, interval, np.full(n, float(start)), rng, n_segments, g,
                              laws)
    return float(z.sum()), float(z @ z), live.size


def _avoidance_job(model, interval, start, seed, n):
    if not model.drift > 0.0:
        raise ValueError("avoidance estimation requires drift > 0 (transient case)")
    interval.require_outside(start, "starting point")
    g, laws = _avoidance_laws(model)      # solved once for all the job's blocks

    def finish(parts):
        total, total_sq, unresolved = _add_blocks(parts)
        # Y = 1 - Z has Z's standard error, taken from sum Z and sum Z^2: from
        # the sums of Y it would cancel to 0 where Z is tiny
        returns = _mean_result(total, total_sq, n)
        return AvoidanceEstimate(result=EstimatorResult((n - total) / n, returns.stderr, n),
                                 unresolved=unresolved, returns=returns)

    return _Job(_avoidance_block, model, interval, start, seed, n,
                (_AVOIDANCE_SEGMENTS, g, laws), finish)


def estimate_avoidance(model: ModelParams, interval: Interval, start: float,
                       config: PathConfig) -> AvoidanceEstimate:
    """P(T = infinity) for a transient (drift > 0) model.

    Siegmund's change of measure (Siegmund 1976; Asmussen & Albrecher, Ruin
    Probabilities, ch. XV): each path is walked from jump to jump
    (``_avoidance_walk``) under Q above b and under P below a, until it is
    killed, and scores Z, the product over its Q phases of the likelihood
    ratio exp(g (end - start)).  So 1 - P(T = infinity) = E[Z], and the
    estimate is the mean of Y = 1 - Z (and ``returns`` that of Z) with the
    standard error from the blocks' sums of Z and Z^2.  Z <= exp(-g (x - b))
    from x > b, so the relative error of 1 - P(T = infinity) stays bounded
    far above the interval.  A path still live after ``_AVOIDANCE_SEGMENTS`` segments scores
    Z = 0 and counts as unresolved.  ``config`` gives the seed and the path
    count; its dt and horizon are not read.
    """
    return _map_jobs([_avoidance_job(model, interval, start, config.seed, config.n_paths)])[0]


def _terminal_block(model, interval, start, n, rng, t):
    pb = PathBlock.start(model, interval, start, n, rng)
    advance(pb, t)
    return pb.x, pb.alive


def _terminal_job(model, interval, start, t, seed, n):
    require_number(t, "t", low=0.0)
    interval.require_outside(start, "starting point")
    return _Job(_terminal_block, model, interval, start, seed, n, (t,), _concat_blocks)


def terminal_sample(model: ModelParams, interval: Interval, start: float,
                    t: float, config: PathConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact sample of (position, alive) at time t for paths killed at T:
    one ``advance`` call to t.  ``config`` gives the seed and the path
    count; its dt and horizon are not read."""
    return _map_jobs([_terminal_job(model, interval, start, t, config.seed, config.n_paths)])[0]
