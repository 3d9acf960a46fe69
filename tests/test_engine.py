import hashlib
import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from interval_avoid import (Interval, ModelParams, PathConfig, bridge_cross_prob,
                            clock_probability, empirical_crossing_law, estimate_avoidance,
                            estimate_clock_event, estimate_survival, gamma_bound, nu,
                            run_suite, simulate_path, terminal_sample)
from interval_avoid.closedform import _avoidance_halves
from interval_avoid.config import parse_config
from interval_avoid import engine, particles
from interval_avoid.engine import (PathBlock, _avoidance_block, _avoidance_walk,
                                   _bridge_exponent, _bridge_kill, _crossing_block,
                                   _crossing_walk, _jump_sizes, _segment_score_law,
                                   _segment_scores, _tilted_model, _walk_segments,
                                   adjustment_coefficient, _wiener_hopf_scales, advance,
                                   ks_critical_value, ks_distance)
from interval_avoid.particles import (drift_probability, harmonicity_residual,
                                      occupation_time, propagate_ensemble)
from interval_avoid.suites import dumps_17g
from interval_avoid._rng import BLOCK_SIZE, block_stream, worker_count
from laws import MIN_BIN, chi2_pvalue, pooled_counts
from test_kernel_law import MAKER


# ------------------------------------------------------------------- config

@pytest.mark.parametrize("raw", ["two", "1.5", "0", "-3"])
def test_malformed_thread_count_rejected(monkeypatch, raw):
    monkeypatch.setenv("INTERVAL_AVOID_THREADS", raw)
    with pytest.raises(ValueError, match="INTERVAL_AVOID_THREADS"):
        worker_count()


def test_unset_or_empty_thread_count_is_sequential(monkeypatch):
    monkeypatch.delenv("INTERVAL_AVOID_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("INTERVAL_AVOID_THREADS", "")
    assert worker_count() == 1


@pytest.mark.parametrize("t", [-1.0, -5.0, math.nan])
@pytest.mark.parametrize("call", [
    lambda m, iv, t, cfg: terminal_sample(m, iv, 2.0, t, cfg),
    lambda m, iv, t, cfg: harmonicity_residual(m, iv, "combined", 2.0, t, cfg),
], ids=["terminal_sample", "harmonicity_residual"])
def test_negative_or_nan_time_rejected(model, interval, call, t):
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=5, n_paths=64)
    with pytest.raises(ValueError, match="t must be nonnegative and finite"):
        call(model, interval, t, cfg)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(dt=0.0, horizon=1.0, seed=1, n_paths=10)
    with pytest.raises(ValueError):
        PathConfig(dt=2.0, horizon=1.0, seed=1, n_paths=10)
    with pytest.raises(ValueError):
        PathConfig(dt=0.1, horizon=1.0, seed=1, n_paths=0)
    with pytest.raises(ValueError, match="finite"):
        PathConfig(dt=0.1, horizon=math.inf, seed=1, n_paths=10)
    with pytest.raises(ValueError, match="finite"):
        PathConfig(dt=math.nan, horizon=1.0, seed=1, n_paths=10)
    with pytest.raises(ValueError):
        PathConfig(dt=True, horizon=1.0, seed=1, n_paths=10)
    for seed, n_paths in ((7.5, 10), (-0.5, 10), (True, 10), (1, True), (1, 2.5)):
        with pytest.raises(ValueError, match="integer"):
            PathConfig(dt=0.1, horizon=1.0, seed=seed, n_paths=n_paths)
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=np.uint64(2**63), n_paths=np.int64(10))
    assert cfg.n_paths == 10


# ------------------------------------------------------------------- bridge

@pytest.mark.filterwarnings("error")
def test_bridge_cross_prob_values():
    sq2 = math.sqrt(2.0)
    iv = Interval(-1.0, 0.0)
    x0 = np.array([1.0, 0.4, 2.0, 0.0, 1.0, 1.0, 1.0, -2.0, 1e300])
    x1 = np.array([1.0, 2.0, 0.4, 1.0, 0.0, -0.5, -3.0, -3.0, 1e300])
    dt = np.array([0.1, 0.3, 0.3, 0.1, 0.1, 0.1, 0.1, 0.5, 1e-300])
    p = bridge_cross_prob(x0, x1, dt, iv, sq2)
    assert p[0] == pytest.approx(math.exp(-10.0), rel=1e-13)
    assert p[1] == p[2]                         # symmetric in the endpoints
    assert np.all(p[3:7] == 1.0)                # touching, inside or straddling
    assert p[7] == pytest.approx(math.exp(-2.0 * 1.0 * 2.0 / (2.0 * 0.5)), rel=1e-13)
    assert p[8] == 0.0                          # overflow is the exact limit, silently
    for i in (0, 1, 7):
        b_side = x0[i] > iv.b
        d0 = x0[i] - iv.b if b_side else iv.a - x0[i]
        d1 = x1[i] - iv.b if b_side else iv.a - x1[i]
        assert p[i] == pytest.approx(math.exp(-2.0 * d0 * d1 / (2.0 * dt[i])), rel=1e-13)
    assert float(bridge_cross_prob(1.0, 1.0, 0.1, iv, sq2)) == p[0]   # scalars


def test_bridge_cross_prob_against_dense_grid():
    # fine-grid Brownian simulation of the touch frequency; grid monitoring
    # misses touches by the usual barrier offset 0.5826 sigma sqrt(h)
    rng = np.random.default_rng(101)
    sigma, dt, x0, x1, level = math.sqrt(2.0), 0.25, 0.8, 0.5, 0.0
    n, steps = 40_000, 250
    h = dt / steps
    z = rng.standard_normal((n, steps)) * sigma * math.sqrt(h)
    w = np.cumsum(z, axis=1)
    w -= np.linspace(1.0 / steps, 1.0, steps) * w[:, -1][:, None]  # pin the bridge at 0
    path = x0 + np.linspace(1.0 / steps, 1.0, steps) * (x1 - x0) + w
    crossed = (path <= level).any(axis=1)
    p_hat = crossed.mean()
    p = float(bridge_cross_prob(x0, x1, dt, Interval(level - 1.0, level), sigma))
    se = math.sqrt(p_hat * (1 - p_hat) / n)
    assert p_hat <= p + 3 * se                 # discrete monitoring undercounts
    shifted = level - 0.5826 * sigma * math.sqrt(h)
    p_disc = float(bridge_cross_prob(x0, x1, dt, Interval(shifted - 1.0, shifted), sigma))
    assert p_hat == pytest.approx(p_disc, abs=3 * se + 0.01 * p)


U_GRID = 2.0**-53      # Generator.random draws multiples of this


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cells=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0),
                                st.floats(1e-300, 10.0),
                                st.one_of(st.integers(0, 4), st.integers(0, 2**53 - 1))),
                      min_size=1, max_size=40),
       sigma=st.floats(0.05, 20.0))
def test_bridge_kill_is_exact(interval, cells, sigma):
    x0, x1, dt, k = (np.array(v) for v in zip(*cells))
    u = k * U_GRID
    assert np.array_equal(_bridge_kill(u, x0, x1, dt, interval, sigma),
                          u < bridge_cross_prob(x0, x1, dt, interval, sigma))


@pytest.mark.parametrize("exponent", [0.0, -36.0, -700.0, -708.5, -745.2, -800.0, -math.inf])
@pytest.mark.parametrize("u", [0.0, U_GRID, 0.5])
def test_bridge_kill_fixed_cases(exponent, u):
    # a segment below [0, 1] from distance 1 to distance -exponent/2 over
    # dt = 1 at sigma = 1 has this exponent; -inf is the overflow of d0 d1
    iv = Interval(0.0, 1.0)
    x0, x1 = (-1e300, -1e300) if exponent == -math.inf else (-1.0, exponent / 2.0)
    x0, x1, dt = np.array([x0]), np.array([x1]), np.array([1.0])
    assert _bridge_exponent(x0, x1, dt, iv, 1.0)[0] == exponent
    killed = _bridge_kill(np.array([u]), x0, x1, dt, iv, 1.0)[0]
    assert killed == (u < bridge_cross_prob(x0, x1, dt, iv, 1.0)[0])
    assert killed == (u < math.exp(exponent))


@pytest.mark.parametrize("eta", [1.0, 2.5])
def test_jump_sizes_are_laplace(eta):
    sizes = _jump_sizes(block_stream(131, 0), 20_000, eta)
    assert stats.kstest(sizes, stats.laplace(scale=1.0 / eta).cdf).pvalue >= 1e-3
    assert _jump_sizes(block_stream(131, 1), (3, 4), eta).shape == (3, 4)


# ------------------------------------------------------------ kernel invariants

@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(0.2, 3.0), lam=st.floats(0.05, 5.0), eta=st.floats(0.2, 5.0),
       drift=st.floats(-1.0, 1.0),
       start=st.one_of(st.floats(-6.0, -0.01), st.floats(1.01, 7.0)),
       horizon=st.floats(0.01, 30.0), stop_after=st.integers(0, 3),
       seed=st.integers(0, 2**32))
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=0.0, start=2.0, horizon=20.0,
         stop_after=1, seed=1)
def test_advance_invariants(interval, sigma, lam, eta, drift, start, horizon,
                            stop_after, seed):
    """Over two calls with per-path targets: hit values lie in [a, b], live
    paths lie outside it, crossing counts never decrease, times never pass
    the target, a live unfrozen path ends on its target, no path passes the
    crossing cap and a path is frozen exactly when it is live at the cap."""
    model = ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift)
    n = 96
    rng = np.random.default_rng(seed)
    first = rng.uniform(0.0, horizon, n)
    pb = PathBlock.start(model, interval, start, n, block_stream(seed, 0), max_crossings=3)
    for targets in (first, first + rng.uniform(0.0, horizon, n)):
        n_before = pb.n_cross.copy()
        advance(pb, targets, stop_after=stop_after)
        live, dead, frozen = pb.alive, ~pb.alive, pb.frozen
        assert np.all(pb.n_cross >= n_before)
        assert np.all(pb.t <= targets)
        assert not interval.contains(pb.x[live]).any()
        assert np.all(interval.contains(pb.x[dead]))
        assert np.all(pb.t[live & ~frozen] == targets[live & ~frozen])
        assert np.all(live[frozen])
        if stop_after:
            assert np.all(pb.n_cross <= stop_after)
            assert np.array_equal(frozen, live & (pb.n_cross == stop_after))
        else:
            assert not frozen.any()
        recorded = np.sum(~np.isnan(pb.cross_pos), axis=1)
        assert np.array_equal(recorded, np.minimum(pb.n_cross, 3))


# ---------------------------------------------------------------- trajectory

def test_simulate_path_deterministic(model, interval):
    cfg = PathConfig(dt=0.1, horizon=5.0, seed=42, n_paths=1)
    t1 = simulate_path(model, interval, 2.0, cfg)
    t2 = simulate_path(model, interval, 2.0, cfg)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.values, t2.values)
    t3 = simulate_path(model, interval, 2.0, cfg, path_index=1)
    assert not np.array_equal(t1.values, t3.values)


def test_simulate_path_invariants(model, interval):
    hit_seen = cross_seen = False
    for pid in range(60):
        cfg = PathConfig(dt=0.05, horizon=8.0, seed=7, n_paths=1)
        tr = simulate_path(model, interval, 1.6, cfg, path_index=pid)
        assert np.all(np.diff(tr.times) > 0)
        if tr.hit:
            hit_seen = True
            assert tr.times[-1] <= 8.0
            inside = (tr.values[:-1] >= interval.a) & (tr.values[:-1] <= interval.b)
            assert not inside.any()     # alive samples stay outside
        else:
            inside = (tr.values >= interval.a) & (tr.values <= interval.b)
            assert not inside.any()
        jump_times = set(tr.times[tr.is_jump])
        sides = []
        for tc, pos in tr.crossings:
            cross_seen = True
            assert tc in jump_times     # crossings only happen at jumps
            if not interval.contains(pos):
                sides.append(pos > interval.b)
            else:
                # a crossing landing inside the interval is the kill
                assert (tc, pos) == tr.crossings[-1]
                assert tr.k_dagger == len(tr.crossings)
        assert all(s != t for s, t in zip(sides, sides[1:]))   # sides alternate
        if tr.k_dagger is not None:
            assert tr.hit and interval.contains(tr.values[-1])
    assert hit_seen and cross_seen


@pytest.mark.parametrize("params,start", [
    (ModelParams(), 1.6),
    (ModelParams(), -0.4),
    (ModelParams(sigma=0.7, lam=3.0, eta=2.5), 2.2),
    (ModelParams(drift=0.4), -1.5),
])
def test_simulate_path_matches_single_advance(interval, params, start):
    """With dt = horizon the recorder's event-by-event kernel calls and one
    advance call to the horizon draw the same law: hit fraction, crossing
    counts, hit times and terminal positions agree at level 0.001 (2000
    recorded paths against 4000 block paths on another stream)."""
    horizon, n = 3.0, 2000
    cfg = PathConfig(dt=horizon, horizon=horizon, seed=17, n_paths=1)
    hit, n_cross, hit_t, end_x = [], [], [], []
    for pid in range(n):
        tr = simulate_path(params, interval, start, cfg, path_index=pid)
        assert np.all(np.diff(tr.times) > 0) and len(tr.times) == len(tr.values)
        if tr.hit:
            assert tr.times[-1] <= horizon
            assert interval.a <= tr.values[-1] <= interval.b
            hit_t.append(tr.times[-1])
        else:
            assert tr.times[-1] == horizon
            assert not interval.contains(tr.values[-1])
            end_x.append(tr.values[-1])
        if tr.k_dagger is not None:
            assert tr.hit and tr.k_dagger == len(tr.crossings)
        hit.append(tr.hit)
        n_cross.append(len(tr.crossings))
    pb = PathBlock.start(params, interval, start, 2 * n, block_stream(18, 0))
    advance(pb, horizon)
    dead = ~pb.alive
    assert np.all(pb.t[pb.alive] == horizon)
    p_values = [
        chi2_pvalue(np.array(hit, dtype=int), dead.astype(int)),
        chi2_pvalue(np.array(n_cross), pb.n_cross),
        stats.ks_2samp(hit_t, pb.t[dead]).pvalue,
        stats.ks_2samp(end_x, pb.x[pb.alive]).pvalue,
    ]
    assert min(p_values) >= 1e-3, p_values


def test_simulate_path_rejects_interior_start(model, interval):
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=1, n_paths=1)
    with pytest.raises(ValueError):
        simulate_path(model, interval, 0.3, cfg)


# ------------------------------------------------------------------ moments

def test_terminal_moments(model):
    far = Interval(1e9, 1e9 + 1.0)
    cfg = PathConfig(dt=1.0, horizon=4.0, seed=11, n_paths=100_000)
    xs, alive = terminal_sample(ModelParams(drift=0.25), far, 2.0, 4.0, cfg)
    assert alive.all()
    n = xs.size
    mean_se = xs.std() / math.sqrt(n)
    assert xs.mean() == pytest.approx(2.0 + 0.25 * 4.0, abs=3 * mean_se)
    var = xs.var()
    target_var = model.variance_rate * 4.0
    var_se = np.std((xs - xs.mean()) ** 2) / math.sqrt(n)
    assert var == pytest.approx(target_var, abs=3 * var_se)


# ----------------------------------------------------------------- survival

def test_survival_at_zero(model, interval):
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=3, n_paths=100)
    est = estimate_survival(model, interval, 2.0, 0.0, cfg)
    assert est.total.mean == 1.0 and est.total.stderr == 0.0
    assert est.above.mean == 1.0 and est.below.mean == 0.0


def test_survival_partition_exact(model, interval):
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=5, n_paths=50_000)
    est = estimate_survival(model, interval, 2.0, 0.5, cfg)
    assert 0.0 < est.total.mean < 1.0
    assert est.total.mean == pytest.approx(est.above.mean + est.below.mean, abs=1e-15)


def test_survival_stderr_scaling(model, interval):
    cfg1 = PathConfig(dt=0.1, horizon=1.0, seed=5, n_paths=40_000)
    cfg2 = PathConfig(dt=0.1, horizon=1.0, seed=6, n_paths=80_000)
    e1 = estimate_survival(model, interval, 2.0, 0.5, cfg1)
    e2 = estimate_survival(model, interval, 2.0, 0.5, cfg2)
    assert e2.total.stderr == pytest.approx(e1.total.stderr / math.sqrt(2.0), rel=0.2)


# -------------------------------------------------------------- clock events

def test_clock_additivity_and_fast_clock(model, interval):
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=31, n_paths=20_000)
    est = estimate_clock_event(model, interval, 2.0, 200.0, cfg)
    assert est.total.mean == pytest.approx(est.above.mean + est.below.mean, abs=1e-15)
    assert est.total.mean > 0.98          # the clock rings almost immediately
    assert est.above.mean > 0.97


def test_clock_event_matches_closed_form(model, interval):
    """P_x(e_q < T) on each side equals ``clock_probability`` within 3 se,
    from a - 0.5 and b + 0.5 at q = 0.5 and 1: the suites start above b
    only, so this is the kernel's one check of clock events from below a.
    The two-rung job reads q = 1 and then q = 0.5 from one path set, so its
    second rung tests ``advance`` resumed after a clock."""
    cases = [(q, x) for q in (0.5, 1.0) for x in (interval.a - 0.5, interval.b + 0.5)]
    for i, (q, x) in enumerate(cases):
        cfg = PathConfig(dt=0.1, horizon=1.0, seed=400 + i, n_paths=200_000)
        est = estimate_clock_event(model, interval, x, q, cfg)
        for res, target in zip((est.above, est.below), clock_probability(model, interval, x, q)):
            assert res.mean == pytest.approx(target, abs=3 * res.stderr), (q, x)
    for i, x in enumerate((interval.a - 0.5, interval.b + 0.5)):
        rungs = engine._map_jobs([engine._clock_job(model, interval, x, (1.0, 0.5), 410 + i,
                                                    200_000)])[0]
        for q, est in zip((1.0, 0.5), rungs):
            for res, target in zip((est.above, est.below),
                                   clock_probability(model, interval, x, q)):
                assert res.mean == pytest.approx(target, abs=3 * res.stderr), (q, x)


@pytest.mark.parametrize("sigma", [1.0, 2.0])
@pytest.mark.parametrize("suite", ["closedform", "clocklimit", "conditioning"])
def test_suites_hold_off_the_default_sigma(suite, sigma):
    """The clock-rate roots solve -psi(rho) = q at every sigma, so the scaled
    clock probabilities P(e_q < T)/kappa(q) still tend to h, and kappa(q) is
    sqrt(2q)/sigma rather than the default model's sqrt(q)."""
    report = run_suite(parse_config({"model": {"sigma": sigma}, "paths": 50_000}, suite=suite))
    assert report.passed, [c.name for c in report.checks if not c.passed]


# ------------------------------------------------------------- crossing laws

def test_crossing_law_mass_and_shape(model, interval):
    """One k = 3 pass gives the laws of crossings 1, 2 and 3."""
    cfg = PathConfig(dt=1.0, horizon=2000.0, seed=51, n_paths=200_000)
    law = empirical_crossing_law(model, interval, -1.0, 3, cfg)
    assert law.insufficient[:2] == (False, False)
    for j in (1, 2, 3):
        m = law.mass[j - 1]
        assert m.mean == pytest.approx(nu(model, interval, -1.0, j).mass, abs=3 * m.stderr), j
    # odd crossings land above b, even ones below a
    assert np.all(law.positions[0] > interval.b)
    assert np.all(law.positions[1] < interval.a)
    assert np.all(law.positions[2] > interval.b)
    for j in (1, 2):
        assert law.ks_distance[j - 1] <= law.ks_critical[j - 1], j


def test_crossing_law_censor_credit_closes_the_gap(model, interval):
    """At horizon 50 some 7.5% of paths are censored.  Each censored path's
    credit c^(j - 1 - done) m1(x), its mean future score, makes every mass
    match nu_j within 3 se; without the credit the first mass undershoots
    by more than 3 se, so the credit carries real weight here (a credit one
    power of c off fails the first loop)."""
    cfg = PathConfig(dt=1.0, horizon=50.0, seed=53, n_paths=200_000)
    law = empirical_crossing_law(model, interval, -1.0, 3, cfg)
    assert 0.05 < law.censored_fraction < 0.1
    for j in (1, 2, 3):
        m, credit = law.mass[j - 1], law.censor_credit[j - 1]
        assert m.mean == pytest.approx(nu(model, interval, -1.0, j).mass, abs=3 * m.stderr), j
        assert 0.0 < credit < m.mean, j
    m = law.mass[0]
    assert nu(model, interval, -1.0, 1).mass - (m.mean - law.censor_credit[0]) > 3 * m.stderr
    # a path already past crossing 1 adds nothing to law 1's credit, and
    # m1(x) < gamma for the others
    assert law.censor_credit[0] < law.censored_fraction * gamma_bound(model, interval)


def test_crossing_law_insufficient_flag(model, interval):
    cfg = PathConfig(dt=1.0, horizon=50.0, seed=52, n_paths=500)
    law = empirical_crossing_law(model, interval, -1.0, 2, cfg)
    assert law.insufficient == (True, True)


# ------------------------------------------------------------- crossing walk

def _crossing_outcomes(case, route, seed, n_segments, k, n_blocks=5, n=8192):
    """Outcome codes (dead with j crossings: j, frozen: k + 1, live with j
    crossings: k + 2 + j) and the recorded landings of crossings 1 and 2 of
    ``n_blocks`` blocks of n paths of kernel case ``case``, after
    ``n_segments`` jump segments of the walk or of ``advance`` stopped at
    each next jump."""
    sigma, lam, eta, drift, start = MAKER.CASES[case]
    model = ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift)
    interval = MAKER.INTERVAL
    codes, landings = [], ([], [])
    for bi in range(n_blocks):
        rng = block_stream(seed, bi)
        if route == "walk":
            pos, live, _x = _crossing_walk(model, interval, np.full(n, start), rng,
                                           n_segments, k)
            # a path with k landings is frozen unless its k-th landed inside
            frozen = ~np.isnan(pos[:, k - 1]) & ~interval.contains(pos[:, k - 1])
            alive = np.isin(np.arange(n), live) | frozen
        else:
            pb = PathBlock.start(model, interval, start, n, rng, max_crossings=k)
            for _ in range(n_segments):
                advance(pb, pb.next_jump.copy(), stop_after=k)
            pos, alive, frozen = pb.cross_pos, pb.alive, pb.frozen
        n_cross = np.count_nonzero(~np.isnan(pos), axis=1)
        codes.append(np.select([~alive, frozen], [n_cross, k + 1], k + 2 + n_cross))
        for j, out in enumerate(landings):
            out.append(pos[~np.isnan(pos[:, j]), j])
    return np.concatenate(codes), [np.concatenate(pos) for pos in landings]


def test_crossing_walk_matches_advance():
    """After 20 jump segments, the walk and ``advance`` run to each next jump
    sample one law of outcome (dead, frozen or live, by crossing count) and
    of the landings of crossings 1 and 2, for each kernel case, 40 960
    ``advance`` paths against 40 960 walk paths in full blocks (K = 1 until
    half of a block has stopped) and 25 600 in blocks of 64 (K = 20 from
    the first iteration, so that rows stop at crossings part way through
    their K and the cap must be charged per row): per block size one pooled
    chi-square over the three outcome tables, and a two-sample KS per
    landing law, Bonferroni-held at alpha = 0.0027.  With every row charged
    its iteration's K, the small blocks' outcome chi-square reads p = 0."""
    stat, dof, p_values = {}, {}, {}
    for case in range(len(MAKER.CASES)):
        ref, ref_pos = _crossing_outcomes(case, "advance", 600 + case, 20, 3)
        for size, seed, n_blocks in [(8192, 500, 5), (64, 700, 400)]:
            walk, walk_pos = _crossing_outcomes(case, "walk", seed + case, 20, 3, n_blocks,
                                                size)
            result = stats.chi2_contingency(pooled_counts(walk, ref), correction=False)
            stat[size] = stat.get(size, 0.0) + result.statistic
            dof[size] = dof.get(size, 0) + result.dof
            for j in (0, 1):
                assert min(walk_pos[j].size, ref_pos[j].size) >= 20, (case, size, j)
                p_values[case, size, j + 1] = stats.ks_2samp(walk_pos[j], ref_pos[j]).pvalue
    for size in stat:
        assert dof[size] >= 12
        p_values["outcome", size] = stats.chi2.sf(stat[size], dof[size])
    assert min(p_values.values()) >= 0.0027 / len(p_values), p_values


@pytest.mark.parametrize("drift", [0.0, 0.4, -0.4, 1e6, -1e6])
def test_wiener_hopf_scales(drift):
    """1/phi+ and 1/phi- to 1e-14 relative against 40 digits for either sign
    of the drift (root - |drift| cancels when |drift| is large), and a
    mirrored drift swaps them."""
    sigma, lam = 0.7, 3.0
    rise, fall = _wiener_hopf_scales(ModelParams(sigma=sigma, lam=lam, drift=drift))
    with mpmath.workdps(40):
        s2 = mpmath.mpf(sigma)**2
        root = mpmath.sqrt(mpmath.mpf(drift)**2 + 2 * mpmath.mpf(lam) * s2)
        assert abs(rise * (root - drift) / s2 - 1) <= 1e-14
        assert abs(fall * (root + drift) / s2 - 1) <= 1e-14
    if drift:
        mirrored = ModelParams(sigma=sigma, lam=lam, drift=-drift)
        assert _wiener_hopf_scales(mirrored) == (fall, rise)


class _DrawLog:
    """A stream that logs the shape of each standard exponential draw; any
    other draw fails the test."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def standard_exponential(self, shape):
        self.shapes.append(shape)
        return self.rng.standard_exponential(shape)

    def __getattr__(self, name):
        raise AssertionError(f"a walk drew from Generator.{name}")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(0.2, 3.0), lam=st.floats(0.05, 5.0), eta=st.floats(0.2, 5.0),
       start=st.one_of(st.floats(-6.0, -0.01), st.floats(1.01, 7.0)),
       cap=st.integers(0, 60), k=st.integers(1, 3), seed=st.integers(0, 2**32))
@example(sigma=2**0.5, lam=1.0, eta=1.0, start=-1.0, cap=60, k=3, seed=1)
@example(sigma=2**0.5, lam=1.0, eta=1.0, start=-1.0, cap=0, k=3, seed=1)
def test_crossing_walk_invariants(interval, sigma, lam, eta, start, cap, k, seed):
    """On one block of a centred model: crossings are recorded in order and
    alternate sides from the start's far side, with a landing inside only as
    a dead path's last; a path with k landings is no longer live; a live
    path has made fewer than k crossings and lies outside [a, b] on the side
    its crossing count gives; and the walk draws only (4, m, K) standard
    exponentials, m never rising and K at most the cap, and a cap of 0
    draws nothing and leaves every path live at its start.  The block makes
    the walk's draws and no other, and reduces its landings and live
    paths."""
    a, b = interval.a, interval.b
    model = ModelParams(sigma=sigma, lam=lam, eta=eta)
    n = 96
    rng = _DrawLog(block_stream(seed, 0))
    pos, live, x = _crossing_walk(model, interval, np.full(n, start), rng, cap, k)
    block_rng = _DrawLog(block_stream(seed, 0))
    positions, censored, _bias = _crossing_block(model, interval, start, n, block_rng,
                                                 k, cap)
    assert block_rng.shapes == rng.shapes
    assert censored == live.size
    for j in range(k):
        kept = pos[:, j][~np.isnan(pos[:, j]) & ~interval.contains(pos[:, j])]
        assert np.array_equal(positions[j], kept)
    assert all(len(s) == 3 and s[0] == 4 for s in rng.shapes)
    widths = [s[1] for s in rng.shapes]
    assert widths == sorted(widths, reverse=True) and all(m <= n for m in widths)
    assert all(s[2] <= cap for s in rng.shapes)
    if cap == 0:
        assert rng.shapes == [] and np.array_equal(live, np.arange(n))
        assert np.all(x == start) and np.all(np.isnan(pos))

    # crossing j lands above b when j is odd for a start below a
    lands_above = (start < a) ^ (np.arange(k) % 2 == 1)
    recorded = ~np.isnan(pos)
    n_cross = np.count_nonzero(recorded, axis=1)
    assert np.array_equal(recorded, np.arange(k) < n_cross[:, None])
    inside = interval.contains(pos)              # False at NaN
    past = np.where(lands_above, pos > b, pos < a)
    assert np.all(past[recorded & ~inside])
    last = np.arange(k) == n_cross[:, None] - 1
    assert np.all(last[inside])

    assert np.all(np.diff(live) > 0)
    assert not inside[live].any() and np.all(n_cross[live] < k)
    assert not interval.contains(x).any()
    assert np.array_equal(x > b, (start > b) ^ (n_cross[live] % 2 == 1))


def test_crossing_scores_match_recorded_crossings():
    """On the walk's own censored paths, the score S_j and the indicator I_j
    that crossing j was recorded past the far boundary have one mean: S_j -
    I_j sums f(y) - 1{the segment from y crosses past it}, one term per
    segment started live, whose conditional mean given y is 0 at every
    segment cap.  For the default model, M1
    and [-1, 2], 65 536 paths each under a cap of 200 segments, adjacent j
    are pooled until each bin expects at least MIN_BIN crossings; the bins'
    sums of S_j - I_j are uncorrelated (they sum over disjoint jumps), so
    their squared z-scores pool into one chi-square at alpha = 0.0027."""
    settings = [(ModelParams(), Interval(0.0, 1.0)),
                (ModelParams(sigma=0.7, lam=3.0, eta=2.5), Interval(0.0, 1.0)),
                (ModelParams(), Interval(-1.0, 2.0))]
    n, k = 65_536, 3
    stat = dof = 0
    for case, (model, interval) in enumerate(settings):
        sums = np.zeros((n, 3 * k))
        pos = np.concatenate([
            _crossing_walk(model, interval, np.full(BLOCK_SIZE, interval.a - 1.0),
                           block_stream(70 + case, bi), 200, k, part)[0]
            for bi, part in enumerate(np.split(sums, n // BLOCK_SIZE))])
        scores = sums[:, :k]
        diff = scores - ((pos < interval.a) | (pos > interval.b))
        bins, d, expected = [], np.zeros(n), 0.0
        for j in range(k):
            d, expected = d + diff[:, j], expected + scores[:, j].sum()
            if expected >= MIN_BIN:
                bins.append(d)
                d, expected = np.zeros(n), 0.0
        if bins:
            bins[-1] = bins[-1] + d     # the short tail joins the last bin
        else:
            bins.append(d)
        for d in bins:
            stat += d.sum() ** 2 / (n * d.var(ddof=1))
            dof += 1
    assert dof >= 4
    assert stats.chi2.sf(stat, dof) >= 0.0027, (stat, dof)


def test_crossing_scores_match_recorded_crossings_under_drift():
    """E[S_1 - I_1] = 0 holds off the centred models too, where the closed
    forms do not reach but rise and fall differ, so it fixes which scale the
    walk's scores take for which side: drift 1 and its mirror, from a - 1
    and b + 1, 32 768 paths each under a cap of 200 segments, four z-scores
    pooled into one chi-square at alpha = 0.0027 (it reads 1.5).  With rise
    and fall swapped in the walk's score law it reads 1606, and without the
    killing stop column 1005."""
    interval, n = Interval(0.0, 1.0), 32_768
    stat = 0.0
    for case, (drift, start) in enumerate([(1.0, -1.0), (1.0, 2.0), (-1.0, -1.0),
                                           (-1.0, 2.0)]):
        model = ModelParams(sigma=1.0, lam=1.0, eta=1.0, drift=drift)
        sums = np.zeros((n, 3))
        pos = np.concatenate([
            _crossing_walk(model, interval, np.full(BLOCK_SIZE, start),
                           block_stream(80 + case, bi), 200, 1, part)[0]
            for bi, part in enumerate(np.split(sums, n // BLOCK_SIZE))])
        d = sums[:, 0] - ((pos[:, 0] < interval.a) | (pos[:, 0] > interval.b))
        stat += d.sum() ** 2 / (n * d.var(ddof=1))
    assert stats.chi2.sf(stat, 4) >= 0.0027, stat


_CONTROL_MODELS = {"default": ModelParams(), "M1": ModelParams(sigma=0.7, lam=3.0, eta=2.5),
                   "M3": ModelParams(sigma=0.5, lam=0.2, eta=4.0)}


@pytest.mark.parametrize("name", sorted(_CONTROL_MODELS))
def test_crossing_controls_have_mean_zero(name):
    """Both controls have mean 0 by optional stopping: C_j = sum (1(kill) -
    p(y)) over the segments that S_j counts, and L_j = sum exp(-kappa u)
    (Delta - s_a) over those among them that survive their Brownian part.
    On 20 seeds of one block of 8192 paths from a - 1 (cap 200), for each
    control the 20 z-scores of stage 1 and, over the pooled paths, one
    z-score per later crossing that some path reached make one chi-square at
    alpha = 0.0027, and the mean of the 20 stage-1 z-scores lies within
    3/sqrt(20) of 0.  At M1, where 1/s_t > eta on both sides, p is
    exp(-eta u) (1 + expm1(-delta u)); at the default model and M3 it is
    exp(-kappa u) itself.  L's chi-square reads 24.6, 20.7 and 16.1 at the
    default model, M1 and M3 (df 22, 22 and 21); with the travel toward the
    interval less its mean, (T - 1) s_t, added to Delta on the surviving
    segments, it reads 19035, 7579 and 37198."""
    model, interval, n, k = _CONTROL_MODELS[name], Interval(0.0, 1.0), BLOCK_SIZE, 3
    runs = []
    for seed in range(20):
        sums = np.zeros((n, 3 * k))
        _crossing_walk(model, interval, np.full(n, -1.0), block_stream(110 + seed, 0), 200, k,
                       sums)
        runs.append(sums)
    pooled = np.concatenate(runs)
    for control in (pooled[:, k:2 * k], pooled[:, 2 * k:]):          # C and L
        zs = [c[:, 0].sum() / math.sqrt(n * c[:, 0].var(ddof=1))
              for c in np.split(control, len(runs))]
        later = [control[:, j].sum() / math.sqrt(control.shape[0] * control[:, j].var(ddof=1))
                 for j in range(1, k) if control[:, j].any()]
        stat = float(np.sum(np.square(zs)) + np.sum(np.square(later)))
        assert stats.chi2.sf(stat, len(zs) + len(later)) >= 0.0027, (stat, later)
        assert abs(np.mean(zs)) <= 3.0 / math.sqrt(len(zs)), zs


@pytest.mark.parametrize("name", ["default", "M1"])
def test_controlled_masses_agree_with_the_plain_means(name):
    """The regression estimates of the crossing masses lie within 3 combined
    standard errors of the plain means of S_j on the same 32 768 paths, and
    at stage 1 the variance is at least 1.4 times smaller (3.7 at the
    default model, 2.2 at M1, with both controls); ``mass_cov``'s diagonal
    over n is the squared standard error."""
    model, interval, n, k = _CONTROL_MODELS[name], Interval(0.0, 1.0), 32_768, 3
    cfg = PathConfig(dt=1.0, horizon=2000.0, seed=120, n_paths=n)
    law = empirical_crossing_law(model, interval, -1.0, k, cfg)
    sums = engine._add_blocks(
        _crossing_block(model, interval, -1.0, BLOCK_SIZE, block_stream(cfg.seed, bi), k,
                        math.ceil(model.lam * cfg.horizon))[2] for bi in range(n // BLOCK_SIZE))
    _credit, total, total_sq = sums
    for j in range(k):
        plain = engine._mean_result(float(total[j]), float(total_sq[j, j]), n)
        controlled = law.mass[j]
        assert abs(controlled.mean - plain.mean) <= 3.0 * math.hypot(controlled.stderr,
                                                                    plain.stderr), j
        assert law.mass_cov[j, j] / n == pytest.approx(controlled.stderr**2, rel=1e-12)
    plain = engine._mean_result(float(total[0]), float(total_sq[0, 0]), n)
    assert (plain.stderr / law.mass[0].stderr) ** 2 >= 1.4


def test_controlled_mean_without_control_spread_is_the_plain_mean():
    """Where the control has no spread, as at a crossing stage that no path
    reached, the controlled mean is the plain mean and its se, with beta 0,
    and no NaN or warning; so is it at n <= 2, where the residual has no
    degree of freedom.  Where one path alone carries both controls, they
    are collinear, and the fit drops the second: the result is the fit on
    the first alone, bit for bit, with no LinAlgError or warning.  At M3 no
    path from a - 1 reaches a second crossing in 8192 paths at seed 121, so
    C_3 and L_3 are 0 on every path; at seed 153 a single path carries C_2
    and L_2.  mass and mass_cov are finite at both."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sums, n in [((3.0, 5.0, 0.0, 0.0, 0.0), 10), ((1.5, 2.25, 0.0, 0.0, 0.0), 1),
                        ((1.0, 0.5, 2.0, 2.0, 1.0), 2), ((3.0, 5.0, 2.5, 0.625, 1.0), 10)]:
            result, beta = engine._controlled_mean(*sums, n)
            assert result == engine._mean_result(sums[0], sums[1], n)
            assert np.array_equal(beta, [0.0])
        # one path of 10 carries c = 0.7 and l = -1.3, at w = 2.0
        c, l, w = 0.7, -1.3, 2.0
        both = engine._controlled_mean(3.0, 5.0, np.array([c, l]),
                                       np.array([[c * c, c * l], [c * l, l * l]]),
                                       np.array([w * c, w * l]), 10)
        first = engine._controlled_mean(3.0, 5.0, c, c * c, w * c, 10)
        assert both[0] == first[0] and np.array_equal(both[1], [first[1][0], 0.0])
        model, interval = _CONTROL_MODELS["M3"], Interval(0.0, 1.0)
        for seed in (121, 153):
            cfg = PathConfig(dt=1.0, horizon=2000.0, seed=seed, n_paths=8192)
            law = empirical_crossing_law(model, interval, -1.0, 3, cfg)
            assert all(math.isfinite(m.mean) and math.isfinite(m.stderr) for m in law.mass)
            assert np.all(np.isfinite(law.mass_cov))
            sums = np.zeros((8192, 9))
            _crossing_walk(model, interval, np.full(8192, -1.0), block_stream(seed, 0),
                           math.ceil(model.lam * cfg.horizon), 3, sums)
            carried = np.count_nonzero(sums[:, [4, 7, 5, 8]], axis=0)    # C_2, L_2, C_3, L_3
            if seed == 121:
                assert law.positions[1].size == 0 and not carried[2:].any()
            else:
                assert np.array_equal(carried[:2], [1, 1])
                one = np.flatnonzero(sums[:, 4])
                assert np.array_equal(one, np.flatnonzero(sums[:, 7]))


def _score_at(interval, eta, rise, fall, y):
    """``_segment_scores`` at the one start y."""
    law = _segment_score_law(eta, rise, fall, interval.width)
    f, _p = _segment_scores(interval, np.array([y]), np.array([y > interval.b]), law)
    return float(f[0])


def _score_reference(interval, eta, rise, fall, y):
    """E[pi(pre) 1(no kill) | y] to 40 digits: the segment's Brownian part
    travels T toward [a, b] and then A away (means rise and fall from below
    a, fall and rise from above b, as ``_walk_segments`` draws them), kills
    if T reaches the near boundary, and otherwise the jump from the pre-jump
    value lands past the far boundary with chance exp(-eta d)/2, d = w + u -
    T + A.  The T-integral is taken by quadrature, the A-integral in closed
    form, E[exp(-eta A)] = 1/(1 + eta s_a)."""
    below = y < interval.a
    toward, away = (rise, fall) if below else (fall, rise)
    with mpmath.workdps(40):
        eta, toward, away = mpmath.mpf(eta), mpmath.mpf(toward), mpmath.mpf(away)
        u = mpmath.mpf(interval.a) - y if below else y - mpmath.mpf(interval.b)
        w = mpmath.mpf(interval.b) - mpmath.mpf(interval.a)
        rate = eta - 1 / toward
        t_part = mpmath.quad(lambda t: mpmath.exp(rate * (t - u)) / toward, [0, u])
        return float(mpmath.exp(-eta * w) / 2 * mpmath.exp(-u / toward) * t_part
                     / (1 + eta * away))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(0.2, 4.0), lam=st.floats(0.05, 5.0), eta=st.floats(0.1, 5.0),
       drift=st.floats(-2.0, 2.0), a=st.floats(-3.0, 3.0), width=st.floats(0.01, 4.0),
       below=st.booleans(), u=st.floats(1e-9, 40.0))
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=0.0, a=0.0, width=1.0, below=False, u=0.3)
def test_segment_score_matches_quadrature(sigma, lam, eta, drift, a, width, below, u):
    """f(y) against 40-digit quadrature of its defining expectation, over
    random models (drifted ones included, where rise and fall differ) on
    either side of [a, b]; f at b + 0.3 on the default model is 0.0204, the
    value that the form (exp(-u/s_t) - exp(-eta u))/(eta s_t - 1) read as 0
    there."""
    interval = Interval(a, a + width)
    rise, fall = _wiener_hopf_scales(ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift))
    y = interval.a - u if below else interval.b + u
    assert y != (interval.a if below else interval.b)
    ref = _score_reference(interval, eta, rise, fall, y)
    assert _score_at(interval, eta, rise, fall, y) == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("eta, rise, fall", [
    (1.0, 1.0, 1.0),                        # eta s_t = 1 exactly on both sides
    (1.0, 1.0, 1.0000000000000002),         # the default model: one ulp off above b
    (2.5, 0.2857738033247041, 0.2857738033247041),   # M1: eta s_t = 0.71
    (4.0, 0.7905694150420948, 0.7905694150420948),   # M3: eta s_t = 3.2
    (0.1, 3.0, 0.05),                       # far from 1, on each side differently
    (1.0, 3.0, 0.05),                       # eta s_t below 1 above b, above 1 below a
], ids=["exact", "one-ulp", "M1", "M3", "asymmetric", "mixed"])
def test_segment_score_near_and_far_from_eta_s_one(eta, rise, fall):
    """Where eta s_t is 1 exactly, one ulp off it and far from it, f is
    finite and within 1e-12 of 40 digits from u = 1e-300 up to u = 700/eta
    on both sides, where it has underflowed at most to a subnormal; no NaN
    or inf appears.  The kill chance p = exp(-u/s_t) is within 1e-12 of 40
    digits too, or, where eta s_t > 1 and it is taken as exp(-eta u) (1 +
    expm1(-delta u)), within the rounding of that sum, 2 ulps of
    exp(-eta u)."""
    interval = Interval(0.0, 1.0)
    law = _segment_score_law(eta, rise, fall, interval.width)
    assert np.all(np.isfinite(law))
    us = np.array([1e-300, 1e-12, 1e-3, 0.3, 1.0, 10.0, 100.0 / eta, 700.0 / eta])
    for below, toward in ((True, rise), (False, fall)):
        y = interval.a - us if below else interval.b + us
        f, p = _segment_scores(interval, y, y > interval.b, law)
        assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
        for yi, fi in zip(y, f):
            ref = _score_reference(interval, eta, rise, fall, yi)
            assert fi == pytest.approx(ref, rel=1e-12, abs=1e-300), (below, yi)
        for u, pi in zip(us, p):
            with mpmath.workdps(40):
                ref = float(mpmath.exp(-mpmath.mpf(u) / mpmath.mpf(toward)))
            rounding = 4.5e-16 * math.exp(-min(eta, 1.0 / toward) * u)
            assert pi == pytest.approx(ref, rel=1e-12, abs=max(rounding, 1e-300)), (below, u)


def test_crossing_scores_finite_after_a_deep_landing_inside():
    """A row that lands deep inside a wide interval stops there, and the
    cells past its stop start inside [a, b]; with a small Brownian scale
    (sigma 0.01, lam 5: 1/s_t = 316) their f would overflow before it is
    masked out, and 698 of 4096 scores read NaN."""
    model, interval = ModelParams(sigma=0.01, lam=5.0, eta=1.0), Interval(0.0, 10.0)
    sums = np.zeros((4096, 3))
    _crossing_walk(model, interval, np.full(4096, -1.0), block_stream(1, 0), 300, 1, sums)
    assert np.all(np.isfinite(sums)) and sums[:, 0].sum() > 0.0


def test_segment_score_matches_the_sampler():
    """f(y) is the chance that a segment of ``_walk_segments`` from y is not
    killed and jumps past the far boundary: from a - 0.4 and b + 0.4, at a
    drifted model whose rise (1.37) and fall (0.37) differ, 16 blocks of
    one-segment walks each; the z-scores of the four frequencies (two
    starts, drift 1 and its mirror) pool into one chi-square at alpha =
    0.0027.  With rise and fall swapped, f reads 24-29 se off at each."""
    interval = Interval(0.0, 1.0)
    stat = 0.0
    for drift in (1.0, -1.0):
        model = ModelParams(sigma=1.0, lam=1.0, eta=1.0, drift=drift)
        rise, fall = _wiener_hopf_scales(model)
        for y in (interval.a - 0.4, interval.b + 0.4):
            hits = n = 0
            for bi in range(16):
                x = np.full(BLOCK_SIZE, y)
                _, _, killed, post, _, _, _, _ = _walk_segments(
                    interval, x, block_stream(90, bi), 1, model.eta, rise, fall, 1.0, 1.0)
                past = post > interval.b if y < interval.a else post < interval.a
                hits += np.count_nonzero(past & ~killed)
                n += BLOCK_SIZE
            f = _score_at(interval, model.eta, rise, fall, y)
            stat += (hits - n * f) ** 2 / (n * f * (1.0 - f))
    assert stats.chi2.sf(stat, 4) >= 0.0027, stat


def test_ks_helpers():
    rng = np.random.default_rng(1)
    u = rng.random(50_000)
    assert ks_distance(u, lambda x: x) < ks_critical_value(u.size)
    shifted = np.clip(u + 0.02, 0, 1)
    assert ks_distance(shifted, lambda x: x) > ks_critical_value(shifted.size)
    assert ks_critical_value(10_000, 0.01) == pytest.approx(1.6276 / 100.0, rel=1e-3)


def test_strong_markov_between_crossings(model, interval):
    """After the 2nd crossing (above b), surviving s more units without
    passing below b has the same probability as a fresh path started at the
    crossing position; both sides estimated on independent seeds."""
    s = 0.5
    n = 300_000
    rng = block_stream(61, 0)
    pb = PathBlock.start(model, interval, 2.0, n, rng, max_crossings=3)
    advance(pb, 2000.0, stop_after=2)
    two = pb.alive & (pb.n_cross == 2)
    # continue those paths for s more units; count survivors that do not
    # cross again and do not die (i.e. stay above b the whole stretch)
    pb.frozen[two] = False
    extended = pb.t + np.where(two, s, 0.0)
    advance(pb, extended, stop_after=3)
    rhs_hits = two & pb.alive & (pb.n_cross == 2)
    rhs = rhs_hits.sum() / n
    se_rhs = math.sqrt(rhs * (1 - rhs) / n)

    # fresh one-sided passage from each crossing position, independent draws
    ys = pb.cross_pos[two, 1]
    deep = Interval(interval.b - 120.0, interval.b)
    rng2 = block_stream(62, 0)
    pb2 = PathBlock.start(model, deep, 10.0, ys.size, rng2)
    pb2.x[:] = ys
    advance(pb2, s)
    lhs = pb2.alive.sum() / n
    se_lhs = math.sqrt(lhs * (1 - lhs) / n)
    assert abs(lhs - rhs) <= 4.0 * math.sqrt(se_lhs**2 + se_rhs**2)


# ------------------------------------------------------------- reproducibility

def test_estimators_bit_identical_across_workers(monkeypatch, model, interval):
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=71, n_paths=70_000)

    def estimates():
        surv = estimate_survival(model, interval, 2.0, 0.5, cfg)
        # 8 batches of 8750 paths straddle the 8192-path blocks
        dp = drift_probability(model, interval, 2.0, 5.0, cfg)
        ens = propagate_ensemble(model, interval, "updown", 2.0, cfg,
                                 record_times=[0.55, 1.0])
        occ = occupation_time(model, interval, 2.0, (-1.0, 2.0), (0.5, 1.0), cfg)
        # 20 000 paths: blocks of 8192, 8192 and 3616
        law = empirical_crossing_law(model, interval, -1.0, 3,
                                     PathConfig(dt=1.0, horizon=200.0, seed=72,
                                                n_paths=20_000))
        clock = estimate_clock_event(model, interval, 2.0, 0.5, cfg)
        avoid = estimate_avoidance(ModelParams(drift=0.5), interval, 2.0,
                                   PathConfig(dt=1.0, horizon=1.0, seed=74,
                                              n_paths=20_000))
        # per-block sums added in block order
        harm = harmonicity_residual(model, interval, "combined", -1.2, 1.0, cfg)
        return surv, clock, avoid, harm, (dp.p_up, dp.p_down, dp.ess_min, dp.resamples,
                                    dp.per_replicate.tobytes()), occ.tobytes(), (
            law.n_paths, law.censored_fraction, law.mass, law.ks_distance,
            law.ks_critical, law.insufficient, law.censor_credit,
            [p.tobytes() for p in law.positions]), (ens.times, ens.n, [
                a.tobytes() for a in (ens.weight, ens.weight_sq, ens.weight_above,
                                      ens.weight_sq_above, ens.weight_below)])

    monkeypatch.delenv("INTERVAL_AVOID_THREADS", raising=False)
    base = estimates()
    # worker_count caps the request at the CPU count, so an odd worker
    # count needs a machine that reports more CPUs than it requests
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("INTERVAL_AVOID_THREADS", "3")
    assert worker_count() == 3
    assert estimates() == base


# budgets that keep each Monte Carlo suite well under a second
SMALL = {"closedform": {}, "overshoot": {"paths": 32768}, "harmonicity": {"paths": 4096},
         "clocklimit": {"paths": 4096}, "conditioning": {"paths": 4096},
         "longtime": {"particles": 4096}, "transient5": {"paths": 12288}}


def test_each_suite_makes_one_map_jobs_call(monkeypatch):
    """Every Monte Carlo suite sends all of its blocks as one task list, so it
    waits at one barrier; closedform simulates nothing.  Harmonicity sends
    one job per start and each clock suite one job for its three clocks."""
    jobs = {"overshoot": 1, "harmonicity": 4, "clocklimit": 1, "conditioning": 1,
            "longtime": 3, "transient5": 66}
    calls = []
    run = engine._map_jobs

    def counting(jobs):
        calls.append(len(jobs))
        return run(jobs)

    monkeypatch.setattr(engine, "_map_jobs", counting)
    monkeypatch.setattr(particles, "_map_jobs", counting)
    monkeypatch.delenv("INTERVAL_AVOID_THREADS", raising=False)
    for suite, budget in SMALL.items():
        calls.clear()
        run_suite(parse_config(budget, suite=suite))
        assert calls == ([] if suite == "closedform" else [jobs[suite]]), (suite, calls)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two workers need two CPUs")
def test_suite_holds_one_pool_and_shuts_it_down(monkeypatch):
    built = []
    init = ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)

    def report(suite, threads):
        monkeypatch.setenv("INTERVAL_AVOID_THREADS", threads)
        built.clear()
        out = run_suite(parse_config(SMALL[suite], suite=suite)).to_dict()
        del out["runtime_seconds"]
        return dumps_17g(out), len(built)

    for suite in SMALL:
        two, pools_two = report(suite, "2")
        assert pools_two <= 1, suite
        assert multiprocessing.active_children() == [], suite
        if suite == "transient5":
            one, pools_one = report(suite, "1")
            assert pools_one == 0
            assert two == one


def test_mixed_job_list_matches_public_calls(model, interval):
    """One task list of different jobs gives each job the estimate of its
    public call alone; a clock job over several q and a harmonicity job over
    several times give, at their first q and time, the public call's
    estimate bit for bit."""
    drifted = ModelParams(drift=0.5)
    cfg = PathConfig(dt=1.0, horizon=1.0, seed=95, n_paths=9000)
    small = PathConfig(dt=1.0, horizon=1.0, seed=96, n_paths=300)
    seed, n = cfg.seed, cfg.n_paths
    jobs = [engine._avoidance_job(drifted, interval, interval.b + 3.0, seed, n),
            engine._avoidance_job(drifted, interval, interval.a - 1.0, small.seed, small.n_paths),
            engine._terminal_job(model, interval, 1.3, 0.7, seed, n),
            engine._clock_job(model, interval, 2.0, (0.5, 0.2, 0.05), seed, n),
            particles._harmonicity_job(model, interval, "combined", -1.2, (1.0, 2.5), seed, n)]
    far, near, (xs, alive), clock, harm = engine._map_jobs(jobs)
    assert far == estimate_avoidance(drifted, interval, interval.b + 3.0, cfg)
    assert near == estimate_avoidance(drifted, interval, interval.a - 1.0, small)
    xs1, alive1 = terminal_sample(model, interval, 1.3, 0.7, cfg)
    assert np.array_equal(xs, xs1) and np.array_equal(alive, alive1)
    assert len(clock) == 3 and len(harm) == 2
    assert clock[0] == estimate_clock_event(model, interval, 2.0, 0.5, cfg)
    assert harm[0] == harmonicity_residual(model, interval, "combined", -1.2, 1.0, cfg)


def test_crossing_law_deterministic(model, interval):
    cfg = PathConfig(dt=1.0, horizon=200.0, seed=73, n_paths=30_000)
    a = empirical_crossing_law(model, interval, -1.0, 2, cfg)
    b = empirical_crossing_law(model, interval, -1.0, 2, cfg)
    assert a.mass == b.mass and a.censor_credit == b.censor_credit
    assert all(np.array_equal(p, q) for p, q in zip(a.positions, b.positions))


# sha256 of fixed-seed estimator outputs, pinned so that a change to how a
# block gets its stream, its start state or its draws shows up; the clock and
# crossing budgets span two blocks.  Last re-pinned when each crossing mass
# became the regression estimate on the kill control C_j and the landing
# control L_j, which moves ``mass`` only; with the crossing law's ``mass``
# left out of the digest, it reads 532a63cc...ab5c both before and after, so
# the draws, landings and censor credit did not move
def test_estimators_pinned(model, interval):
    digest = hashlib.sha256()

    def add(*values):
        for v in values:
            digest.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())

    cfg = PathConfig(dt=0.1, horizon=1.0, seed=91, n_paths=9000)
    clock = estimate_clock_event(model, interval, 2.0, 0.5, cfg)
    add(clock.total, clock.above, clock.below)
    avoid = estimate_avoidance(ModelParams(drift=0.5), interval, 2.0,
                               PathConfig(dt=1.0, horizon=1.0, seed=92, n_paths=2000))
    add(avoid.result, avoid.unresolved, avoid.returns)
    law = empirical_crossing_law(model, interval, -1.0, 2,
                                 PathConfig(dt=1.0, horizon=50.0, seed=93, n_paths=9000))
    add(*law.positions, law.mass, law.censor_credit)
    add(*terminal_sample(model, interval, 1.3, 0.7, cfg))
    add(occupation_time(model, interval, 2.0, (-1.0, 2.0), (0.5, 1.0),
                        PathConfig(dt=0.1, horizon=1.0, seed=94, n_paths=500)))
    # without the crossing law's line the digest reads bf3089482b31cc62a0a27c3c
    # d3bdeac343b4b29fd1e3094ca719670f3297626a, which a change to the crossing
    # walk alone leaves as it is
    assert digest.hexdigest() == (
        "e3b389875c803ba770759496334bbafa0e576477c8cd9eefac7a4a516e9284a9")


# ----------------------------------------------------------------- avoidance

def test_avoidance_requires_drift(model, interval):
    cfg = PathConfig(dt=1.0, horizon=1.0, seed=81, n_paths=100)
    with pytest.raises(ValueError, match="drift"):
        estimate_avoidance(model, interval, 2.0, cfg)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(0.05, 20.0), lam=st.floats(0.01, 50.0), eta=st.floats(0.01, 50.0),
       drift=st.floats(1e-3, 50.0))
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=0.5)    # transient5's default model
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=1e-13)
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=1e13)
def test_adjustment_coefficient_solves_drift_equation(sigma, lam, eta, drift):
    """g in (0, eta) solves (sigma^2/2) g + lam g/(eta^2 - g^2) = drift: the
    residual over the slope moves g by under 1e-14 relative, and g is the
    middle root (negated) of the cubic, found at 40 digits."""
    m = ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift)
    g = adjustment_coefficient(m)
    assert 0.0 < g < m.eta
    with mpmath.workdps(40):
        s2, mu, lm, eta2, gm = (mpmath.mpf(sigma)**2 / 2, mpmath.mpf(drift),
                                mpmath.mpf(lam), mpmath.mpf(eta)**2, mpmath.mpf(g))
        residual = s2 * gm + lm * gm / (eta2 - gm**2) - mu
        slope = s2 + lm * (eta2 + gm**2) / (eta2 - gm**2)**2
        assert abs(residual / (slope * gm)) <= 1e-14
        roots = mpmath.polyroots([-s2, -mu, s2 * eta2 + lm, mu * eta2],
                                 maxsteps=200, extraprec=200)
        ref = -sorted(mpmath.re(r) for r in roots)[1]
        assert abs(gm - ref) <= 1e-14 * ref


def test_avoidance_far_start(interval):
    m = ModelParams(drift=0.5)
    cfg = PathConfig(dt=1.0, horizon=1.0, seed=83, n_paths=8192)
    est = estimate_avoidance(m, interval, interval.b + 50.0, cfg)
    assert est.unresolved == 0
    # Lundberg's inequality: 1 - l(x) <= exp(-g (x - b))
    lundberg = math.exp(-50.0 * adjustment_coefficient(m))
    assert 1.0 - est.result.mean <= lundberg + 3 * est.result.stderr


def test_avoidance_monotone_in_start(interval):
    m = ModelParams(drift=0.5)
    cfg1 = PathConfig(dt=1.0, horizon=1.0, seed=85, n_paths=30_000)
    cfg2 = PathConfig(dt=1.0, horizon=1.0, seed=86, n_paths=30_000)
    lo = estimate_avoidance(m, interval, interval.b + 1.0, cfg1)
    hi = estimate_avoidance(m, interval, interval.b + 3.0, cfg2)
    assert lo.result.mean <= hi.result.mean + 3 * math.hypot(lo.result.stderr,
                                                             hi.result.stderr)


# ------------------------------------------------------------ avoidance walk

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(0.05, 20.0), lam=st.floats(0.01, 50.0), eta=st.floats(0.01, 50.0),
       drift=st.floats(1e-3, 50.0))
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=0.5)    # transient5's default model
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=1e-13)
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=1e13)
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=1e16)    # g rounds to eta
def test_tilted_model_shifts_the_laplace_exponent(sigma, lam, eta, drift):
    """The walk's Q law is the model under dQ/dP = exp(-g (xi_t - x)): with
    J = (c_up E1 - c_down E2)/eta, psi_Q(theta) = drift_Q theta + sigma^2
    theta^2/2 + lam_Q (E exp(theta J) - 1) equals psi(theta - g) at 40
    digits to 1e-12 of its terms' size, at six theta in (g - eta, g + eta),
    and psi_Q'(0) < 0, so Q drifts down.  At drift 1e13 and 1e16, g lies
    within rounding of eta, and only the drift equation's eta^2 - g^2 gives
    Q's jump rate."""
    model = ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift)
    g = adjustment_coefficient(model)
    tilted, c_up, c_down = _tilted_model(model, g)
    assert tilted.sigma == sigma
    with mpmath.workdps(40):
        mp = mpmath.mpf
        s2, eta_, g_ = mp(sigma)**2, mp(eta), mp(g)
        drift_q, lam_q, up, down = (mp(v) for v in (tilted.drift, tilted.lam, c_up, c_down))

        def psi(theta):
            return mp(drift) * theta + s2 * theta**2 / 2 + mp(lam) * (
                eta_**2 / (eta_**2 - theta**2) - 1)

        for f in (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75):
            theta = g_ + f * eta_
            mgf = 1 / ((1 - theta * up / eta_) * (1 + theta * down / eta_))
            terms = (drift_q * theta, s2 * theta**2 / 2, lam_q * mgf, -lam_q)
            assert abs(sum(terms) - psi(theta - g_)) <= 1e-12 * sum(abs(t) for t in terms)
        assert drift_q + lam_q * (up - down) / eta_ < 0


def test_avoidance_rejects_a_tilt_that_rounds_away(interval):
    """At sigma 12.3, lam 33.5, eta 0.034 and drift 1e-13, g/eta is about
    1e-16, so Q's jump factors differ by less than their rounding, and Q's
    float mean step rise - fall + (c_up - c_down)/eta reads +9.2e-15: the
    tilted walk would not drift down, and every path would walk to the
    segment cap.  Building the job raises ValueError before any block runs.
    At transient5's default model the step reads -0.50."""
    tiny = ModelParams(sigma=12.3, lam=33.5, eta=0.034, drift=1e-13)
    with pytest.raises(ValueError, match="drifts down"):
        engine._avoidance_job(tiny, interval, interval.b + 1.0, 1, 100)
    with pytest.raises(ValueError, match="drifts down"):
        estimate_avoidance(tiny, interval, interval.b + 1.0,
                           PathConfig(dt=1.0, horizon=1.0, seed=1, n_paths=100))
    model = ModelParams(drift=0.5)
    _g, laws = engine._avoidance_laws(model)
    rise, fall, up, down = laws[1]
    assert rise - fall + (up - down) / model.eta == pytest.approx(-0.50, abs=0.005)


AVOIDANCE_STARTS = (-3.0, 1.25, 3.0, 11.0)     # a - 3, b + 0.25, b + 2, b + 10


def _closed_form_pvalue(model, interval, n):
    """p-value of one pooled chi-square over ``AVOIDANCE_STARTS`` of the mean
    scores Z of ``estimate_avoidance`` (n paths a start) against the exact
    return probability 1 - l: above b in its own form, without cancellation."""
    stat = 0.0
    for i, start in enumerate(AVOIDANCE_STARTS):
        est = estimate_avoidance(model, interval, start,
                                 PathConfig(dt=1.0, horizon=1.0, seed=300 + i, n_paths=n))
        assert est.unresolved == 0
        above, small = _avoidance_halves(model, interval, start)
        ret = small if above else 1.0 - small
        stat += ((est.returns.mean - ret) / est.returns.stderr) ** 2
    return stats.chi2.sf(stat, len(AVOIDANCE_STARTS))


def test_avoidance_walk_matches_closed_form(interval):
    """The tilted walk's estimates agree with the closed form l at four
    starts, 65 536 paths each: one pooled chi-square at alpha = 0.0027."""
    assert _closed_form_pvalue(ModelParams(drift=0.5), interval, 65_536) >= 0.0027


def test_avoidance_closed_form_test_catches_an_untilted_jump_rate(monkeypatch, interval):
    """A planted defect, Q's jump rate left at lam, fails the chi-square."""
    tilted_model = engine._tilted_model

    def untilted_rate(model, g):
        tilted, c_up, c_down = tilted_model(model, g)
        return (ModelParams(tilted.sigma, model.lam, tilted.eta, tilted.drift),
                c_up, c_down)

    monkeypatch.setattr(engine, "_tilted_model", untilted_rate)
    assert _closed_form_pvalue(ModelParams(drift=0.5), interval, 65_536) < 0.0027


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(0.2, 3.0), lam=st.floats(0.05, 5.0), eta=st.floats(0.2, 5.0),
       drift=st.floats(0.05, 2.0),
       start=st.one_of(st.floats(-6.0, -0.01), st.floats(1.01, 12.0)),
       n_segments=st.integers(0, 60), seed=st.integers(0, 2**32))
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=0.5, start=2.0, n_segments=60, seed=1)
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=0.05, start=12.0, n_segments=100,
         seed=1)      # two iterations, the second short, paths left live
def test_avoidance_walk_invariants(interval, sigma, lam, eta, drift, start, n_segments,
                                   seed):
    """Every score lies in [0, 1], an unresolved path scores 0 and from a
    start x above b no score exceeds exp(-g (x - b)); the walk draws only
    (4, m, K) standard exponentials, m falling, with K = max(1,
    min(MAX_EVENTS, BLOCK_SIZE // m, segments left)), so m K <= BLOCK_SIZE,
    and resolves no more segments than its cap, nor fewer while a path is
    live; the same stream gives the same result.  The block makes the
    walk's draws and no other and returns sum Z, sum Z^2 and the
    unresolved count."""
    model = ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift)
    n = 96

    def walk():
        rng = _DrawLog(block_stream(seed, 0))
        return (_avoidance_walk(model, interval, np.full(n, start), rng, n_segments,
                                *engine._avoidance_laws(model)), rng.shapes)

    (z, live), shapes = walk()
    assert np.all((z >= 0.0) & (z <= 1.0))
    assert np.all(z[live] == 0.0)
    assert np.all(np.diff(live) > 0)
    if start > interval.b:
        g = adjustment_coefficient(model)
        assert np.all(z <= math.exp(-g * (start - interval.b)) * (1 + 1e-12))
    assert all(len(s) == 3 and s[0] == 4 for s in shapes)
    widths = [s[1] for s in shapes]
    assert widths == sorted(widths, reverse=True) and all(m <= n for m in widths)
    left = n_segments
    for _four, m, K in shapes:
        assert K == max(1, min(engine.MAX_EVENTS, BLOCK_SIZE // m, left))
        assert m * K <= BLOCK_SIZE
        left -= K
    segments = sum(s[2] for s in shapes)
    assert segments <= n_segments
    if live.size:
        assert segments == n_segments

    (z2, live2), shapes2 = walk()
    assert np.array_equal(z, z2) and np.array_equal(live, live2) and shapes == shapes2

    block_rng = _DrawLog(block_stream(seed, 0))
    sums = _avoidance_block(model, interval, start, n, block_rng, n_segments,
                            *engine._avoidance_laws(model))
    assert block_rng.shapes == shapes
    assert sums == (float(z.sum()), float(z @ z), live.size)


def test_avoidance_cap_leaves_paths_unresolved(monkeypatch, interval):
    """No path from b + 2 reaches the segment cap; with a cap of 3 segments
    hundreds do, and each counts as unresolved and scores Z = 0, as in the
    walk on the same stream."""
    model = ModelParams(drift=0.5)
    start, n = interval.b + 2.0, 4000
    cfg = PathConfig(dt=1.0, horizon=1.0, seed=87, n_paths=n)
    assert estimate_avoidance(model, interval, start, cfg).unresolved == 0
    monkeypatch.setattr(engine, "_AVOIDANCE_SEGMENTS", 3)
    est = estimate_avoidance(model, interval, start, cfg)
    assert est.unresolved > 100
    z, live = _avoidance_walk(model, interval, np.full(n, start), block_stream(cfg.seed, 0), 3,
                              *engine._avoidance_laws(model))
    assert est.unresolved == live.size
    assert est.result.mean == pytest.approx(1.0 - z.mean(), rel=1e-13)


def test_avoidance_finish_is_the_mean_of_the_path_values(interval):
    """The finish's means and standard error from the blocks' sums of Z and
    Z^2 equal np.mean over the per-path values Y = 1 - Z and Z, and
    np.std(ddof=1)/sqrt(n) over Z (which Y shares), with Z = 0 for an
    unresolved path; also at scores of the size of 1 - l far above the
    interval, where the sums of Y would cancel Z's spread."""
    n = 500
    finish = engine._avoidance_job(ModelParams(drift=0.5), interval, 2.0, 1, n).finish
    for scale in (1.0, 5e-6, 1e-9):
        z = scale * np.random.default_rng(5).random(n) ** 3
        z[[3, 70, 499]] = 0.0
        parts = [(float(b.sum()), float(b @ b), 1) for b in (z[:200], z[200:450], z[450:])]
        est = finish(parts)
        y = 1.0 - z
        assert est.result.n == n
        assert est.result.mean == pytest.approx(np.mean(y), rel=1e-13)
        assert est.returns.mean == pytest.approx(np.mean(z), rel=1e-13)
        se = np.std(z, ddof=1) / math.sqrt(n)
        assert est.result.stderr == est.returns.stderr == pytest.approx(se, rel=1e-9)
        assert est.unresolved == 3
