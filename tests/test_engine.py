import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from interval_avoid import (Interval, ModelParams, PathConfig, bridge_cross_prob,
                            empirical_crossing_law, estimate_avoidance,
                            estimate_clock_event, estimate_survival, gamma_bound,
                            kappa, nu, potential_q, simulate_path, terminal_sample)
from interval_avoid.engine import (PathBlock, adjustment_coefficient, advance,
                                   ks_critical_value, ks_distance)
from interval_avoid.particles import (drift_probability, occupation_time,
                                      propagate_ensemble)
from interval_avoid._rng import block_stream
from laws import chi2_pvalue


# ------------------------------------------------------------------- config

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


# ------------------------------------------------------------ kernel invariants

@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(0.2, 3.0), lam=st.floats(0.05, 5.0), eta=st.floats(0.2, 5.0),
       drift=st.floats(-1.0, 1.0),
       start=st.one_of(st.floats(-6.0, -0.01), st.floats(1.01, 7.0)),
       horizon=st.floats(0.01, 30.0), stop_after=st.integers(0, 3),
       exit_gap=st.one_of(st.none(), st.floats(-1.0, 4.0)), bridge=st.booleans(),
       seed=st.integers(0, 2**32))
@example(sigma=2**0.5, lam=1.0, eta=1.0, drift=0.0, start=2.0, horizon=20.0,
         stop_after=0, exit_gap=1.0, bridge=True, seed=1)
def test_advance_invariants(interval, sigma, lam, eta, drift, start, horizon,
                            stop_after, exit_gap, bridge, seed):
    """Over two calls with per-path targets: hit values lie in [a, b], live
    paths lie outside it, crossing counts never decrease, times never pass
    the target, a live unfrozen path ends on its target and a frozen one has
    reached the crossing cap or the exit level.  The exit level sits
    ``exit_gap`` above the start (or above b for a start below the
    interval), so a negative gap freezes paths on entry."""
    model = ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift)
    exit_above = (None if exit_gap is None
                  else max(interval.b + 0.01, max(start, interval.b) + exit_gap))
    n = 96
    rng = np.random.default_rng(seed)
    first = rng.uniform(0.0, horizon, n)
    pb = PathBlock.start(model, interval, start, n, block_stream(seed, 0), max_crossings=3)
    for targets in (first, first + rng.uniform(0.0, horizon, n)):
        n_before = pb.n_cross.copy()
        advance(pb, targets, bridge=bridge, stop_after=stop_after, exit_above=exit_above)
        live, dead, frozen = pb.alive, ~pb.alive, pb.frozen
        assert np.all(pb.n_cross >= n_before)
        assert np.all(pb.t <= targets)
        assert not interval.contains(pb.x[live]).any()
        assert np.all(interval.contains(pb.hit_value[dead]))
        assert np.all(pb.hit_time[dead] == pb.t[dead])
        assert np.all(pb.t[live & ~frozen] == targets[live & ~frozen])
        assert np.all(live[frozen])
        reached = np.zeros(n, dtype=bool)
        if stop_after:
            reached |= pb.n_cross >= stop_after
        if exit_above is not None:
            reached |= pb.x >= exit_above
        assert np.all(reached[frozen])
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
            assert tr.hit_time == tr.times[-1] and tr.hit_time <= 8.0
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


@pytest.mark.parametrize("params,start,bridge", [
    (ModelParams(), 1.6, True),
    (ModelParams(), -0.4, False),
    (ModelParams(sigma=0.7, lam=3.0, eta=2.5), 2.2, True),
    (ModelParams(drift=0.4), -1.5, True),
])
def test_simulate_path_matches_single_advance(interval, params, start, bridge):
    """With dt = horizon the recorder's event-by-event kernel calls and one
    advance call to the horizon draw the same law: hit fraction, crossing
    counts, hit times and terminal positions agree at level 0.001 (2000
    recorded paths against 4000 block paths on another stream)."""
    horizon, n = 3.0, 2000
    cfg = PathConfig(dt=horizon, horizon=horizon, seed=17, n_paths=1,
                     bridge_correction=bridge)
    hit, n_cross, hit_t, end_x = [], [], [], []
    for pid in range(n):
        tr = simulate_path(params, interval, start, cfg, path_index=pid)
        assert np.all(np.diff(tr.times) > 0) and len(tr.times) == len(tr.values)
        if tr.hit:
            assert tr.hit_time == tr.times[-1] <= horizon
            assert interval.a <= tr.values[-1] <= interval.b
            hit_t.append(tr.hit_time)
        else:
            assert tr.times[-1] == horizon
            assert not interval.contains(tr.values[-1])
            end_x.append(tr.values[-1])
        if tr.k_dagger is not None:
            assert tr.hit and tr.k_dagger == len(tr.crossings)
        hit.append(tr.hit)
        n_cross.append(len(tr.crossings))
    pb = PathBlock.start(params, interval, start, 2 * n, block_stream(18, 0))
    advance(pb, horizon, bridge=bridge)
    dead = ~pb.alive
    assert np.all(pb.t[pb.alive] == horizon)
    p_values = [
        chi2_pvalue(np.array(hit, dtype=int), dead.astype(int)),
        chi2_pvalue(np.array(n_cross), pb.n_cross),
        stats.ks_2samp(hit_t, pb.hit_time[dead]).pvalue,
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


def test_no_bridge_survival_decreases_with_dt(model, interval):
    """Without bridge killing the scheme misses interior touches; refining the
    grid removes survivors monotonically toward the exact estimate."""
    exact_cfg = PathConfig(dt=0.2, horizon=1.0, seed=21, n_paths=150_000)
    exact = estimate_survival(model, interval, 1.3, 0.5, exact_cfg)
    means = []
    for i, dt in enumerate((0.2, 0.1, 0.05, 0.025)):
        cfg = PathConfig(dt=dt, horizon=1.0, seed=22 + i, n_paths=150_000,
                         bridge_correction=False)
        means.append(estimate_survival(model, interval, 1.3, 0.5, cfg).total.mean)
    se = exact.total.stderr
    assert all(m1 > m2 - 3 * se for m1, m2 in zip(means, means[1:]))
    assert means[0] > means[-1] > exact.total.mean - 3 * se
    assert all(m > exact.total.mean - 3 * se for m in means)


@pytest.mark.parametrize("estimate", [
    lambda m, iv, cfg: estimate_clock_event(m, iv, 2.0, 1.0, cfg),
    lambda m, iv, cfg: empirical_crossing_law(m, iv, 2.0, 1, cfg),
    lambda m, iv, cfg: estimate_avoidance(ModelParams(drift=0.5), iv, 2.0, cfg),
    lambda m, iv, cfg: propagate_ensemble(m, iv, "updown", 2.0, cfg),
    lambda m, iv, cfg: drift_probability(m, iv, 2.0, 1.0, cfg),
    lambda m, iv, cfg: occupation_time(m, iv, 2.0, (-1.0, 2.0), (1.0,), cfg),
], ids=["clock", "crossing", "avoidance", "propagate", "drift", "occupation"])
def test_grid_only_mode_is_survival_only(model, interval, estimate):
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=3, n_paths=64, bridge_correction=False)
    with pytest.raises(ValueError, match="survival only"):
        estimate(model, interval, cfg)


def test_no_bridge_terminal_sample_kills_on_grid_only(model, interval):
    """Grid-only paths die only at segment endpoints inside [a, b], so more
    of them survive than exact paths do."""
    exact = PathConfig(dt=0.25, horizon=1.0, seed=9, n_paths=4000)
    grid = PathConfig(dt=0.25, horizon=1.0, seed=9, n_paths=4000, bridge_correction=False)
    _, alive_exact = terminal_sample(model, interval, 1.3, 1.0, exact)
    xs, alive_grid = terminal_sample(model, interval, 1.3, 1.0, grid)
    assert alive_grid.sum() > alive_exact.sum()
    assert not interval.contains(xs[alive_grid]).any()


# -------------------------------------------------------------- clock events

def test_clock_additivity_and_fast_clock(model, interval):
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=31, n_paths=20_000)
    est = estimate_clock_event(model, interval, 2.0, 200.0, cfg)
    assert est.total.mean == pytest.approx(est.above.mean + est.below.mean, abs=1e-15)
    assert est.total.mean > 0.98          # the clock rings almost immediately
    assert est.above.mean > 0.97


def test_clock_resolvent_identity(model):
    """P^x(e_q < passage below 0) = kappa(q) U_q(x): the one-sided passage is
    emulated with a deep interval [-60, 0] (jumping past it is ~e^{-60})."""
    deep = Interval(-60.0, 0.0)
    for i, (q, x) in enumerate([(0.5, 0.5), (0.5, 2.0), (1.0, 0.5), (1.0, 2.0)]):
        cfg = PathConfig(dt=0.1, horizon=1.0, seed=400 + i, n_paths=200_000)
        est = estimate_clock_event(model, deep, x, q, cfg)
        target = kappa(model, q) * potential_q(model, x, q)
        assert est.total.mean == pytest.approx(target, abs=3 * est.total.stderr), (q, x)


# ------------------------------------------------------------- crossing laws

def test_crossing_law_mass_and_shape(model, interval):
    """One k = 3 pass gives the laws of crossings 1, 2 and 3."""
    cfg = PathConfig(dt=1.0, horizon=2000.0, seed=51, n_paths=200_000)
    law = empirical_crossing_law(model, interval, -1.0, 3, cfg)
    assert law.insufficient[:2] == (False, False)
    for j in (1, 2, 3):
        m = law.mass[j - 1]
        assert m.mean == pytest.approx(
            nu(model, interval, -1.0, j).mass,
            abs=3 * m.stderr + law.censor_bias_bound[j - 1]), j
    # odd crossings land above b, even ones below a
    assert np.all(law.positions[0] > interval.b)
    assert np.all(law.positions[1] < interval.a)
    assert np.all(law.positions[2] > interval.b)
    for j in (1, 2):
        assert law.ks_distance[j - 1] <= law.ks_critical[j - 1], j


def test_crossing_law_censor_bounds_cover_the_gap(model, interval):
    """At horizon 50 some 7.5% of paths are censored; each crossing's own
    bound covers the mass those paths would still add."""
    cfg = PathConfig(dt=1.0, horizon=50.0, seed=53, n_paths=200_000)
    law = empirical_crossing_law(model, interval, -1.0, 3, cfg)
    assert 0.05 < law.censored_fraction < 0.1
    for j in (1, 2, 3):
        m, bound = law.mass[j - 1], law.censor_bias_bound[j - 1]
        gap = nu(model, interval, -1.0, j).mass - m.mean
        assert -3 * m.stderr <= gap <= bound + 3 * m.stderr, j
    # the undershoot is real, and a path already past crossing 1 adds nothing
    # to law 1's bound
    assert nu(model, interval, -1.0, 1).mass - law.mass[0].mean > 3 * law.mass[0].stderr
    assert law.censor_bias_bound[0] < law.censored_fraction * gamma_bound(model, interval)


def test_crossing_law_insufficient_flag(model, interval):
    cfg = PathConfig(dt=1.0, horizon=50.0, seed=52, n_paths=500)
    law = empirical_crossing_law(model, interval, -1.0, 2, cfg)
    assert law.insufficient == (True, True)


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

def test_estimators_bit_identical_across_workers(model, interval):
    cfg = PathConfig(dt=0.1, horizon=1.0, seed=71, n_paths=70_000)

    def estimates():
        surv = estimate_survival(model, interval, 2.0, 0.5, cfg)
        # 8 batches of 8750 paths straddle the 8192-path blocks
        dp = drift_probability(model, interval, 2.0, 5.0, cfg)
        snaps = propagate_ensemble(model, interval, "updown", 2.0, cfg,
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
        return surv, clock, avoid, (dp.p_up, dp.p_down, dp.ess_min, dp.resamples,
                                    dp.per_replicate.tobytes()), occ.tobytes(), (
            law.n_paths, law.censored_fraction, law.mass, law.ks_distance,
            law.ks_critical, law.insufficient, law.censor_bias_bound,
            [p.tobytes() for p in law.positions]), [
            (s.time, s.states.tobytes(), s.weights.tobytes(), s.alive.tobytes())
            for s in snaps]

    base = estimates()
    old = os.environ.get("INTERVAL_AVOID_THREADS")
    try:
        os.environ["INTERVAL_AVOID_THREADS"] = "3"
        multi = estimates()
    finally:
        if old is None:
            os.environ.pop("INTERVAL_AVOID_THREADS", None)
        else:
            os.environ["INTERVAL_AVOID_THREADS"] = old
    assert multi == base


def test_crossing_law_deterministic(model, interval):
    cfg = PathConfig(dt=1.0, horizon=200.0, seed=73, n_paths=30_000)
    a = empirical_crossing_law(model, interval, -1.0, 2, cfg)
    b = empirical_crossing_law(model, interval, -1.0, 2, cfg)
    assert a.mass == b.mass and a.censor_bias_bound == b.censor_bias_bound
    assert all(np.array_equal(p, q) for p, q in zip(a.positions, b.positions))


# sha256 of fixed-seed estimator outputs, pinned so that a change to how a
# block gets its stream, its start state or its draws shows up; the clock and
# crossing budgets span two blocks
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
    add(avoid.result, avoid.return_prob_bound, avoid.unresolved)
    law = empirical_crossing_law(model, interval, -1.0, 2,
                                 PathConfig(dt=1.0, horizon=50.0, seed=93, n_paths=9000))
    add(*law.positions, law.mass, law.censor_bias_bound)
    add(*terminal_sample(model, interval, 1.3, 0.7, cfg))
    add(occupation_time(model, interval, 2.0, (-1.0, 2.0), (0.5, 1.0),
                        PathConfig(dt=0.1, horizon=1.0, seed=94, n_paths=500)))
    assert digest.hexdigest() == (
        "370b37bd209449c5cf1c0b00e31a9b44a352cb3bc68e3d6f1ba65a73a0dd4e3f")


# ----------------------------------------------------------------- avoidance

def test_avoidance_requires_drift(model, interval):
    cfg = PathConfig(dt=1.0, horizon=1.0, seed=81, n_paths=100)
    with pytest.raises(ValueError, match="drift"):
        estimate_avoidance(model, interval, 2.0, cfg)


def test_adjustment_coefficient_equation():
    m = ModelParams(drift=0.5)
    g = adjustment_coefficient(m)
    assert 0.0 < g < m.eta
    assert 0.5 * m.sigma**2 * g + m.lam * g / (m.eta**2 - g * g) == pytest.approx(
        m.drift, rel=1e-10)


def test_avoidance_far_start(interval):
    m = ModelParams(drift=0.5)
    cfg = PathConfig(dt=1.0, horizon=1.0, seed=83, n_paths=8192)
    est = estimate_avoidance(m, interval, interval.b + 50.0, cfg)
    assert est.unresolved == 0
    assert est.result.mean >= 1.0 - 3 * est.result.stderr - est.return_prob_bound - 1e-9
    assert est.return_prob_bound < 1e-4


def test_avoidance_monotone_in_start(interval):
    m = ModelParams(drift=0.5)
    cfg1 = PathConfig(dt=1.0, horizon=1.0, seed=85, n_paths=30_000)
    cfg2 = PathConfig(dt=1.0, horizon=1.0, seed=86, n_paths=30_000)
    lo = estimate_avoidance(m, interval, interval.b + 1.0, cfg1)
    hi = estimate_avoidance(m, interval, interval.b + 3.0, cfg2)
    assert lo.result.mean <= hi.result.mean + 3 * math.hypot(lo.result.stderr,
                                                             hi.result.stderr)
