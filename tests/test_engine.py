import math
import os

import numpy as np
import pytest

from interval_avoid import (Interval, ModelParams, PathConfig, bridge_cross_prob,
                            empirical_crossing_law, estimate_avoidance,
                            estimate_clock_event, estimate_survival, kappa, nu,
                            potential_q, simulate_path, terminal_sample)
from interval_avoid.engine import (PathBlock, adjustment_coefficient, advance,
                                   ks_critical_value, ks_distance)
from interval_avoid.particles import (drift_probability, occupation_time,
                                      propagate_ensemble)
from interval_avoid._rng import block_stream


# ------------------------------------------------------------------- config

def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(dt=0.0, horizon=1.0, seed=1, n_paths=10)
    with pytest.raises(ValueError):
        PathConfig(dt=2.0, horizon=1.0, seed=1, n_paths=10)
    with pytest.raises(ValueError):
        PathConfig(dt=0.1, horizon=1.0, seed=1, n_paths=0)


# ------------------------------------------------------------------- bridge

def test_bridge_cross_prob_values():
    sq2 = math.sqrt(2.0)
    assert bridge_cross_prob(0.0, 1.0, 0.1, 0.0, "above", sq2) == 1.0
    assert bridge_cross_prob(1.0, 0.0, 0.1, 0.0, "above", sq2) == 1.0
    assert bridge_cross_prob(1.0, 1.0, 0.1, 0.0, "above", sq2) == pytest.approx(
        math.exp(-10.0), rel=1e-13)
    assert bridge_cross_prob(0.4, 2.0, 0.3, 0.0, "above", sq2) == bridge_cross_prob(
        2.0, 0.4, 0.3, 0.0, "above", sq2)
    assert bridge_cross_prob(-1.0, -2.0, 0.5, 0.0, "below", 1.0) <= 1.0
    with pytest.raises(ValueError):
        bridge_cross_prob(-1.0, 1.0, 0.1, 0.0, "above", sq2)


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
    p = bridge_cross_prob(x0, x1, dt, level, "above", sigma)
    se = math.sqrt(p_hat * (1 - p_hat) / n)
    assert p_hat <= p + 3 * se                 # discrete monitoring undercounts
    shifted = level - 0.5826 * sigma * math.sqrt(h)
    p_disc = bridge_cross_prob(x0, x1, dt, shifted, "above", sigma)
    assert p_hat == pytest.approx(p_disc, abs=3 * se + 0.01 * p)


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
    """With dt = horizon the recorder's event-by-event kernel calls end where
    one advance call to the horizon on the same stream ends."""
    horizon = 3.0
    cfg = PathConfig(dt=horizon, horizon=horizon, seed=17, n_paths=1,
                     bridge_correction=bridge)
    for pid in range(50):
        tr = simulate_path(params, interval, start, cfg, path_index=pid)
        pb = PathBlock.start(params, interval, start, 1, block_stream(17, pid))
        advance(pb, horizon, bridge=bridge)
        assert tr.hit == (not pb.alive[0])
        assert len(tr.crossings) == pb.n_cross[0]
        if tr.hit:
            assert tr.hit_time == pb.hit_time[0] == tr.times[-1]
            assert tr.values[-1] == pb.hit_value[0]
            assert tr.k_dagger == (pb.k_dagger[0] if pb.k_dagger[0] >= 0 else None)
        else:
            assert tr.times[-1] == horizon == pb.t[0]
            assert tr.values[-1] == pb.x[0]


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
    lambda m, iv, cfg: occupation_time(m, iv, 2.0, (-1.0, 2.0), 1.0, cfg),
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
    cfg = PathConfig(dt=1.0, horizon=2000.0, seed=51, n_paths=200_000)
    law = empirical_crossing_law(model, interval, -1.0, 1, cfg)
    assert not law.insufficient
    target = nu(model, interval, -1.0, 1).mass
    assert law.mass.mean == pytest.approx(
        target, abs=3 * law.mass.stderr + law.censor_bias_bound)
    assert law.ks_distance <= law.ks_critical
    assert np.all(law.positions > interval.b)


def test_crossing_law_insufficient_flag(model, interval):
    cfg = PathConfig(dt=1.0, horizon=50.0, seed=52, n_paths=500)
    law = empirical_crossing_law(model, interval, -1.0, 2, cfg)
    assert law.insufficient


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
    base = estimate_survival(model, interval, 2.0, 0.5, cfg)
    old = os.environ.get("INTERVAL_AVOID_THREADS")
    try:
        os.environ["INTERVAL_AVOID_THREADS"] = "3"
        multi = estimate_survival(model, interval, 2.0, 0.5, cfg)
    finally:
        if old is None:
            os.environ.pop("INTERVAL_AVOID_THREADS", None)
        else:
            os.environ["INTERVAL_AVOID_THREADS"] = old
    assert multi == base


def test_crossing_law_deterministic(model, interval):
    cfg = PathConfig(dt=1.0, horizon=200.0, seed=73, n_paths=30_000)
    a = empirical_crossing_law(model, interval, -1.0, 1, cfg)
    b = empirical_crossing_law(model, interval, -1.0, 1, cfg)
    assert a.mass == b.mass and np.array_equal(a.positions, b.positions)


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
