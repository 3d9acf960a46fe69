import math

import numpy as np
import pytest

from interval_avoid import (EnsembleExtinctionError, PathConfig,
                            drift_probability, harmonicity_residual, harmonics,
                            occupation_time, propagate_ensemble)


def cfg(seed, n, horizon, dt=0.1):
    return PathConfig(dt=dt, horizon=horizon, seed=seed, n_paths=n)


def test_initial_ensemble(model, interval):
    snaps, sys_ = propagate_ensemble(model, interval, "updown", 2.0,
                                     cfg(1, 256, 1.0), record_times=[0.0, 1.0])
    first = snaps[0]
    assert first.time == 0.0
    assert np.all(first.weights == 1.0)
    assert first.ess == 256.0
    assert first.normalizer == pytest.approx(float(harmonics(model, interval).combined(2.0)))
    assert sys_.resamples >= 0


def test_mean_weight_is_martingale(model, interval):
    # without resampling the mean weight stays at 1 in expectation
    snaps, _ = propagate_ensemble(model, interval, "updown", 2.0,
                                  cfg(2, 60_000, 2.0), ess_threshold=0.0,
                                  record_times=[2.0])
    last = snaps[-1]
    mean = last.weights.mean()
    se = last.weights.std(ddof=1) / math.sqrt(last.n)
    assert mean == pytest.approx(1.0, abs=3 * se)


def test_weights_match_harmonic_ratio(model, interval):
    snaps, sys_ = propagate_ensemble(model, interval, "plus", 2.0,
                                     cfg(3, 4096, 1.0), ess_threshold=0.0,
                                     record_times=[1.0])
    last = snaps[-1]
    h = harmonics(model, interval)
    alive = last.alive
    expect = np.zeros(last.n)
    expect[alive] = h.plus(last.states[alive]) / float(h.plus(2.0))
    assert np.allclose(last.weights, expect, rtol=1e-10)
    assert np.all(last.weights[~alive] == 0.0)


def test_harmonicity_residual_all_kinds(model, interval):
    for kind, start, t in (("plus", 2.0, 1.0), ("minus", -1.5, 2.0),
                           ("combined", 2.0, 1.0)):
        res = harmonicity_residual(model, interval, kind, start, t,
                                   cfg(4, 150_000, t, dt=1.0))
        assert abs(res.mean) <= 3 * res.stderr, (kind, res)
    assert harmonicity_residual(model, interval, "plus", 2.0, 0.0,
                                cfg(4, 10, 1.0)).mean == 0.0


def test_martingale_grid_every_kind(model, interval):
    # each harmonic variant keeps its mean on the full (start, time) grid
    seed = 400
    for kind in ("plus", "minus", "combined"):
        for start in (-2.0, -1.2, 1.5, 3.0):
            for t in (0.25, 1.0, 4.0):
                seed += 1
                res = harmonicity_residual(model, interval, kind, start, t,
                                           cfg(seed, 100_000, max(t, 1.0), dt=1.0))
                assert abs(res.mean) <= 3.0 * res.stderr, (kind, start, t, res)


def test_drift_probability_partition_and_target(model, interval):
    dp = drift_probability(model, interval, 2.0, 30.0, cfg(5, 16_384, 30.0),
                           transform="updown", replicates=4)
    assert dp.p_up.mean + dp.p_down.mean == 1.0
    h = harmonics(model, interval)
    target = float(h.plus(2.0) / h.combined(2.0))
    assert dp.p_up.mean == pytest.approx(target, abs=0.02 + 3 * dp.p_up.stderr)
    assert dp.resamples == 0 and 0 < dp.ess_min <= 16_384 // 4


def test_drift_probability_midpoint_symmetry(model, interval):
    up = drift_probability(model, interval, 2.0, 20.0, cfg(6, 8192, 20.0),
                           transform="updown", replicates=4)
    dn = drift_probability(model, interval, -1.0, 20.0, cfg(7, 8192, 20.0),
                           transform="updown", replicates=4)
    se = 3 * math.hypot(up.p_up.stderr, dn.p_down.stderr) + 0.01
    assert up.p_up.mean == pytest.approx(dn.p_down.mean, abs=se)


def test_resampling_unbiasedness(model, interval):
    # SIR with and without resampling, and the resampling-free terminal
    # importance weights, estimate the same weighted up-fraction at T = 15
    up = {}
    for threshold, seeds in ((0.5, range(8, 14)), (0.0, range(14, 20))):
        fracs, resamples = [], 0
        for seed in seeds:
            snaps, sys_ = propagate_ensemble(model, interval, "updown", 2.0,
                                             cfg(seed, 8192, 15.0),
                                             ess_threshold=threshold)
            fracs.append(snaps[-1].weighted_fraction(snaps[-1].states > interval.b))
            resamples += sys_.resamples
        assert (resamples > 0) == (threshold > 0.0)
        fracs = np.asarray(fracs)
        up[threshold] = (fracs.mean(), fracs.std(ddof=1) / math.sqrt(fracs.size))
    dp = drift_probability(model, interval, 2.0, 15.0, cfg(20, 16_384, 15.0),
                           transform="updown", replicates=4)
    up["terminal"] = (dp.p_up.mean, dp.p_up.stderr)
    for x, y in ((0.5, 0.0), (0.5, "terminal"), (0.0, "terminal")):
        (mx, sx), (my, sy) = up[x], up[y]
        assert mx == pytest.approx(my, abs=3 * math.hypot(sx, sy)), (x, y, up)


def test_plus_transform_suppresses_downside(model, interval):
    snaps, _ = propagate_ensemble(model, interval, "plus", 2.0,
                                  cfg(10, 8192, 10.0), record_times=[2.0, 10.0])
    frac_below = [s.weighted_fraction(s.states < interval.a) for s in snaps]
    assert frac_below[-1] <= frac_below[0] + 0.01
    assert frac_below[-1] < 0.02


def test_stopping_time_weight_identity(model, interval):
    """On shared paths, the particle estimate of a first-passage probability
    is exactly the average of h(position)/h(start) over the recorded
    passages (the stopping-time form of the change of measure)."""
    h = harmonics(model, interval)
    snaps, sys_ = propagate_ensemble(model, interval, "plus", 2.0,
                                     cfg(11, 8192, 10.0), ess_threshold=0.0,
                                     record_times=[10.0], track_level=-2.0)
    lw = sys_.level_weight
    passed = ~np.isnan(lw)
    lhs = np.where(passed, lw, 0.0)
    rhs = np.zeros_like(lhs)
    rhs[passed] = h.plus(sys_.block.level_value[passed]) / float(h.plus(2.0))
    assert np.array_equal(lhs, rhs)        # same-path identity, exact per path
    assert 0.0 <= lhs.mean() < 0.05


def test_downward_escape_vanishes_under_plus(model, interval):
    probs = []
    for i, c in enumerate((-2.0, -5.0, -10.0)):
        snaps, sys_ = propagate_ensemble(model, interval, "plus", 2.0,
                                         cfg(12 + i, 16_384, 12.0),
                                         ess_threshold=0.0,
                                         record_times=[12.0], track_level=c)
        lw = np.nan_to_num(sys_.level_weight, nan=0.0)
        probs.append(lw.sum() / sys_.block.n)
    assert probs[0] < 0.05
    assert probs[2] <= probs[1] + 1e-3 <= probs[0] + 2e-3
    assert probs[2] < 1e-3


def test_occupation_time_degenerate_window(model, interval):
    occ = occupation_time(model, interval, 2.0,
                          (interval.a - 1e-9, interval.b + 1e-9), 5.0,
                          cfg(15, 2048, 5.0), replicates=2)
    assert occ.mean == pytest.approx(0.0, abs=1e-6)


def test_occupation_time_increases_with_horizon(model, interval):
    o1 = occupation_time(model, interval, 2.0, (-2.0, 3.0), 5.0,
                         cfg(16, 8192, 5.0), replicates=4)
    o2 = occupation_time(model, interval, 2.0, (-2.0, 3.0), 20.0,
                         cfg(17, 8192, 20.0), replicates=4)
    assert o2.mean > o1.mean


def test_extinction_reported(model, interval):
    with pytest.raises(EnsembleExtinctionError) as err:
        propagate_ensemble(model, interval, "updown", interval.b + 0.01,
                           cfg(18, 4, 50.0), record_times=[50.0])
    assert err.value.n == 4
    assert "extinct" in str(err.value)


def test_invalid_transform_rejected(model, interval):
    with pytest.raises(ValueError):
        propagate_ensemble(model, interval, "sideways", 2.0, cfg(19, 16, 1.0))


def test_window_validation(model, interval):
    with pytest.raises(ValueError):
        occupation_time(model, interval, 2.0, (interval.a + 0.1, interval.b + 1.0),
                        5.0, cfg(20, 128, 5.0))
