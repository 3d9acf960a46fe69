import hashlib
import math

import numpy as np
import pytest

from interval_avoid import (EnsembleExtinctionError, PathConfig,
                            drift_probability, harmonicity_residual, harmonics,
                            occupation_time, propagate_ensemble)
from interval_avoid._rng import block_stream
from interval_avoid.engine import PathBlock, _observation_grid, advance


def cfg(seed, n, horizon, dt=0.1):
    return PathConfig(dt=dt, horizon=horizon, seed=seed, n_paths=n)


def test_initial_ensemble(model, interval):
    snaps = propagate_ensemble(model, interval, "updown", 2.0,
                               cfg(1, 256, 1.0), record_times=[0.0, 1.0])
    first = snaps[0]
    assert first.time == 0.0
    assert np.all(first.weights == 1.0)
    assert first.ess == 256.0
    assert first.normalizer == pytest.approx(float(harmonics(model, interval).combined(2.0)))
    assert [s.time for s in snaps] == [0.0, 1.0]


def test_mean_weight_is_martingale(model, interval):
    snaps = propagate_ensemble(model, interval, "updown", 2.0,
                               cfg(2, 60_000, 2.0), record_times=[2.0])
    last = snaps[-1]
    mean = last.weights.mean()
    se = last.weights.std(ddof=1) / math.sqrt(last.n)
    assert mean == pytest.approx(1.0, abs=3 * se)


def test_weights_match_harmonic_ratio(model, interval):
    snaps = propagate_ensemble(model, interval, "plus", 2.0,
                               cfg(3, 4096, 1.0), record_times=[1.0])
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


def test_grid_pass_matches_terminal_weights(model, interval):
    # the weight telescopes: stepping through the dt grid and sampling the
    # horizon in one exact step estimate the same weighted up-fraction
    last = propagate_ensemble(model, interval, "updown", 2.0, cfg(8, 32_768, 15.0))[-1]
    w, up = last.weights, last.states > interval.b
    grid = last.weighted_fraction(up)
    grid_se = math.sqrt(np.sum(w * w * (up - grid) ** 2)) / w.sum()
    dp = drift_probability(model, interval, 2.0, 15.0, cfg(20, 16_384, 15.0),
                           transform="updown", replicates=4)
    assert grid == pytest.approx(dp.p_up.mean, abs=3 * math.hypot(grid_se, dp.p_up.stderr))


# sha256 of the snapshot states and alive flags, pinned so that a kernel or
# grid-pass change that moves any draw shows up
def test_grid_pass_pinned(model, interval):
    snaps = propagate_ensemble(model, interval, "updown", 2.0, cfg(21, 8192, 5.0),
                               record_times=[0.0, 1.25, 2.55, 5.0])
    digest = hashlib.sha256()
    for s in snaps:
        digest.update(s.states.tobytes())
        digest.update(s.alive.tobytes())
    assert digest.hexdigest() == (
        "6fc047125b2400ff1094765199926056a6908aa27c8d0b82861fced368d17ffd")


def test_plus_transform_suppresses_downside(model, interval):
    snaps = propagate_ensemble(model, interval, "plus", 2.0,
                               cfg(10, 8192, 10.0), record_times=[2.0, 10.0])
    frac_below = [s.weighted_fraction(s.states < interval.a) for s in snaps]
    assert frac_below[-1] <= frac_below[0] + 0.01
    assert frac_below[-1] < 0.02


def test_downward_escape_vanishes_under_plus(model, interval):
    """P^plus(reach (-inf, c] by time 12) is the average of
    1{passage} h_plus(position at passage) / h_plus(start) over killed paths
    (the stopping-time form of the change of measure); it vanishes as c
    falls.  The centred model is symmetric under x -> a + b - x, and
    h_plus(x) = h_minus(a + b - x), so the passage below c from 2 is read off
    as the first event at or above a + b - c from a + b - 2, weighted by
    h_minus."""
    h = harmonics(model, interval)
    mirror = interval.a + interval.b
    probs = []
    for i, c in enumerate((-2.0, -5.0, -10.0)):
        pb = PathBlock.start(model, interval, mirror - 2.0, 16_384, block_stream(12 + i, 0))
        for t in _observation_grid(0.1, 12.0):
            advance(pb, t, exit_above=mirror - c)
        probs.append(h.minus(pb.x[pb.frozen]).sum() / float(h.minus(mirror - 2.0)) / pb.n)
    assert 0.0 <= probs[0] < 0.05
    assert probs[2] <= probs[1] + 1e-3 <= probs[0] + 2e-3
    assert probs[2] < 1e-3


def test_occupation_time_degenerate_window(model, interval):
    occ = occupation_time(model, interval, 2.0,
                          (interval.a - 1e-9, interval.b + 1e-9), (5.0,),
                          cfg(15, 2048, 5.0))
    assert occ.shape == (2048, 1)
    assert occ.mean() == pytest.approx(0.0, abs=1e-6)


def test_occupation_time_increases_with_horizon(model, interval):
    # one pass: every path's occupation is cumulative, so it never decreases
    occ = occupation_time(model, interval, 2.0, (-2.0, 3.0), (5.0, 20.0, 12.5),
                          cfg(16, 8192, 20.0))
    assert occ.shape == (8192, 3)
    assert np.all(occ[:, 0] <= occ[:, 2]) and np.all(occ[:, 2] <= occ[:, 1])
    assert occ[:, 1].mean() > occ[:, 0].mean()


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
                        (5.0,), cfg(20, 128, 5.0))


@pytest.mark.parametrize("times", [(), (0.0,), (-1.0, 5.0), (math.inf,), (math.nan,)])
def test_horizons_validation(model, interval, times):
    with pytest.raises(ValueError, match="horizons"):
        occupation_time(model, interval, 2.0, (-2.0, 3.0), times, cfg(20, 128, 5.0))
    if times and times[0] != 0.0:
        with pytest.raises(ValueError, match="record times"):
            propagate_ensemble(model, interval, "plus", 2.0, cfg(20, 128, 5.0),
                               record_times=times)
