import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from interval_avoid import (EnsembleExtinctionError, ModelParams, PathConfig,
                            drift_probability, harmonicity_residual, harmonics,
                            occupation_time, propagate_ensemble)
from interval_avoid._rng import BLOCK_SIZE, block_stream, iter_blocks
from interval_avoid.engine import PathBlock, _observation_grid, advance


def cfg(seed, n, horizon, dt=0.1):
    return PathConfig(dt=dt, horizon=horizon, seed=seed, n_paths=n)


def sum_arrays(ens):
    return np.stack([ens.weight, ens.weight_sq, ens.weight_above, ens.weight_sq_above,
                     ens.weight_below])


def own_block_sums(model, interval, h_of, start, config, record):
    """Each block's five sums at the record times, taken over its own arrays
    of positions and weights 1{alive} h(x) / h(start)."""
    times = sorted(set(_observation_grid(config.dt, config.horizon)) | set(record))
    blocks = []
    for bi, count in iter_blocks(config.n_paths):
        pb = PathBlock.start(model, interval, start, count, block_stream(config.seed, bi))
        rows = []
        for t in times:
            advance(pb, t)
            if t in record:
                w = np.zeros(count)
                w[pb.alive] = h_of(pb.x[pb.alive]) / float(h_of(start))
                up, down = pb.x > interval.b, pb.x < interval.a
                rows.append([w.sum(), (w**2).sum(), w[up].sum(), (w[up]**2).sum(),
                             w[down].sum()])
        blocks.append(np.array(rows).T)
    return blocks


def test_initial_ensemble(model, interval):
    ens = propagate_ensemble(model, interval, "updown", 2.0,
                             cfg(1, 256, 1.0), record_times=[0.0, 1.0])
    assert ens.times == (0.0, 1.0) and ens.n == 256
    # every weight is 1 at the start, above the interval
    assert list(sum_arrays(ens)[:, 0]) == [256.0, 256.0, 256.0, 256.0, 0.0]


def test_mean_weight_is_martingale(model, interval):
    ens = propagate_ensemble(model, interval, "updown", 2.0,
                             cfg(2, 60_000, 2.0), record_times=[2.0])
    n = ens.n
    mean = ens.weight[-1] / n
    se = math.sqrt((ens.weight_sq[-1] - n * mean * mean) / (n - 1) / n)
    assert mean == pytest.approx(1.0, abs=3 * se)


def test_weights_match_harmonic_ratio(model, interval):
    config = cfg(3, 4096, 1.0)
    ens = propagate_ensemble(model, interval, "plus", 2.0, config, record_times=[1.0])
    (expect,) = own_block_sums(model, interval, harmonics(model, interval).plus, 2.0,
                               config, [1.0])
    assert np.allclose(sum_arrays(ens), expect, rtol=1e-10)


def test_block_sums_merge_in_block_order(model, interval):
    # 20 000 paths: blocks of 8192, 8192 and 3616
    config, record = cfg(22, 20_000, 2.0), [0.0, 0.55, 2.0]
    ens = propagate_ensemble(model, interval, "updown", 2.0, config, record_times=record)
    blocks = own_block_sums(model, interval, harmonics(model, interval).combined, 2.0,
                            config, record)
    assert len(blocks) == 3
    assert np.allclose(sum_arrays(ens), sum(blocks), rtol=1e-12, atol=0.0)


def test_ensemble_memory_is_per_time(model, interval):
    # one block over the 1201 record times of horizon 120: snapshots of
    # states, weights and alive flags would take 160 MiB, the sums 48 kB
    times = [0.0] + _observation_grid(0.1, 120.0)
    tracemalloc.start()
    try:
        ens = propagate_ensemble(model, interval, "updown", 2.0,
                                 cfg(7, BLOCK_SIZE, 120.0), record_times=times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ens.times) == 1201
    assert peak < 16 * 2**20


def test_harmonicity_residual_all_kinds(model, interval):
    for kind, start, t in (("plus", 2.0, 1.0), ("minus", -1.5, 2.0),
                           ("combined", 2.0, 1.0)):
        res = harmonicity_residual(model, interval, kind, start, t,
                                   cfg(4, 150_000, t, dt=1.0))
        assert abs(res.mean) <= 3 * res.stderr, (kind, res)
    assert harmonicity_residual(model, interval, "plus", 2.0, 0.0,
                                cfg(4, 10, 1.0)).mean == 0.0


@pytest.mark.parametrize("drift,kind,start", [(0.0, "combined", 0.5), (0.0, "bogus", 2.0),
                                              (1.0, "combined", 2.0)])
def test_harmonicity_residual_validates_at_time_zero(interval, drift, kind, start):
    """t = 0 rejects what t = 1 rejects: a start inside the interval, an
    unknown kind and a drifted model."""
    for t in (0.0, 1.0):
        with pytest.raises(ValueError):
            harmonicity_residual(ModelParams(drift=drift), interval, kind, start, t,
                                 cfg(4, 10, 1.0))


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
    ens = propagate_ensemble(model, interval, "updown", 2.0, cfg(8, 32_768, 15.0))
    w, w2, w2_up = ens.weight[-1], ens.weight_sq[-1], ens.weight_sq_above[-1]
    grid = ens.weight_above[-1] / w
    # sum w^2 (1{x > b} - grid)^2, split into the paths above b and the rest
    grid_se = math.sqrt((1.0 - grid) ** 2 * w2_up + grid**2 * (w2 - w2_up)) / w
    dp = drift_probability(model, interval, 2.0, 15.0, cfg(20, 16_384, 15.0),
                           transform="updown", replicates=4)
    assert grid == pytest.approx(dp.p_up.mean, abs=3 * math.hypot(grid_se, dp.p_up.stderr))


# sha256 of the weighted sums, pinned so that a kernel or grid-pass change
# that moves any draw shows up
def test_grid_pass_pinned(model, interval):
    ens = propagate_ensemble(model, interval, "updown", 2.0, cfg(21, 8192, 5.0),
                             record_times=[0.0, 1.25, 2.55, 5.0])
    assert hashlib.sha256(sum_arrays(ens).tobytes()).hexdigest() == (
        "173878b5cc7c7e4a478cebb9f56b9c7d41a174ad808ae0c952bd4974cc73b528")


def test_plus_transform_suppresses_downside(model, interval):
    ens = propagate_ensemble(model, interval, "plus", 2.0,
                             cfg(10, 8192, 10.0), record_times=[2.0, 10.0])
    frac_below = ens.weight_below / ens.weight
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
            # one event (the next jump or grid time) per call; a path is
            # frozen at its first event at or above a + b - c
            while (pb.alive & ~pb.frozen & (pb.t < t)).any():
                advance(pb, np.minimum(pb.next_jump, t))
                pb.frozen |= pb.alive & (pb.x >= mirror - c)
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
