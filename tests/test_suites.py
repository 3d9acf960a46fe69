"""The suites away from the default model, the occupation bound, and the
transient5 suite's in-block reduction of its outer sample."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interval_avoid import Interval, ModelParams, harmonics
from interval_avoid import engine
from interval_avoid._rng import block_stream
from interval_avoid.config import parse_config
from interval_avoid.suites import (SUITES, SuiteReport, _hat_moments, _hat_sums,
                                   _occupation_bound, _outer_block, run_suite)

IV = Interval(0.0, 1.0)
# transient5's grids at the default interval, with the pinned anchors a and b
GRID_BELOW = np.append(IV.a - np.arange(0.25, 6.01, 0.25)[::-1], IV.a)
GRID_ABOVE = np.insert(IV.b + np.arange(0.25, 10.01, 0.25), 0, IV.b)

_nodes = st.sampled_from(np.concatenate([GRID_BELOW, GRID_ABOVE]).tolist())
_positions = st.one_of(st.floats(IV.a - 12.0, IV.b + 20.0), _nodes)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(vals_below=st.lists(st.floats(0.0, 1.0), min_size=GRID_BELOW.size - 1,
                           max_size=GRID_BELOW.size - 1),
       vals_above=st.lists(st.floats(0.0, 1.0), min_size=GRID_ABOVE.size - 1,
                           max_size=GRID_ABOVE.size - 1),
       paths=st.lists(st.tuples(_positions, st.booleans()), min_size=1, max_size=200))
def test_hat_moments_match_direct_interpolation(vals_below, vals_above, paths):
    """Sum w and sum w^2 over the alive paths from the hat moments equal the
    sums of the interpolated values, with positions beyond both grid ends,
    inside the interval and on its boundary, and dead paths adding 0."""
    xs, alive = (np.array(v) for v in zip(*paths))
    vb, va = np.append(vals_below, 0.0), np.insert(vals_above, 0, 0.0)
    below = xs < IV.a
    w = np.where(below, np.interp(np.clip(xs, GRID_BELOW[0], GRID_BELOW[-1]), GRID_BELOW, vb),
                 np.interp(np.clip(xs, GRID_ABOVE[0], GRID_ABOVE[-1]), GRID_ABOVE, va))
    w = np.where(alive, w, 0.0)

    live = xs[alive]
    sum_b, sq_b = _hat_sums(_hat_moments(live[live < IV.a], GRID_BELOW), vb)
    sum_a, sq_a = _hat_sums(_hat_moments(live[live >= IV.a], GRID_ABOVE), va)
    assert sum_b + sum_a == pytest.approx(w.sum(), rel=1e-12, abs=1e-300)
    assert sq_b + sq_a == pytest.approx(np.sum(w * w), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n", [1000, 8192])
def test_outer_block_returns_grid_sized_moments(n):
    """The outer sample's block result is sized by the grids, not by the
    block, and its node weights add up to the block's alive count, on the
    draws of the terminal sample's block."""
    model = ModelParams(drift=0.5)
    below, above = _outer_block(model, IV, 2.0, n, block_stream(14, 0), 1.0,
                                GRID_BELOW, GRID_ABOVE)
    assert below.shape == (3, GRID_BELOW.size) and above.shape == (3, GRID_ABOVE.size)
    _xs, alive = engine._terminal_block(model, IV, 2.0, n, block_stream(14, 0), [1.0], True)
    assert below[0].sum() + above[0].sum() == pytest.approx(np.count_nonzero(alive), rel=1e-12)


# small budgets: pass/fail at these sizes says nothing, only that a report comes back
_TINY = {"closedform": {}, "overshoot": {"paths": 8192}, "harmonicity": {"paths": 4096},
         "clocklimit": {"paths": 4096}, "conditioning": {"paths": 4096},
         "longtime": {"particles": 1024}, "transient5": {"paths": 2400}}
_SETTINGS = {"M1": {"model": {"sigma": 0.7, "lambda": 3.0, "eta": 2.5}},
             "M3": {"model": {"sigma": 0.5, "lambda": 0.2, "eta": 4.0}},
             "wide": {"interval": {"a": -1.0, "b": 2.0}}}


@pytest.mark.parametrize("setting", sorted(_SETTINGS))
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_reports_off_the_default_model(suite, setting):
    """Every suite runs to a report away from the default model and on a
    wider interval: no start it places may fall inside [a, b], and no check
    reports a NaN or infinite value.  overshoot's nu3_enough_samples fails
    exactly when no third crossing was recorded (at M3 and on [-1, 2] at
    this budget), which is when the ratio reads 0."""
    report = run_suite(parse_config({**_SETTINGS[setting], **_TINY[suite]}, suite=suite))
    assert isinstance(report, SuiteReport) and report.checks
    assert all(math.isfinite(v) for c in report.checks
               for v in (c.observed, c.expected, c.tolerance))
    if suite == "overshoot":
        checks = {c.name: c for c in report.checks}
        enough = checks["nu3_enough_samples"]
        assert enough.passed == (enough.observed >= 1) == (checks["nu3_over_nu1"].observed > 0)


def test_occupation_bound_brownian_limit():
    """As lam -> 0 the model is Brownian motion with volatility sigma killed at
    b, and h(y) = y - b above the interval.  From x = b + 1 its Green density
    is (2/sigma^2) min(1, y - b), so at sigma = 0.5 the expected time in
    (b, b + 2] is 12, and (8/h(x)) int_0^2 min(1, u) u du = 44/3 under the
    h-transform.  Without the factor 2/sigma^2 the bound would read 4."""
    model = ModelParams(sigma=0.5, lam=1e-12)
    x, window = IV.b + 1.0, (IV.a - 2.0, IV.b + 2.0)
    bound = _occupation_bound(model, IV, harmonics(model, IV), x, window)
    assert bound == pytest.approx(32.0, rel=1e-9)    # sup_h 2 * Green bound 16 / h(x) 1
    assert bound >= 44.0 / 3.0
