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
from interval_avoid.config import ConfigError, parse_config
from interval_avoid import suites
from interval_avoid.suites import (SUITES, SuiteReport, _hat_moments, _hat_sums,
                                   _interpolation_bias, _occupation_bound, _outer_block,
                                   _outer_estimate, _outer_sums, run_suite)

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
    sum_b, sq_b = _hat_sums(_hat_moments(live[live < IV.a], GRID_BELOW,
                                         np.zeros(np.count_nonzero(live < IV.a))), vb)
    sum_a, sq_a = _hat_sums(_hat_moments(live[live >= IV.a], GRID_ABOVE,
                                         np.zeros(np.count_nonzero(live >= IV.a))), va)
    assert sum_b + sum_a == pytest.approx(w.sum(), rel=1e-12, abs=1e-300)
    assert sq_b + sq_a == pytest.approx(np.sum(w * w), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n", [1000, 8192])
def test_outer_block_returns_grid_sized_moments(n):
    """The outer sample's block result is sized by the grids, not by the
    block: its node weights add up to the block's alive count, and its sums
    of C = exp(-g (xi_{t ^ T} - x)) - 1 run over all paths, dead ones at their
    entry values included, on the draws of the terminal sample's block."""
    model, g = ModelParams(drift=0.5), 0.25
    below, above, sum_c, sq_c = _outer_block(model, IV, 2.0, n, block_stream(14, 0), 1.0,
                                             GRID_BELOW, GRID_ABOVE, g)
    assert below.shape == (4, GRID_BELOW.size) and above.shape == (4, GRID_ABOVE.size)
    xs, alive = engine._terminal_block(model, IV, 2.0, n, block_stream(14, 0), [1.0], True)
    assert below[0].sum() + above[0].sum() == pytest.approx(np.count_nonzero(alive), rel=1e-12)
    c = np.expm1(-g * (xs - 2.0))
    assert sum_c == pytest.approx(c.sum(), rel=1e-12)
    assert sq_c == pytest.approx(np.sum(c * c), rel=1e-12)
    assert below[3].sum() + above[3].sum() == pytest.approx(c[alive].sum(), rel=1e-12)


def _interpolated(xs, alive, vb, va):
    """w = 1(alive) times the linear interpolant of the node values, per path."""
    w = np.where(xs < IV.a,
                 np.interp(np.clip(xs, GRID_BELOW[0], GRID_BELOW[-1]), GRID_BELOW, vb),
                 np.interp(np.clip(xs, GRID_ABOVE[0], GRID_ABOVE[-1]), GRID_ABOVE, va))
    return np.where(alive, w, 0.0)


def _synthetic_outer(seed, n=20_000):
    """Per-path (xi, alive, C) over both grids and beyond their ends, C
    correlated with the interpolant, and node values with anchors at 0."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(IV.a - 7.0, IV.b + 11.0, n)
    alive = rng.random(n) < 0.8
    vb = np.append(rng.uniform(0.0, 1.0, GRID_BELOW.size - 1), 0.0)
    va = np.insert(rng.uniform(0.0, 1.0, GRID_ABOVE.size - 1), 0, 0.0)
    c = np.expm1(-0.3 * (xs - 2.0) + rng.normal(0.0, 0.2, n))
    return xs, alive, c, vb, va


def _reduced(xs, alive, c, blocks=3):
    """The block results of ``_outer_sums`` on consecutive chunks, added up as
    the outer job's finish adds them."""
    parts = [_outer_sums(*chunk, IV.a, GRID_BELOW, GRID_ABOVE)
             for chunk in zip(*(np.array_split(v, blocks) for v in (xs, alive, c)))]
    return engine._add_blocks(parts)


@pytest.mark.parametrize("seed", [1, 2])
def test_controlled_outer_estimate_matches_direct_regression(seed):
    """The block reduction and the controlled finish give the intercept of
    the least-squares fit of w on (1, C), its slope beta and the standard
    error from the fit's residual (divisor n - 2), as a direct numpy
    regression on the same paths does.  The estimate is linear in the node
    values, and the node weights are its coefficients."""
    xs, alive, c, vb, va = _synthetic_outer(seed)
    n = xs.size
    mom_b, mom_a, sum_c, sq_c = _reduced(xs, alive, c)
    result, (wb, wa), beta = _outer_estimate(mom_b, mom_a, sum_c, sq_c, vb, va, n, True)

    w = _interpolated(xs, alive, vb, va)
    design = np.column_stack([np.ones(n), c])
    (intercept, slope), *_ = np.linalg.lstsq(design, w, rcond=None)
    resid = w - design @ np.array([intercept, slope])
    se = math.sqrt(np.sum(resid**2) / (n - 2) / n)
    assert beta == pytest.approx(slope, rel=1e-12)
    assert result.mean == pytest.approx(intercept, rel=1e-12)
    assert result.stderr == pytest.approx(se, rel=1e-12)
    assert wb @ vb + wa @ va == pytest.approx(result.mean, rel=1e-12)
    for i in (3, GRID_BELOW.size + 5):
        bumped = np.concatenate([vb, va])
        bumped[i] += 0.01
        moved, *_ = _outer_estimate(mom_b, mom_a, sum_c, sq_c, bumped[:vb.size],
                                    bumped[vb.size:], n, True)
        weight = np.concatenate([wb, wa])[i]
        assert (moved.mean - result.mean) / 0.01 == pytest.approx(weight, rel=1e-8)


def test_plain_outer_estimate_is_the_mean_of_w():
    """Without the control, beta = 0, the estimate is the plain mean of w
    bit for bit and the node weights are W/n."""
    xs, alive, c, vb, va = _synthetic_outer(3)
    n = xs.size
    mom_b, mom_a, sum_c, sq_c = _reduced(xs, alive, c)
    result, (wb, wa), beta = _outer_estimate(mom_b, mom_a, sum_c, sq_c, vb, va, n, False)
    (sb, qb), (sa, qa) = _hat_sums(mom_b, vb), _hat_sums(mom_a, va)
    assert beta == 0.0 and result == engine._mean_result(sb + sa, qb + qa, n)
    assert np.array_equal(wb, mom_b[0] / n) and np.array_equal(wa, mom_a[0] / n)
    assert result.mean == pytest.approx(_interpolated(xs, alive, vb, va).mean(), rel=1e-12)


def test_interpolation_bias_is_exact_for_a_quadratic():
    """For l quadratic on each side the second differences are exact, so
    the bias estimate equals sum (w - l) over the alive paths inside the
    grids, where the interpolant lies above a convex l and below a concave
    one."""
    rng = np.random.default_rng(4)
    sides = [(GRID_BELOW, lambda x: 0.02 * (x - IV.a) ** 2 - 0.1 * (x - IV.a), 1.0),
             (GRID_ABOVE, lambda x: -0.01 * (x - IV.b) ** 2 + 0.2 * (x - IV.b), -1.0)]
    for grid, l, sign in sides:
        xs = rng.uniform(grid[0], grid[-1], 5000)
        v = l(grid)
        bias = _interpolation_bias(_hat_moments(xs, grid, np.zeros(xs.size)), grid, v)
        assert bias == pytest.approx(np.sum(np.interp(xs, grid, v) - l(xs)), rel=1e-9)
        assert sign * bias > 0.0


def test_transient5_without_the_control_reports_the_plain_mean(monkeypatch):
    """At M3, 2g >= eta and C has no finite variance: avoidance_harmonicity
    observes the plain mean of w bit for bit, and no outer_optional_stopping
    check is reported.  At the default drifted model, 2g < eta, the check
    is reported."""
    seen = []

    def spy(mom_b, mom_a, sum_c, sq_c, vb, va, n, controlled):
        (sb, qb), (sa, qa) = _hat_sums(mom_b, vb), _hat_sums(mom_a, va)
        seen.append((controlled, engine._mean_result(sb + sa, qb + qa, n).mean))
        return _outer_estimate(mom_b, mom_a, sum_c, sq_c, vb, va, n, controlled)

    monkeypatch.setattr(suites, "_outer_estimate", spy)
    report = run_suite(parse_config({**_SETTINGS["M3"], "paths": 2400}, suite="transient5"))
    checks = {c.name: c for c in report.checks}
    assert seen[-1][0] is False and "outer_optional_stopping" not in checks
    assert checks["avoidance_harmonicity"].observed == seen[-1][1]
    report = run_suite(parse_config({"paths": 2400}, suite="transient5"))
    assert seen[-1][0] is True
    assert "outer_optional_stopping" in {c.name for c in report.checks}


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


def test_transient5_paths_below_twelve_is_a_config_error():
    """transient5 gives each of its grid starts paths // 12 paths, so fewer
    than 12 is a ConfigError that names the key and the minimum; 12 runs."""
    for paths in (1, 5, 11):
        with pytest.raises(ConfigError, match=r"paths >= 12.*got paths = %d\)" % paths):
            run_suite(parse_config({"paths": paths}, suite="transient5"))
    assert run_suite(parse_config({"paths": 12}, suite="transient5")).passed


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
