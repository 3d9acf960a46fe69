"""The suites away from the default model, the occupation bound, the clock
limit check, and the transient5 suite's outer-sample reduction and
chi-square level."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from interval_avoid import Interval, ModelParams, avoidance_probability, harmonics
from interval_avoid import closedform as cf
from interval_avoid import engine
from interval_avoid._rng import block_stream
from interval_avoid.config import ConfigError, parse_config
from interval_avoid import suites
from interval_avoid.suites import (SUITES, SuiteReport, _CHI2_41, _occupation_bound,
                                   _outer_block, run_suite)

IV = Interval(0.0, 1.0)


@pytest.mark.parametrize("n", [1000, 8192])
def test_outer_block_returns_five_sums(n):
    """The outer sample's block result is five sums, not per-path arrays:
    of w = 1(t<T) l(xi_t) with the closed-form l, and of the control
    C = exp(-g (xi_{t ^ T} - x)) - 1 over all paths, dead ones at their entry
    values included, on the draws of the terminal sample's block."""
    model, g = ModelParams(drift=0.5), 0.25
    sw, sww, sum_c, sq_c, swc = _outer_block(model, IV, 2.0, n, block_stream(14, 0), 1.0, g)
    xs, alive = engine._terminal_block(model, IV, 2.0, n, block_stream(14, 0), 1.0)
    w = np.array([avoidance_probability(model, IV, x) if live else 0.0
                  for x, live in zip(xs, alive)])
    c = np.expm1(-g * (xs - 2.0))
    for got, want in ((sw, w.sum()), (sww, w @ w), (sum_c, c.sum()), (sq_c, c @ c),
                      (swc, w @ c)):
        assert got == pytest.approx(want, rel=1e-12)


def _synthetic_outer(seed, n=20_000):
    """Per-path w (0 on dead paths) and a control C correlated with it."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-7.0, 11.0, n)
    w = np.where(rng.random(n) < 0.8, rng.uniform(0.0, 1.0, n) * (x > 0.0), 0.0)
    c = np.expm1(-0.3 * (x - 2.0) + rng.normal(0.0, 0.2, n))
    return w, c


def _reduced(w, c, blocks=3):
    """The outer block's five sums on consecutive chunks, added up as the
    outer job's finish adds them."""
    parts = [(w_.sum(), np.sum(w_ * w_), c_.sum(), np.sum(c_ * c_), np.sum(w_ * c_))
             for w_, c_ in zip(np.array_split(w, blocks), np.array_split(c, blocks))]
    return engine._add_blocks(parts)


@pytest.mark.parametrize("seed", [1, 2])
def test_controlled_outer_estimate_matches_direct_regression(seed):
    """The controlled mean (``engine._controlled_mean``, on the outer
    block's five sums) gives the intercept and slope of the least-squares
    fit of w on (1, C) and the standard error from the fit's residual
    (divisor n - 2), as a direct numpy regression on the same paths does."""
    w, c = _synthetic_outer(seed)
    n = w.size
    result, beta = engine._controlled_mean(*_reduced(w, c), n)
    design = np.column_stack([np.ones(n), c])
    coef, *_ = np.linalg.lstsq(design, w, rcond=None)
    resid = w - design @ coef
    assert result.mean == pytest.approx(coef[0], rel=1e-12)
    assert beta == pytest.approx(coef[1], rel=1e-12)
    assert result.stderr == pytest.approx(math.sqrt(np.sum(resid**2) / (n - 2) / n),
                                          rel=1e-12)
    assert result.n == n


def test_plain_outer_estimate_is_the_mean_of_w():
    """Without the control (its three sums left at 0) the estimate is the
    plain mean of w and its standard error, bit for bit those of the sums
    of w and w^2, and beta is 0."""
    w, c = _synthetic_outer(3)
    sums = _reduced(w, c)
    result, beta = engine._controlled_mean(*sums[:2], 0.0, 0.0, 0.0, w.size)
    assert result == engine._mean_result(sums[0], sums[1], w.size) and beta == 0.0
    assert result.mean == pytest.approx(w.mean(), rel=1e-12)


def test_chi2_critical_is_the_level_of_three_sigma():
    """The Wilson-Hilferty quantile that avoidance_closed_form compares with
    lies at the upper tail probability 0.00267 at its 41 degrees of freedom."""
    assert stats.chi2.sf(_CHI2_41, 41) == pytest.approx(0.00267, abs=5e-6)


def test_transient5_without_the_control_reports_the_plain_mean(monkeypatch):
    """At M3, 2g >= eta and C has no finite variance: avoidance_harmonicity
    observes the plain mean of w bit for bit, and no outer_optional_stopping
    check is reported.  At the default drifted model, 2g < eta, the check
    is reported."""
    seen = []
    route = engine._controlled_mean

    def spy(sw, sww, sc, scc, swc, n):
        seen.append(((sc, scc, swc) != (0.0, 0.0, 0.0), engine._mean_result(sw, sww, n).mean))
        return route(sw, sww, sc, scc, swc, n)

    monkeypatch.setattr(engine, "_controlled_mean", spy)
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


def test_reports_echo_the_model_their_checks_ran_on():
    """transient5 runs a config at drift 0 at drift 0.5 and any other at its
    own drift, and closedform runs every config at drift 0, so their reports
    echo those drifts."""
    def drift(config, suite):
        return run_suite(parse_config(config, suite=suite)).config_echo["model"]["drift"]

    assert drift({"paths": 12}, "transient5") == 0.5
    assert drift({"model": {"drift": 0.3}, "paths": 12}, "transient5") == 0.3
    assert drift({"model": {"drift": 0.3}}, "closedform") == 0.0


def test_closedform_off_drift_checks_the_frozen_references():
    """closedform runs a drifted config at drift 0, so at the default
    sigma, lambda, eta and interval its checks, its reference gate and its
    echo all read the default model: the 11 frozen-reference checks run."""
    report = run_suite(parse_config({"model": {"drift": 0.3}}, suite="closedform"))
    frozen = [c for c in report.checks
              if c.claim == "closed-form value equals frozen independent evaluation"]
    assert len(frozen) == 11 and all(c.passed for c in frozen)
    assert report.passed and report.config_echo["model"]["drift"] == 0.0


def test_h_additivity_is_scale_free():
    """h_additivity bounds |h - (h_plus + h_minus)| by 4 ulps of the largest
    |h| at its probe points.  Where eta is small h is near 761 and the
    rounding error is one ulp of it, 1.1e-13, above an absolute 1e-13; at
    the default model (h below 4) the bound is far below 1e-13."""
    def additivity(doc):
        report = run_suite(parse_config(doc, suite="closedform"))
        return next(c for c in report.checks if c.name == "h_additivity")

    check = additivity({"model": {"sigma": 0.0108, "lambda": 1.87, "eta": 0.00121},
                        "interval": {"a": -3.883, "b": -3.882}})
    assert check.passed and check.observed > 1e-13
    assert check.tolerance == pytest.approx(4.547e-13, rel=1e-3)
    default = additivity({})
    assert default.passed and default.tolerance < 1e-13 / 50


def _log_uniform(lo, hi):
    """Either end of [lo, hi] or a value drawn uniformly in log scale."""
    return st.one_of(st.sampled_from([lo, hi]),
                     st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sigma=_log_uniform(1e-3, 1e3), lam=_log_uniform(1e-3, 1e3), eta=_log_uniform(1e-3, 1e3),
       eta_w=_log_uniform(1e-9, 700.0), a=st.floats(-5.0, 5.0))
def test_closedform_passes_over_the_valid_range(sigma, lam, eta, eta_w, a):
    """Every closedform check passes, with no traceback, over the config's
    valid range in log scale: sigma, lambda and eta from 1e-3 to 1e3 (either
    end included) and eta w from 1e-9 to 700, so from an interval that the
    jumps barely see to one they cross with chance e^-700.  With a fixed
    1e-12 bound, reflection_symmetry failed at 4 of 216 such models, all
    with w above 3000, where the reflected point a + b - x rounds by more
    than h's own digits."""
    doc = {"model": {"sigma": sigma, "lambda": lam, "eta": eta},
           "interval": {"a": a, "b": a + eta_w / eta}}
    report = run_suite(parse_config(doc, suite="closedform"))
    assert report.passed, [c for c in report.checks if not c.passed]


def test_reflection_symmetry_is_scale_free():
    """reflection_symmetry's bound is 16 ulps of h_plus plus the change of
    h_minus over 4 ulps of the reflected point: at the default model
    1.35e-14, 74 times below the 1e-12 it replaces, and on [4.81, 13861.6]
    (sigma 367, lambda 642, eta 0.00123), where the observed 1.36e-11 failed
    1e-12, wide enough for the reflection's rounding."""
    def reflection(doc):
        report = run_suite(parse_config(doc, suite="closedform"))
        return next(c for c in report.checks if c.name == "reflection_symmetry")

    default = reflection({})
    assert default.passed and default.tolerance == pytest.approx(1.35e-14, rel=0.01)
    wide = reflection({"model": {"sigma": 366.89650246094635, "lambda": 642.032687338903,
                                 "eta": 0.0012252870113306428},
                       "interval": {"a": 4.811950400663443, "b": 13861.63625564147}})
    assert wide.passed and wide.observed > 1e-12


def test_transient5_reports_when_a_grid_start_has_equal_scores():
    """At M3 with 2 paths a grid start, no path from below a jumps over b
    (l is about 1e-4 there), so those starts' scores all equal 1 and their
    sample se is 0: the variance bound stands in, and the chi-square and
    every other check come back finite."""
    report = run_suite(parse_config({**_SETTINGS["M3"], "paths": 24}, suite="transient5"))
    assert all(math.isfinite(v) for c in report.checks
               for v in (c.observed, c.expected, c.tolerance))


def test_far_start_avoids_keeps_its_digits_at_m3():
    """At M3 the far start b + 12.5 returns with probability about 4e-18.
    The check observes the mean return score itself, not 1 minus it, so its
    observed value is a positive, finite probability that a faulty walk can
    push past Lundberg's bound, not a 1.0 that every digit was rounded into."""
    report = run_suite(parse_config({**_SETTINGS["M3"], "paths": 24}, suite="transient5"))
    far = {c.name: c for c in report.checks}["far_start_avoids"]
    assert math.isfinite(far.observed) and 0.0 < far.observed < 1e-12
    assert 0.0 < far.tolerance < far.expected


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


# on [0, 0.1] at eta = 0.01 the O(q) term of the gap to h is large, so the
# limit check holds there only if it cancels that term
_SMALL_ETA = [{"model": {"sigma": sigma, "lambda": lam, "eta": 0.01},
               "interval": {"a": 0.0, "b": 0.1}} for sigma, lam in ((0.5, 0.8), (0.2, 5.0))]


@pytest.mark.parametrize("suite", ["clocklimit", "conditioning"])
def test_clock_limit_catches_a_limit_one_percent_off(monkeypatch, suite):
    """The limit check takes r(q) = (h_plus - scaled(q))/sqrt(q) (h for the
    total) at q = 1e-8, 1e-10, 1e-12 on the closed form, and its Richardson
    values C1 = (10 r(1e-12) - r(1e-10))/9, C2 = (10 r(1e-10) - r(1e-8))/9
    must agree within 1e-3 relative.  It passes at the default model, at M3
    and at the two small-eta models; with the harmonic functions 1% high
    r(q) grows as 0.01 h/sqrt(q), C1/C2 reads about 10 and the check fails."""
    name = "clock_limit_h_plus" if suite == "clocklimit" else "clock_limit_h"
    settings = ({}, _SETTINGS["M3"], *_SMALL_ETA)
    for setting in settings:
        config = parse_config({**setting, "paths": 4096}, suite=suite)
        checks = {c.name: c for c in run_suite(config).checks}
        assert checks[name].passed and checks["scaled_clock_increasing"].passed, setting
    build = cf.harmonics
    monkeypatch.setattr(cf, "harmonics", lambda model, interval: dataclasses.replace(
        build(model, interval), **{f: 1.01 * getattr(build(model, interval), f)
                                   for f in ("slope", "coef_far", "coef_near")}))
    for setting in settings:
        config = parse_config({**setting, "paths": 4096}, suite=suite)
        assert not {c.name: c for c in run_suite(config).checks}[name].passed
