"""The suites away from the default model, the occupation bound, the clock
limit check, and the transient5 suite's outer-sample reduction and
chi-square level."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from interval_avoid import Interval, ModelParams, avoidance_probability, harmonics
from interval_avoid import closedform as cf
from interval_avoid import engine
from interval_avoid._rng import block_stream
from interval_avoid.config import ConfigError, parse_config
from interval_avoid import suites
from interval_avoid.suites import (SUITES, SuiteReport, _CHI2_41, _occupation_bound,
                                   _outer_block, _outer_estimate, run_suite)

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
    """The controlled finish gives the intercept of the least-squares fit of
    w on (1, C) and the standard error from the fit's residual (divisor
    n - 2), as a direct numpy regression on the same paths does."""
    w, c = _synthetic_outer(seed)
    n = w.size
    result = _outer_estimate(_reduced(w, c), n, True)
    design = np.column_stack([np.ones(n), c])
    coef, *_ = np.linalg.lstsq(design, w, rcond=None)
    resid = w - design @ coef
    assert result.mean == pytest.approx(coef[0], rel=1e-12)
    assert result.stderr == pytest.approx(math.sqrt(np.sum(resid**2) / (n - 2) / n),
                                          rel=1e-12)
    assert result.n == n


def test_plain_outer_estimate_is_the_mean_of_w():
    """Without the control the estimate is the plain mean of w and its
    standard error, bit for bit those of the sums of w and w^2."""
    w, c = _synthetic_outer(3)
    sums = _reduced(w, c)
    result = _outer_estimate(sums, w.size, False)
    assert result == engine._mean_result(sums[0], sums[1], w.size)
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

    def spy(sums, n, controlled):
        seen.append((controlled, engine._mean_result(sums[0], sums[1], n).mean))
        return _outer_estimate(sums, n, controlled)

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


def test_reports_echo_the_model_their_checks_ran_on():
    """transient5 runs a config at drift 0 at drift 0.5 and any other at its
    own drift, and closedform runs every config at drift 0, so their reports
    echo those drifts."""
    def drift(config, suite):
        return run_suite(parse_config(config, suite=suite)).config_echo["model"]["drift"]

    assert drift({"paths": 12}, "transient5") == 0.5
    assert drift({"model": {"drift": 0.3}, "paths": 12}, "transient5") == 0.3
    assert drift({"model": {"drift": 0.3}}, "closedform") == 0.0


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
