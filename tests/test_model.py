import math

import mpmath
import numpy as np
import pytest

from interval_avoid import (Interval, ModelParams, clock_probability, kappa, ladder_exponent,
                            laplace_exponent, potential, potential_q,
                            potential_q_total, wiener_hopf_roots)

from oracles import Oracle


# ---------------------------------------------------------------- validation

def test_model_rejects_zero_sigma():
    with pytest.raises(ValueError, match="sigma"):
        ModelParams(sigma=0.0)


@pytest.mark.parametrize("kwargs", [{"eta": 0.0}, {"eta": -1.0},
                                    {"lam": 0.0}, {"lam": -2.0}])
def test_model_rejects_bad_rates(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("kwargs", [{"sigma": math.inf}, {"sigma": math.nan},
                                    {"lam": math.inf}, {"eta": math.inf},
                                    {"drift": math.inf}, {"drift": -math.inf},
                                    {"drift": math.nan}])
def test_model_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        ModelParams(**kwargs)


@pytest.mark.parametrize("a,b", [(-math.inf, 1.0), (0.0, math.inf),
                                 (math.nan, 1.0), (0.0, math.nan)])
def test_interval_rejects_non_finite(a, b):
    with pytest.raises(ValueError):
        Interval(a, b)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [2.0, math.nan]])
def test_require_outside_rejects_non_finite(x):
    with pytest.raises(ValueError, match="finite"):
        Interval(0.0, 1.0).require_outside(x)


def test_interval_requires_strict_order():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    assert Interval(0.0, 1.0).width == 1.0


def test_closed_forms_reject_drift():
    drifted = ModelParams(drift=0.5)
    with pytest.raises(ValueError, match="drift"):
        wiener_hopf_roots(drifted, 1.0)
    with pytest.raises(ValueError, match="drift"):
        potential(drifted, 1.0)
    with pytest.raises(ValueError, match="drift"):
        kappa(drifted, 1.0)


# ---------------------------------------------------------- Laplace exponent

def test_laplace_exponent_fixed_values():
    assert laplace_exponent(ModelParams(eta=2.0), 1.0) == pytest.approx(-4.0 / 3.0, rel=1e-14)
    assert laplace_exponent(ModelParams(eta=1.0), 0.0) == 0.0
    assert laplace_exponent(ModelParams(eta=1.0), 0.5) == pytest.approx(-0.25 - 0.25 / 0.75,
                                                                        rel=1e-14)


def test_laplace_exponent_matches_quadrature_oracle():
    orc = Oracle(eta=1.3)
    m = ModelParams(eta=1.3)
    for theta in (-1.1, -0.4, 0.2, 0.9, 1.25):
        assert laplace_exponent(m, theta) == pytest.approx(float(orc.laplace_exponent(theta)),
                                                           rel=1e-12, abs=1e-14)


def test_laplace_exponent_domain_error():
    m = ModelParams(eta=1.0)
    for theta in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError, match="theta"):
            laplace_exponent(m, theta)


def test_laplace_exponent_drift_term_sign():
    # positive drift adds +drift*theta under E[exp(-theta xi_t)] = exp(-t psi)
    m0 = ModelParams(eta=2.0)
    m1 = ModelParams(eta=2.0, drift=0.7)
    for theta in (-1.0, 0.3, 1.4):
        assert (laplace_exponent(m1, theta) - laplace_exponent(m0, theta)
                == pytest.approx(0.7 * theta, rel=1e-13))


def test_factorisation_identity_random_thetas(model):
    rng = np.random.default_rng(1)
    thetas = rng.uniform(-0.99, 0.99, 100)
    for theta in thetas:
        psi = laplace_exponent(model, theta)
        prod = ladder_exponent(model, theta) * ladder_exponent(model, -theta)
        assert abs(psi - prod) <= 1e-10 * (1.0 + abs(psi))


def test_factorisation_identity_general_parameters():
    m = ModelParams(sigma=0.8, lam=2.5, eta=1.7)
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-0.99 * m.eta, 0.99 * m.eta, 50):
        psi = laplace_exponent(m, theta)
        prod = ladder_exponent(m, theta) * ladder_exponent(m, -theta)
        assert abs(psi - prod) <= 1e-10 * (1.0 + abs(psi))


# ------------------------------------------------------------- Wiener-Hopf

def test_beta_default(model):
    assert model.beta == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert ModelParams(eta=2.0).beta == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert model.beta > model.eta


def test_roots_at_quarter(model):
    r1, r2 = wiener_hopf_roots(model, 0.25)
    o1, o2 = Oracle().roots(0.25)
    assert r1 == pytest.approx(o1, rel=1e-13)
    assert r2 == pytest.approx(o2, rel=1e-13)
    assert r1 * r2 == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_roots_solve_true_rate(sigma):
    """Off sigma = sqrt(2) the roots still solve -psi(rho) = q, and
    kappa(q) = sqrt(2q)/sigma."""
    m = ModelParams(sigma=sigma)
    r1, r2 = wiener_hopf_roots(m, 0.25)
    o1, o2 = Oracle(sigma=sigma).roots(0.25)
    assert r1 == pytest.approx(o1, rel=1e-13)
    assert r2 == pytest.approx(o2, rel=1e-13)
    assert -laplace_exponent(m, r1) == pytest.approx(0.25, rel=1e-13)
    assert kappa(m, 0.25) == pytest.approx(math.sqrt(0.5) / sigma, rel=1e-14)


def test_roots_at_zero(model):
    assert wiener_hopf_roots(model, 0.0) == (0.0, model.beta)


def test_root_identities_random_q(model):
    rng = np.random.default_rng(3)
    for q in rng.uniform(1e-9, 10.0, 100):
        r1, r2 = wiener_hopf_roots(model, q)
        assert abs(r1 * r2 - math.sqrt(q)) <= 1e-12 * math.sqrt(q)
        assert abs(r1**2 + r2**2 - (model.beta**2 + q)) <= 1e-12 * (model.beta**2 + q)


@pytest.mark.parametrize("params", [dict(), dict(sigma=0.7, lam=3.0, eta=2.5),
                                    dict(sigma=0.5, lam=0.2, eta=4.0)])
def test_roots_at_huge_q(params):
    """Past q ~ 1e154 the square s^2 of the discriminant would overflow; the
    roots still match 40-digit values, and the q-potential and the clock
    probabilities stay finite."""
    m = ModelParams(**params)
    for q in (1e160, 1e200, 1e300):
        with mpmath.workdps(40):
            sigma, lam, eta = (mpmath.mpf(v) for v in (m.sigma, m.lam, m.eta))
            p = 2 * mpmath.mpf(q) / sigma**2
            s = eta**2 + 2 * lam / sigma**2 + p
            ref2 = mpmath.sqrt((s + mpmath.sqrt(s * s - 4 * p * eta**2)) / 2)
            ref = (eta * mpmath.sqrt(p) / ref2, ref2)
            for got, want in zip(wiener_hopf_roots(m, q), ref):
                assert abs(got - want) <= 1e-15 * want, q
        assert math.isfinite(potential_q(m, 1.0, q)), q
        assert all(math.isfinite(v) for x in (-1.0, 2.0)
                   for v in clock_probability(m, Interval(0.0, 1.0), x, q)), q


def test_kappa_values(model):
    assert kappa(model, 0.0) == 0.0
    assert kappa(model, 0.25) == pytest.approx(0.5, rel=1e-13)
    assert kappa(model, 1e-4) == pytest.approx(0.01, rel=1e-12)
    rng = np.random.default_rng(4)
    for q in rng.uniform(1e-8, 5.0, 50):
        assert kappa(model, q) == pytest.approx(math.sqrt(q), rel=1e-12)


# -------------------------------------------------------------- potentials

def test_potential_values(model):
    assert potential(model, 0.0) == 0.0
    assert potential(model, 1.0) == pytest.approx(0.8638624380518403, rel=1e-13)
    xs = np.linspace(0.0, 10.0, 200)
    u = potential(model, xs)
    assert np.all(np.diff(u) > 0.0)
    # linear growth with the exponential term exhausted
    beta = model.beta
    assert potential(model, 50.0) - model.eta / beta * 50.0 == pytest.approx(
        (beta - model.eta) / beta**2, rel=1e-10)
    with pytest.raises(ValueError):
        potential(model, -0.1)


def test_potential_density_laplace_transform_identity():
    # LT of the potential density equals the reciprocal ladder exponent
    orc = Oracle()
    for theta in (0.3, 1.0, 2.7):
        assert float(orc.potential_laplace_identity(theta)) < 1e-25


def test_potential_q_values(model):
    assert potential_q(model, 0.0, 0.25) == 0.0
    assert potential_q(model, 1.0, 0.25) == pytest.approx(0.7145984811377730, rel=1e-12)
    assert potential_q(model, 1.0, 0.25) == pytest.approx(float(Oracle().potential_q(1, 0.25)),
                                                          rel=1e-12)
    assert potential_q_total(model, 0.25) == pytest.approx(2.0, rel=1e-12)
    for q in (0.1, 0.5, 2.0):
        assert kappa(model, q) * potential_q_total(model, q) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        potential_q(model, 1.0, 0.0)


def test_potential_q_limits_and_monotonicity(model):
    xs = np.array([0.25, 1.0, 3.0, 7.0])
    u = potential(model, xs)
    u_tiny = potential_q(model, xs, 1e-14)
    assert np.allclose(u_tiny, u, rtol=1e-6)
    prev = u
    for q in (0.01, 0.1, 1.0, 5.0):
        cur = potential_q(model, xs, q)
        assert np.all(cur <= prev + 1e-15)
        prev = cur
