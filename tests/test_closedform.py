import math

import numpy as np
import pytest
from scipy.integrate import quad as sp_quad

from interval_avoid import (Interval, ModelParams, crossing_factor,
                            default_series_depth, gamma_bound,
                            harmonic_plus_partial_sum, harmonic_plus_q_partial_sum,
                            harmonics, nu, overshoot_law,
                            potential, potential_q)
from interval_avoid.closedform import harmonic_minus_q_partial_sum

from oracles import Oracle

ORC = Oracle()


# ------------------------------------------------------------ crossing factor

def test_crossing_factor_value(model, interval):
    c = crossing_factor(model, interval)
    assert c == pytest.approx(0.06311813346854917, rel=1e-14)
    assert c == pytest.approx(float(ORC.crossing_factor()), rel=1e-14)


def test_crossing_factor_limits(model):
    wide = crossing_factor(model, Interval(0.0, 60.0))
    assert wide < 1e-20
    sq2 = math.sqrt(2.0)
    narrow = crossing_factor(model, Interval(0.0, 1e-12))
    assert narrow == pytest.approx((sq2 - 1.0) / (sq2 + 1.0), rel=1e-9)


def test_gamma_bound_value_and_supremum(model, interval):
    gam = gamma_bound(model, interval)
    assert gam == pytest.approx(0.10774939365999787, rel=1e-14)
    assert gam < 1.0
    # supremum of the jump-over mass over starting points, from the law itself
    masses = [overshoot_law(model, interval, x, "up").mass_beyond(interval.b)
              for x in np.linspace(-50.0, -1e-6, 200)]
    assert max(masses) <= gam + 1e-15
    assert max(masses) == pytest.approx(gam, rel=1e-3)


# ------------------------------------------------------------- overshoot law

def test_overshoot_law_from_minus_one(model, interval):
    law = overshoot_law(model, interval, -1.0, "up")
    sq2 = math.sqrt(2.0)
    scale = (sq2 - 1.0) / sq2 * (1.0 - math.exp(-sq2))
    assert law.density_scale == pytest.approx(scale, rel=1e-13)
    assert law.creep_mass == pytest.approx(1.0 - scale, rel=1e-13)
    assert law.creep_mass + law.density_scale / model.eta == pytest.approx(1.0, abs=1e-15)
    assert law.mass_beyond(interval.b) == pytest.approx(0.08155371293611257, rel=1e-13)
    # quadrature of the density reproduces the tail mass
    tail, _ = sp_quad(law.density, interval.b, 60.0)
    assert tail == pytest.approx(law.mass_beyond(interval.b), rel=1e-10)


def test_overshoot_law_near_boundary(model, interval):
    law = overshoot_law(model, interval, interval.a - 1e-14, "up")
    assert law.density_scale == pytest.approx(0.0, abs=1e-13)
    assert law.creep_mass == pytest.approx(1.0, abs=1e-13)


def test_overshoot_law_down_mirrors_up(model, interval):
    up = overshoot_law(model, interval, -1.5, "up")
    down = overshoot_law(model, interval, interval.b + 1.5, "down")
    assert down.density_scale == pytest.approx(up.density_scale, rel=1e-14)
    assert down.boundary == interval.b
    dist = np.array([0.3, 1.7])
    assert np.allclose(down.density(interval.b - dist),
                       up.density(interval.a + dist))


def test_overshoot_law_side_errors(model, interval):
    with pytest.raises(ValueError):
        overshoot_law(model, interval, 2.0, "up")
    with pytest.raises(ValueError):
        overshoot_law(model, interval, -1.0, "down")
    with pytest.raises(ValueError):
        overshoot_law(ModelParams(drift=0.3), interval, -1.0, "up")


# ---------------------------------------------------------- crossing measures

def test_nu_zero_is_point_mass(model, interval):
    m = nu(model, interval, 2.0, 0)
    assert m.is_point_mass and m.mass == 1.0 and m.start == 2.0
    with pytest.raises(ValueError):
        m.density(1.5)


def test_nu_masses_match_oracle(model, interval):
    for start in (-1.0, 2.5):
        for k in (1, 2, 3, 4):
            got = nu(model, interval, start, k).mass
            want = float(ORC.nu_mass(start, k))
            assert got == pytest.approx(want, rel=1e-12), (start, k)


def test_nu_geometric_scaling_exact(model, interval):
    c2 = crossing_factor(model, interval) ** 2
    for start in (-1.0, 3.0):
        for k in (1, 2, 3, 4):
            lo = nu(model, interval, start, k)
            hi = nu(model, interval, start, k + 2)
            assert hi.mass / lo.mass == pytest.approx(c2, rel=1e-12)
            assert hi.side == lo.side
            # same shape, scaled: density ratio constant in y
            ys = (np.array([1.2, 2.0, 4.0]) if lo.side == "above"
                  else np.array([-0.2, -1.0, -3.0]))
            ratios = hi.density(ys) / lo.density(ys)
            assert np.allclose(ratios, c2, rtol=1e-12)


def test_nu_from_minus_one(model, interval):
    m1 = nu(model, interval, -1.0, 1)
    m3 = nu(model, interval, -1.0, 3)
    assert m1.side == "above" and m1.boundary == interval.b
    assert m1.mass == pytest.approx(0.08155371293611257, rel=1e-13)
    assert m3.mass == pytest.approx(0.0003249017368633665, rel=1e-12)
    m2 = nu(model, interval, -1.0, 2)
    assert m2.side == "below" and m2.boundary == interval.a


def test_nu_reflection_symmetry(model, interval):
    mid2 = interval.a + interval.b
    for start in (-1.4, 2.2):
        for k in (1, 2, 3):
            direct = nu(model, interval, start, k)
            mirror = nu(model, interval, mid2 - start, k)
            assert direct.mass == pytest.approx(mirror.mass, rel=1e-13)
            assert direct.side != mirror.side
            y = 2.3 if direct.side == "above" else mid2 - 2.3
            assert direct.density(y) == pytest.approx(mirror.density(mid2 - y), rel=1e-13)


def test_nu_mass_gamma_bound(model, interval):
    gam = gamma_bound(model, interval)
    for k in (1, 2, 3, 5):
        assert nu(model, interval, -1.0, k).mass <= gam**k


def test_nu_rejects_interior_start(model, interval):
    with pytest.raises(ValueError):
        nu(model, interval, 0.5, 1)
    with pytest.raises(ValueError):
        nu(model, interval, interval.a, 1)


# --------------------------------------------------------- harmonic functions

def test_harmonic_values_frozen(model, interval):
    h = harmonics(model, interval)
    assert h.plus(2.0) == pytest.approx(0.8681438383679111, rel=1e-13)
    assert h.minus(2.0) == pytest.approx(0.06783154191662195, rel=1e-13)
    assert h.combined(2.0) == pytest.approx(0.9359753802845330, rel=1e-13)
    assert h.value("plus", -1.0) == pytest.approx(h.minus(2.0), rel=1e-13)


def test_harmonic_values_match_series_oracle(model, interval):
    h = harmonics(model, interval)
    assert h.plus(2.0) == pytest.approx(float(ORC.h_plus(2.0)), rel=1e-11)
    assert h.plus(-1.0) == pytest.approx(float(ORC.h_plus(-1.0)), rel=1e-11)
    assert h.combined(2.0) == pytest.approx(float(ORC.h(2.0)), rel=1e-11)


def test_harmonic_additivity_and_symmetry(model, interval):
    h = harmonics(model, interval)
    rng = np.random.default_rng(11)
    xs = np.concatenate([interval.a - rng.uniform(1e-3, 6, 25),
                         interval.b + rng.uniform(1e-3, 6, 25)])
    assert np.allclose(h.combined(xs), h.plus(xs) + h.minus(xs), rtol=1e-14, atol=0)
    assert np.allclose(h.plus(xs), h.minus(interval.a + interval.b - xs), rtol=1e-12)
    assert np.all(h.plus(xs) > 0) and np.all(h.minus(xs) > 0)


def test_harmonic_boundary_limits(model, interval):
    h = harmonics(model, interval)
    eps = 1e-12
    # h_plus vanishes approaching from the far side, h_minus from the near one
    assert h.plus(interval.a - eps) == pytest.approx(0.0, abs=1e-11)
    assert h.minus(interval.b + eps) == pytest.approx(0.0, abs=1e-11)
    assert h.plus(interval.b + eps) == pytest.approx(0.0, abs=1e-11)


def test_gamma_bound_vanishes_for_wide_interval(model):
    assert gamma_bound(model, Interval(0.0, 80.0)) < 1e-30


def test_harmonic_linear_growth(model, interval):
    h = harmonics(model, interval)
    slope = model.eta / model.beta
    for x in (1e3, 1e6):
        assert h.plus(x) / x == pytest.approx(slope, rel=1e-2 if x < 1e4 else 1e-5)
        assert h.combined(-x) / x == pytest.approx(slope, rel=1e-2 if x < 1e4 else 1e-5)


def test_harmonic_rejects_interval_points(model, interval):
    h = harmonics(model, interval)
    for bad in (interval.a, interval.b, 0.5):
        with pytest.raises(ValueError):
            h.plus(bad)
    with pytest.raises(ValueError):
        h.value("combined", np.array([2.0, 0.25]))
    with pytest.raises(ValueError):
        h.value("nope", 2.0)


# ----------------------------------------------------------------- the series

def test_series_k0_terms(model, interval):
    assert harmonic_plus_partial_sum(model, interval, 2.0, 0) == pytest.approx(
        potential(model, 1.0), rel=1e-14)
    assert harmonic_plus_partial_sum(model, interval, -1.0, 0) == pytest.approx(
        0.06756130792003990, rel=1e-13)
    # term-by-term against quadrature of U against the crossing measures
    for x in (-1.0, 2.0):
        for j in (0, 1, 2):
            direct = (harmonic_plus_partial_sum(model, interval, x, j)
                      - (harmonic_plus_partial_sum(model, interval, x, j - 1) if j else 0.0))
            assert direct == pytest.approx(float(ORC.h_series_term(x, j)), rel=1e-10), (x, j)


def test_series_monotone_and_geometric_tail(model, interval):
    h = harmonics(model, interval)
    c = h.c
    for x in (-2.3, -1.0, 1.7, 4.0):
        closed = float(h.plus(x))
        prev = -math.inf
        for K in range(0, 8):
            part = harmonic_plus_partial_sum(model, interval, x, K)
            # increments shrink below float resolution once c^(2K) ~ 1e-16
            assert part >= prev
            assert part > prev or K >= 5
            assert abs(closed - part) <= c ** (2 * K) * closed * (1 + 1e-12) + 1e-15 * closed
            prev = part


def test_series_matches_closed_form_random_points(model, interval):
    h = harmonics(model, interval)
    c = h.c
    rng = np.random.default_rng(12)
    xs = np.concatenate([interval.a - rng.uniform(1e-3, 8, 10),
                         interval.b + rng.uniform(1e-3, 8, 10)])
    for x in xs:
        closed = float(h.plus(x))
        part = harmonic_plus_partial_sum(model, interval, float(x), 10)
        assert abs(part - closed) <= c**20 * closed + 1e-12


def test_default_series_depth(model, interval):
    K = default_series_depth(model, interval)
    c = crossing_factor(model, interval)
    assert c ** (2 * K) < 1e-12
    assert c ** (2 * (K - 1)) >= 1e-13


# ------------------------------------------------------------- the q-series

def test_q_series_k0_equals_q_potential(model, interval):
    got = harmonic_plus_q_partial_sum(model, interval, 2.0, 0.25, 0)
    assert got == pytest.approx(potential_q(model, 1.0, 0.25), rel=1e-14)
    assert got == pytest.approx(0.7145984811377730, rel=1e-12)


def test_q_series_terms_match_quadrature(model, interval):
    for x in (-1.0, 2.0):
        for j in (0, 1):
            q = 0.3
            direct = (harmonic_plus_q_partial_sum(model, interval, x, q, j)
                      - (harmonic_plus_q_partial_sum(model, interval, x, q, j - 1) if j else 0.0))
            assert direct == pytest.approx(float(ORC.h_q_term(x, j, q)), rel=1e-9), (x, j)


def test_q_series_limits_and_monotonicity(model, interval):
    for x in (-1.0, 2.0):
        for K in (0, 3):
            plain = harmonic_plus_partial_sum(model, interval, x, K)
            assert harmonic_plus_q_partial_sum(model, interval, x, 1e-13, K) == pytest.approx(
                plain, rel=1e-6)
            prev = plain
            for q in (0.05, 0.3, 1.0, 4.0):
                cur = harmonic_plus_q_partial_sum(model, interval, x, q, K)
                assert cur <= prev + 1e-14
                prev = cur


def test_q_series_minus_is_mirror(model, interval):
    got = harmonic_minus_q_partial_sum(model, interval, 2.0, 0.25, 5)
    want = harmonic_plus_q_partial_sum(model, interval, -1.0, 0.25, 5)
    assert got == want


# ------------------------------------------------- finiteness bound (proof chain)

def test_harmonic_bounded_by_potentials(model, interval):
    """h_plus sits under c1 U(x-b) + c2 U(a-x) + c3 built from the tail split.

    With alpha = 0.5, c1 = 1/(1-alpha^2), c2 = alpha/(1-alpha^2), and c3
    derived from the smallest K with int_(K,inf) U(y) mu(dy) <= alpha for the
    ladder jump measure mu(dy) = (beta-eta) eta exp(-eta y) dy.
    """
    alpha = 0.5
    gam = gamma_bound(model, interval)
    assert gam < alpha
    beta, eta = model.beta, model.eta

    def tail_integral(K):
        val, _ = sp_quad(lambda y: potential(model, y) * (beta - eta) * eta
                         * math.exp(-eta * y), K, 80.0)
        return val

    K = 0.0
    while tail_integral(K) > alpha:
        K += 0.25
    c3_const = potential(model, K) * (1.0 / (1.0 - gam) - 1.0 / (1.0 - alpha)) / (gam - alpha)
    c1 = 1.0 / (1.0 - alpha**2)
    c2 = alpha / (1.0 - alpha**2)

    h = harmonics(model, interval)
    xs = np.concatenate([np.linspace(interval.a - 12.0, interval.a - 1e-3, 25),
                         np.linspace(interval.b + 1e-3, interval.b + 12.0, 25)])
    for x in xs:
        bound = c3_const
        if x > interval.b:
            bound += c1 * potential(model, x - interval.b)
        else:
            bound += c2 * potential(model, interval.a - x)
        assert float(h.plus(x)) <= bound + 1e-12
