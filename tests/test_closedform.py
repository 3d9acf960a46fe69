import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as sp_quad

from interval_avoid import (Interval, ModelParams, avoidance_probability, clock_probability,
                            crossing_factor, gamma_bound, harmonic_plus_partial_sum, harmonics,
                            kappa, nu, overshoot_law, potential, potential_q)
from interval_avoid import closedform as cf
from mpmath import mpf, workdps
from mpmath import sqrt as mp_sqrt

from generator import generator
from oracles import AVOIDANCE, CLOCK, CLOCK_Q, Oracle

ORC = Oracle()


def _lattice(lo, hi):
    """Multiples of 2**-10 in [lo, hi]: interval ends, points and their
    mirror images a + b - x are then exact, so a symmetry check measures the
    closed forms and not the rounding of its own inputs."""
    return st.integers(round(lo * 1024), round(hi * 1024)).map(lambda k: k / 1024)


# random centred models and intervals; the default model is an @example
MODELS = dict(sigma=st.floats(0.2, 4.0), lam=st.floats(0.05, 5.0),
              eta=st.floats(0.1, 5.0), a=_lattice(-3.0, 3.0), width=_lattice(0.01, 4.0))
DEFAULT = dict(sigma=math.sqrt(2.0), lam=1.0, eta=1.0, a=0.0, width=1.0)
DISTANCES = st.lists(_lattice(0.001, 8.0), min_size=1, max_size=12)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _pair(sigma, lam, eta, a, width):
    return ModelParams(sigma=sigma, lam=lam, eta=eta), Interval(a, a + width)


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

def test_nu_conditional_cdf_both_sides(model, interval):
    """P(Y <= y) rises from 0 to 1 on either side; below the interval it is
    the mirror image of the law above."""
    above = nu(model, interval, -1.0, 1)
    below = nu(model, interval, 2.0, 1)
    assert (above.side, below.side) == ("above", "below")
    dist = np.array([0.0, 0.3, 1.7, 40.0])
    assert np.allclose(below.conditional_cdf(interval.a - dist),
                       1.0 - above.conditional_cdf(interval.b + dist), rtol=1e-14)
    ys = np.linspace(-8.0, -1e-9, 50)
    assert np.all(np.diff(below.conditional_cdf(ys)) > 0.0)
    assert below.conditional_cdf(interval.a) == 1.0
    assert above.conditional_cdf(interval.b) == 0.0


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


@PROPERTY
@given(**MODELS, dists=DISTANCES)
@example(**DEFAULT, dists=[1.4, 1.2])
def test_nu_reflection_symmetry(sigma, lam, eta, a, width, dists):
    model, interval = _pair(sigma, lam, eta, a, width)
    mid2 = interval.a + interval.b
    for i, dist in enumerate(dists):
        start = interval.a - dist if i % 2 == 0 else interval.b + dist
        for k in (1, 2, 3):
            direct = nu(model, interval, start, k)
            mirror = nu(model, interval, mid2 - start, k)
            assert direct.mass == pytest.approx(mirror.mass, rel=1e-13)
            assert direct.side != mirror.side
            y = interval.b + 1.3 if direct.side == "above" else interval.a - 1.3
            assert direct.density(y) == pytest.approx(mirror.density(mid2 - y), rel=1e-13)


@PROPERTY
@given(**MODELS, dists=DISTANCES)
@example(**DEFAULT, dists=[1.0])
def test_nu_mass_gamma_bound(sigma, lam, eta, a, width, dists):
    model, interval = _pair(sigma, lam, eta, a, width)
    gam = gamma_bound(model, interval)
    assert gam < 1.0
    for i, dist in enumerate(dists):
        start = interval.a - dist if i % 2 == 0 else interval.b + dist
        for k in (1, 2, 3, 5):
            assert nu(model, interval, start, k).mass <= gam**k


def test_jump_over_mass_is_nu_one_bit_for_bit(model, interval):
    """The vectorised m1(x) that credits censored crossing paths equals
    nu_1's mass at every point on both sides, bit for bit, and so does the
    first-passage law's mass beyond the far boundary, the route nu took
    before m1 had its own helper."""
    dist = np.concatenate([np.geomspace(1e-9, 60.0, 400), [0.3, 1.0, 2.5]])
    for xs, direction, far in ((interval.a - dist, "up", interval.b),
                               (interval.b + dist, "down", interval.a)):
        m1 = cf._jump_over_mass(model, interval, xs)
        assert m1.shape == xs.shape
        for x, got in zip(xs, m1):
            assert got == nu(model, interval, float(x), 1).mass, x
            assert got == overshoot_law(model, interval, float(x), direction).mass_beyond(far), x
    assert cf._jump_over_mass(model, interval, -1.0) == nu(model, interval, -1.0, 1).mass
    with pytest.raises(ValueError):
        cf._jump_over_mass(model, interval, np.array([-1.0, 0.5]))


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


@PROPERTY
@given(**MODELS, dists=DISTANCES)
@example(**DEFAULT, dists=[0.001, 0.3, 1.0, 2.5, 6.0])
def test_harmonic_additivity_and_symmetry(sigma, lam, eta, a, width, dists):
    model, interval = _pair(sigma, lam, eta, a, width)
    h = harmonics(model, interval)
    s = np.asarray(dists)
    xs = np.concatenate([interval.a - s, interval.b + s])
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


@PROPERTY
@given(**MODELS, dists=DISTANCES)
@example(**DEFAULT, dists=[0.001, 0.7, 3.0, 8.0])
def test_series_matches_closed_form_random_points(sigma, lam, eta, a, width, dists):
    # the partial sum through K = 10 misses at most c^(2K) of the closed form
    model, interval = _pair(sigma, lam, eta, a, width)
    h = harmonics(model, interval)
    for dist in dists:
        for x in (interval.a - dist, interval.b + dist):
            closed = float(h.plus(x))
            part = harmonic_plus_partial_sum(model, interval, x, 10)
            assert abs(part - closed) <= (h.c**20 + 1e-13) * closed, (x, part, closed)


# ------------------------------------------------ generator residuals of h

SIDES = (-3.0, -0.2, -1e-3, 1e-3, 0.5, 4.0)     # x - a below a, x - b above b


def _side_points(interval):
    return [interval.a + d if d < 0 else interval.b + d for d in SIDES]


def _harmonic_function(h, kind):
    """h_plus (``kind`` "plus") or h_minus and its derivatives outside
    [a, b], f(x, k) = the k-th, written out from the ``Harmonics`` fields."""
    beta, iv = h.params.beta, h.interval

    def f(x, k=0):
        up = x > iv.b
        s = x - iv.b if up else iv.a - x
        slope, coef = (h.slope, h.coef_far) if up == (kind == "plus") else (0.0, h.coef_near)
        e = math.exp(-beta * s)
        value = (slope * s + coef * -math.expm1(-beta * s), slope + coef * beta * e,
                 -coef * beta * beta * e)[k]
        return value * (1.0 if up else -1.0) ** k
    return f


def _harmonic_residuals(model, interval):
    """L h(x) / (1 + lam h(x)) for h = h_plus and h_minus at the points
    SIDES; each function written out is the library's to 1e-14."""
    h = cf.harmonics(model, interval)
    out = []
    for kind in ("plus", "minus"):
        f = _harmonic_function(h, kind)
        for x in _side_points(interval):
            assert f(x) == pytest.approx(h.value(kind, x), rel=1e-14)
            out.append(generator(model, interval, f, lambda y: f(y, 1), lambda y: f(y, 2), x)
                       / (1.0 + model.lam * f(x)))
    return np.array(out)


@PROPERTY
@given(**MODELS)
@example(**DEFAULT)
@example(**dict(DEFAULT, a=-1.0, width=3.0))
def test_harmonics_are_harmonic(sigma, lam, eta, a, width):
    """|L h(x)| <= 1e-12 (1 + lam h(x)) for h_plus and h_minus off [a, b],
    near each end and far from it, with the generator by quadrature; over
    400 random models quad left at most 7e-14."""
    assert np.max(np.abs(_harmonic_residuals(*_pair(sigma, lam, eta, a, width)))) <= 1e-12


@pytest.mark.parametrize("defect", ["coef_near", "c"])
def test_harmonic_residual_catches_planted_defects(monkeypatch, defect):
    """The residual fails on coef_near times 1.01 or on the crossing factor c
    times 1.001 inside ``harmonics``, at the default model, M1, M3 and on
    [-1, 2]."""
    if defect == "coef_near":
        build = cf.harmonics
        monkeypatch.setattr(cf, "harmonics", lambda model, interval: dataclasses.replace(
            build(model, interval), coef_near=1.01 * build(model, interval).coef_near))
    else:
        factor = cf.crossing_factor
        monkeypatch.setattr(cf, "crossing_factor",
                            lambda model, interval: 1.001 * factor(model, interval))
    for (sigma, lam, eta), iv in (((math.sqrt(2.0), 1.0, 1.0), Interval(0.0, 1.0)),
                                  ((0.7, 3.0, 2.5), Interval(0.0, 1.0)),
                                  ((0.5, 0.2, 4.0), Interval(0.0, 1.0)),
                                  ((math.sqrt(2.0), 1.0, 1.0), Interval(-1.0, 2.0))):
        model = ModelParams(sigma=sigma, lam=lam, eta=eta)
        assert np.max(np.abs(_harmonic_residuals(model, iv))) > 1e-9


# ------------------------------------------------- clock probabilities

QS = st.floats(1e-4, 10.0)


def _clock_function(model, interval, q, side):
    """P_x(e_q < T, side) and its derivatives outside [a, b], f(x, k) = the
    k-th, written out from the closed form's coefficients."""
    rho1, rho2, A, B, m, c_q, u_q = cf._clock_coefficients(model, interval, q)
    kap, loop = rho1 * rho2 / model.eta, m * u_q / (1.0 - c_q * c_q)

    def f(x, k=0):
        up = x > interval.b
        s = x - interval.b if up else interval.a - x
        e1, e2 = ((-r) ** k * math.exp(-r * s) for r in (rho1, rho2))
        out = loop * (e1 - e2 if k else e1 * -math.expm1(-(rho2 - rho1) * s))
        if up == (side == "above"):      # plus U_q(s) or its k-th derivative
            out = c_q * out + (-A / rho1 * math.expm1(-rho1 * s) - B / rho2 * math.expm1(-rho2 * s)
                               if k == 0 else -A / rho1 * e1 - B / rho2 * e2)
        return kap * out * (1.0 if up else -1.0) ** k
    return f


def _clock_residuals(model, interval, q):
    """((q - L) f - q 1{x on the side}) / (q + lam) for both sides' f at the
    points SIDES; each function written out is ``clock_probability``."""
    out = []
    for i, side in enumerate(("above", "below")):
        f = _clock_function(model, interval, q, side)
        for x in _side_points(interval):
            assert clock_probability(model, interval, x, q)[i] == pytest.approx(f(x), rel=1e-13)
            on = x > interval.b if side == "above" else x < interval.a
            lf = generator(model, interval, f, lambda y: f(y, 1), lambda y: f(y, 2), x)
            out.append((q * f(x) - lf - q * on) / (q + model.lam))
    return np.array(out)


@PROPERTY
@given(**MODELS, q=QS)
@example(**DEFAULT, q=0.1)
@example(**dict(DEFAULT, a=-1.0, width=3.0), q=0.01)
def test_clock_probability_is_resolvent(sigma, lam, eta, a, width, q):
    """(q - L) f = q 1{side} off [a, b] for f = P_x(e_q < T, side), both
    sides (Feynman-Kac), near each end and far from it, to 1e-12 relative to
    the rate q + lam; over 400 random models and q in [1e-4, 10] quad left
    at most 1.3e-15."""
    model, interval = _pair(sigma, lam, eta, a, width)
    assert np.max(np.abs(_clock_residuals(model, interval, q))) <= 1e-12


@pytest.mark.parametrize("defect", ["c_q", "u_q"])
def test_clock_residual_catches_planted_defects(monkeypatch, defect):
    """The resolvent identity fails, by more than 10 times its bound, on c_q
    times 1.001 or u_q times 1.01 at the default model, M1 and M3, at
    q = 0.5, 0.1 and 0.01 (c_q's least residual, 1.7e-10, is at M3, where
    c_q is 4e-4)."""
    coefficients = cf._clock_coefficients

    def planted(model, interval, q):
        rho1, rho2, A, B, m, c_q, u_q = coefficients(model, interval, q)
        if defect == "c_q":
            return rho1, rho2, A, B, m, 1.001 * c_q, u_q
        return rho1, rho2, A, B, m, c_q, 1.01 * u_q

    monkeypatch.setattr(cf, "_clock_coefficients", planted)
    for sigma, lam, eta in ((math.sqrt(2.0), 1.0, 1.0), (0.7, 3.0, 2.5), (0.5, 0.2, 4.0)):
        for q in (0.5, 0.1, 0.01):
            model = ModelParams(sigma=sigma, lam=lam, eta=eta)
            assert np.max(np.abs(_clock_residuals(model, Interval(0.0, 1.0), q))) > 1e-11


def test_clock_probability_wide_interval_is_q_potential(model):
    """Across a wide interval no jump clears it, so from b + s the clock rings
    above b with kappa(q) U_q(s), before the first passage below b, and
    below a with probability 0 to e^{-60}."""
    wide = Interval(-60.0, 0.0)
    above, below = clock_probability(model, wide, 1.0, 0.25)
    assert above == pytest.approx(kappa(model, 0.25) * potential_q(model, 1.0, 0.25), rel=1e-14)
    assert above == pytest.approx(0.5 * 0.7145984811377730, rel=1e-12)
    assert 0.0 < below < 1e-26


def test_clock_probability_matches_oracle(model, interval):
    """Both sides match the 40-digit values of the oracle's collocation
    route: far from the interval, on both sides, and the far side's small
    value 1e-3 above b, which the closed form takes without cancellation."""
    for x, values in CLOCK.items():
        for got, value in zip(clock_probability(model, interval, x, CLOCK_Q), values):
            assert got == pytest.approx(float(value), rel=1e-14), x


def test_clock_oracle_values():
    """The frozen values are the oracle's at 40 digits."""
    with workdps(40):
        for x, pair, frozen in zip(CLOCK, Oracle(sigma=mp_sqrt(2)).clock(CLOCK_Q, list(CLOCK)),
                                   CLOCK.values()):
            for value, digits in zip(pair, frozen):
                assert abs(value / mpf(digits) - 1) <= mpf(10) ** -38, x


@PROPERTY
@given(**MODELS, dists=DISTANCES)
@example(**DEFAULT, dists=[0.001, 1.0, 6.0])
def test_clock_probability_increases_to_harmonics(sigma, lam, eta, a, width, dists):
    """Scaled by kappa(q), both sides increase strictly as q falls from 4 to
    1e-8 and stay below their limits h_plus and h_minus, which the
    two sides reach within 1% at q = 1e-8 (4.6e-3 at worst over 3000 random
    models); the two sides' sum is at most 1."""
    model, interval = _pair(sigma, lam, eta, a, width)
    h = harmonics(model, interval)
    s = np.asarray(dists)
    xs = np.concatenate([interval.a - s, interval.b + s])
    scaled = []
    for q in (4.0, 1.0, 0.3, 0.05, 1e-4, 1e-8):
        up, down = clock_probability(model, interval, xs, q)
        assert np.all(up + down <= 1.0 + 1e-15)
        scaled.append(np.concatenate([up, down]) / kappa(model, q))
    limit = np.concatenate([h.plus(xs), h.minus(xs)])
    assert np.all(np.diff(scaled, axis=0) > 0.0)
    assert np.all(scaled[-1] < limit) and np.all(scaled[-1] > 0.99 * limit)


@PROPERTY
@given(**MODELS, dists=DISTANCES, q=QS)
@example(**DEFAULT, dists=[2**-10, 1.0], q=0.1)
def test_clock_probability_mirror(sigma, lam, eta, a, width, dists, q):
    """By the symmetry of the jumps, the clock rings above b from x as often
    as below a from a + b - x; the lattice makes the mirror points exact."""
    model, interval = _pair(sigma, lam, eta, a, width)
    s = np.asarray(dists)
    xs = np.concatenate([interval.a - s, interval.b + s])
    up, down = clock_probability(model, interval, xs, q)
    mirror_up, mirror_down = clock_probability(model, interval, interval.a + interval.b - xs, q)
    assert np.array_equal(up, mirror_down) and np.array_equal(down, mirror_up)


def test_clock_probability_rejects_bad_input(model, interval):
    for q in (0.0, -0.5, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="q"):
            clock_probability(model, interval, 2.0, q)
    with pytest.raises(ValueError, match="outside"):
        clock_probability(model, interval, [2.0, 0.5], 0.1)
    with pytest.raises(ValueError, match="centred"):
        clock_probability(ModelParams(drift=0.5), interval, 2.0, 0.1)
    up, down = clock_probability(model, interval, 2.0, 0.1)
    assert isinstance(up, float) and isinstance(down, float)


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


# ------------------------------------------ avoidance probability (drift > 0)

# random drifted models and intervals, with the default drifted model, a tiny
# drift and a model of large jumps and drift as examples; quad's error on
# L l was at most 5.1e-14 over 18 000 evaluations at the points SIDES on
# models drawn from these ranges (drift log-uniform down to 1e-6)
DRIFTED = dict(MODELS, drift=st.floats(1e-6, 3.0))
DRIFTED_DEFAULT = dict(DEFAULT, drift=0.5)


def _drifted(sigma, lam, eta, a, width, drift):
    return ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift), Interval(a, a + width)


def _avoidance_function(model, interval):
    """l and its derivatives outside [a, b], f(x, k) = the k-th, written out
    from the closed form's coefficients."""
    g, r2, rho, A, B, K = cf._avoidance_coefficients(model, interval)

    def f(x, k=0):
        if x > interval.b:
            u = x - interval.b
            return (float(k == 0) - A * (-g)**k * math.exp(-g * u)
                    - B * (-r2)**k * math.exp(-r2 * u))
        return K * (float(k == 0) - rho**k * math.exp(-rho * (interval.a - x)))
    return f


def _generator_residuals(model, interval):
    f = _avoidance_function(model, interval)
    return np.array([generator(model, interval, f, lambda y: f(y, 1), lambda y: f(y, 2), x)
                     for x in _side_points(interval)])


@PROPERTY
@given(**DRIFTED)
@example(**DRIFTED_DEFAULT)
@example(**dict(DEFAULT, drift=1e-6))
@example(sigma=3.0, lam=20.0, eta=0.3, a=0.0, width=1.0, drift=5.0)
def test_avoidance_probability_is_harmonic(sigma, lam, eta, a, width, drift):
    """L l = 0 off [a, b], near each end and far from it, to 1e-12, with the
    generator by quadrature; the function written out from the coefficients
    is ``avoidance_probability``."""
    model, iv = _drifted(sigma, lam, eta, a, width, drift)
    assert np.max(np.abs(_generator_residuals(model, iv))) <= 1e-12
    f = _avoidance_function(model, iv)
    for x in _side_points(iv):
        assert avoidance_probability(model, iv, x) == pytest.approx(f(x), rel=1e-14, abs=1e-15)


@PROPERTY
@given(**DRIFTED, dists=DISTANCES)
@example(**DRIFTED_DEFAULT, dists=[0.001, 0.25, 1.0, 6.0])
def test_avoidance_probability_shape(sigma, lam, eta, a, width, drift, dists):
    """0 <= l <= 1; l vanishes at a and b; it increases away from the
    interval on both sides, to 1 above b with 1 - l(x) <= e^{-g (x - b)}
    (Lundberg) and to a finite positive limit below a."""
    model, iv = _drifted(sigma, lam, eta, a, width, drift)
    g, *_, limit = cf._avoidance_coefficients(model, iv)
    s = np.array(sorted(dists))
    up = avoidance_probability(model, iv, iv.b + s)
    down = avoidance_probability(model, iv, iv.a - s)
    for side in (up, down):
        assert np.all((side >= 0.0) & (side <= 1.0))
        assert np.all(np.diff(side) >= 0.0)
    _, ret = cf._avoidance_halves(model, iv, iv.b + s)
    assert np.all(ret <= np.exp(-g * s) * (1.0 + 1e-12))
    assert avoidance_probability(model, iv, iv.b + 40.0 / g) >= 1.0 - 1e-15
    for x in (iv.a - 1e-12, iv.b + 1e-12):
        assert avoidance_probability(model, iv, x) <= 1e-9
    assert 0.0 < limit <= 1.0 and np.all(down <= limit)


def test_avoidance_probability_matches_oracle(interval):
    """l and, above b, 1 - l in its own form match the 40-digit values of
    the oracle's collocation route at the default drifted model."""
    model = ModelParams(drift=0.5)
    for x, value in AVOIDANCE.items():
        assert avoidance_probability(model, interval, x) == pytest.approx(float(value),
                                                                          rel=1e-14)
        above, small = cf._avoidance_halves(model, interval, x)
        if above:
            assert small == pytest.approx(float(1 - mpf(value)), rel=1e-14)


def test_avoidance_oracle_values():
    """The frozen values are the oracle's at 40 digits."""
    with workdps(40):
        values = Oracle(sigma=mp_sqrt(2)).avoidance(0.5, list(AVOIDANCE))
        for value, frozen in zip(values, AVOIDANCE.values()):
            assert abs(value / mpf(frozen) - 1) <= mpf(10) ** -38


@pytest.mark.parametrize("defect", ["coefficient", "rho"])
def test_generator_residual_catches_planted_defects(monkeypatch, defect):
    """The harmonic check fails on a planted defect at the default drifted
    model, M1 and M3 (drift 1/2): the e^{-g u} coefficient A times 1.01, or
    the centred root beta in place of rho."""
    coefficients, roots = cf._avoidance_coefficients, cf._drift_roots
    if defect == "coefficient":
        def planted(model, interval):
            g, r2, rho, A, B, K = coefficients(model, interval)
            return g, r2, rho, 1.01 * A, B, K
        monkeypatch.setattr(cf, "_avoidance_coefficients", planted)
    else:
        monkeypatch.setattr(cf, "_drift_roots", lambda model: (*roots(model)[:2], model.beta))
    for sigma, lam, eta in ((math.sqrt(2.0), 1.0, 1.0), (0.7, 3.0, 2.5), (0.5, 0.2, 4.0)):
        model = ModelParams(sigma=sigma, lam=lam, eta=eta, drift=0.5)
        assert np.max(np.abs(_generator_residuals(model, Interval(0.0, 1.0)))) > 1e-9


def test_avoidance_probability_rejects_bad_input(model, interval):
    for bad in (model, ModelParams(drift=-0.5)):
        with pytest.raises(ValueError, match="drift > 0"):
            avoidance_probability(bad, interval, 2.0)
    with pytest.raises(ValueError, match="outside"):
        avoidance_probability(ModelParams(drift=0.5), interval, [2.0, 0.5])
    assert isinstance(avoidance_probability(ModelParams(drift=0.5), interval, 2.0), float)
