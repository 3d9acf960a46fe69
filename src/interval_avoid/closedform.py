"""Closed forms for the centred jump diffusion avoiding an interval [a, b].

Everything here follows from two ingredients:

* the one-sided first-passage (overshoot) laws
      P^x(xi at first entry of [a,oo) in dy) =
          eta (beta-eta)/beta * (1 - e^{-beta (a-x)}) e^{-eta (y-a)} dy,  x < a < y,
  (mirrored downwards), with the remaining probability an atom at the
  boundary (continuous "creeping"), and

* the jump-over geometry: each successive jump across [a, b] scales the
  crossing measure by  c = e^{-eta (b-a)} (beta-eta)/(beta+eta), giving the
  parametric family nu_k and, after integrating the ladder potential against
  them, the harmonic functions

      h_plus(x) = 2c/(beta (1-c^2)) * (1 - e^{-beta (a-x)})            for x < a,
      h_plus(x) = (eta/beta)(x-b)
                  + [ (beta-eta)/beta^2 + 2c^2/(beta (1-c^2)) ] (1 - e^{-beta (x-b)})
                                                                        for x > b,

  h_minus the mirror image, and h = h_plus + C h_minus with C = 1 by the
  up/down symmetry of the jump law.

Shared formulas are written once: ``_exp_tail`` (the Exp(eta) shape past a
boundary), ``_side_distance`` (the distance to [a, b]) and ``_plus_series``
(the partial sums of both h_plus series).

The same route gives the drifted model's avoidance probability
l(x) = P_x(T = infinity), drift > 0 (``avoidance_probability``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .model import (Interval, ModelParams, _drift_roots, _potential_q_coeffs, potential,
                    potential_q, require_number)

__all__ = [
    "OvershootLaw",
    "CrossingMeasure",
    "Harmonics",
    "overshoot_law",
    "crossing_factor",
    "gamma_bound",
    "nu",
    "harmonics",
    "harmonic_plus_partial_sum",
    "harmonic_plus_q_partial_sum",
    "harmonic_minus_q_partial_sum",
    "default_series_depth",
    "avoidance_probability",
]

Kind = Literal["plus", "minus", "combined"]
Direction = Literal["up", "down"]
_SERIES_TOL = 1e-12    # relative tail c^(2K) that ``default_series_depth`` leaves


def crossing_factor(params: ModelParams, interval: Interval) -> float:
    """Geometric factor c = e^{-eta w} (beta-eta)/(beta+eta), w = b - a."""
    params.require_centred("crossing factor")
    beta = params.beta
    return math.exp(-params.eta * interval.width) * (beta - params.eta) / (beta + params.eta)


def gamma_bound(params: ModelParams, interval: Interval) -> float:
    """Supremum over starting points of the jump-over mass, strictly < 1.

    From x < a the probability of clearing b at the first entry of [a,oo)
    is (beta-eta)/beta (1-e^{-beta(a-x)}) e^{-eta(b-a)}, increasing in a - x;
    the supremum is its x -> -inf limit.  By symmetry the same bound holds
    from above, so every crossing measure has mass(nu_k) <= gamma^k.
    """
    params.require_centred("gamma bound")
    beta = params.beta
    return (beta - params.eta) / beta * math.exp(-params.eta * interval.width)


def default_series_depth(params: ModelParams, interval: Interval) -> int:
    """Truncation K with c^(2K) below ``_SERIES_TOL`` = 1e-12."""
    c = crossing_factor(params, interval)
    return max(1, math.ceil(0.5 * math.log(_SERIES_TOL) / math.log(c)))


# --------------------------------------------------------------------------- #
# Overshoot laws
# --------------------------------------------------------------------------- #

def _exp_tail(y, boundary: float, upward: bool, scale: float, eta: float, short=0.0):
    """The Exp(eta) overshoot shape: scale * e^{-eta d} where y lies a distance
    d > 0 past ``boundary``, upward or downward, and ``short`` elsewhere."""
    y = np.asarray(y, dtype=float)
    d = y - boundary if upward else boundary - y
    out = np.where(d > 0.0, scale * np.exp(-eta * np.maximum(d, 0.0)), short)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class OvershootLaw:
    """Law of the position at first one-sided passage over a boundary.

    The passage is by a jump with probability ``jump_mass``, landing with
    density ``density_scale * exp(-eta * distance)`` beyond the boundary,
    where distance = y - boundary (up) or boundary - y (down) and
    density_scale = eta * jump_mass; the rest, ``creep_mass``, is an atom at
    ``boundary`` (continuous touch).
    """

    boundary: float
    direction: Direction
    jump_mass: float
    start: float
    eta: float

    @property
    def creep_mass(self) -> float:
        return 1.0 - self.jump_mass

    @property
    def density_scale(self) -> float:
        return self.eta * self.jump_mass

    def density(self, y):
        return _exp_tail(y, self.boundary, self.direction == "up", self.density_scale, self.eta)

    def mass_beyond(self, level: float) -> float:
        """P(passage position strictly beyond ``level``), level past the boundary."""
        require_number(level, "level")
        d = level - self.boundary if self.direction == "up" else self.boundary - level
        if d < 0.0:
            raise ValueError("level must lie beyond the boundary")
        return self.jump_mass * math.exp(-self.eta * d)


def overshoot_law(params: ModelParams, interval: Interval, start: float,
                  direction: Direction) -> OvershootLaw:
    """First-passage law over a (upwards from start < a) or b (downwards)."""
    params.require_centred("overshoot law")
    interval.require_outside(start, "starting point")
    if direction == "up":
        if not start < interval.a:
            raise ValueError(f"upward passage requires start < a (got {start} >= {interval.a})")
        boundary, dist = interval.a, interval.a - start
    elif direction == "down":
        if not start > interval.b:
            raise ValueError(f"downward passage requires start > b (got {start} <= {interval.b})")
        boundary, dist = interval.b, start - interval.b
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    beta = params.beta
    return OvershootLaw(
        boundary=boundary,
        direction=direction,
        jump_mass=(beta - params.eta) / beta * (-math.expm1(-beta * dist)),
        start=start,
        eta=params.eta,
    )


# --------------------------------------------------------------------------- #
# Crossing measures nu_k
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class CrossingMeasure:
    """Sub-probability law of the position right after the k-th jump across [a, b].

    For k >= 1 the measure has density ``amplitude * exp(-eta * d(y))`` on one
    side of the interval, with d(y) the distance past the far boundary
    (``boundary``); mass = amplitude / eta.  k = 0 is the point mass at the
    starting position.
    """

    k: int
    side: Literal["above", "below"]
    mass: float
    amplitude: float
    boundary: float
    eta: float
    start: float

    @property
    def is_point_mass(self) -> bool:
        return self.k == 0

    def density(self, y):
        if self.is_point_mass:
            raise ValueError("k = 0 is a point mass; it has no density")
        return _exp_tail(y, self.boundary, self.side == "above", self.amplitude, self.eta)

    def conditional_cdf(self, y):
        """CDF P(Y <= y) of the law normalised to a probability on its support.

        Above the interval it is 1 - e^{-eta (y - b)} for y > b; below it,
        where the distance past the boundary falls as y grows, it is
        e^{-eta (a - y)} for y < a and 1 from a on.
        """
        if self.is_point_mass:
            raise ValueError("k = 0 is a point mass")
        if self.side == "below":
            return _exp_tail(y, self.boundary, False, 1.0, self.eta, short=1.0)
        d = np.asarray(y, dtype=float) - self.boundary
        out = np.where(d > 0.0, -np.expm1(-self.eta * np.maximum(d, 0.0)), 0.0)
        return out if out.ndim else float(out)


# math's expm1 element by element: numpy's SIMD expm1 differs from libm's in
# the last bit on some inputs, and nu's scalar masses keep libm's digits
_expm1 = np.vectorize(math.expm1, otypes=[float])


def _jump_over_mass(params: ModelParams, interval: Interval, x):
    """m1(x) = (beta-eta)/beta (1-e^{-beta d(x)}) e^{-eta w}, vectorised over
    x outside [a, b]: the first-passage overshoot law's mass beyond the far
    boundary, i.e. the mass of nu_1 from x, with d(x) the distance from x to
    [a, b] and w = b - a.  Evaluated in ``overshoot_law``'s float order, so
    that it equals ``nu(params, interval, x, 1).mass`` bit for bit."""
    _, d = _side_distance(interval, x, "starting point")
    beta = params.beta
    out = (beta - params.eta) / beta * -_expm1(-beta * d) * math.exp(-params.eta * interval.width)
    return out if out.ndim else float(out)


def nu(params: ModelParams, interval: Interval, start: float, k: int) -> CrossingMeasure:
    """Parametric crossing measure nu_k from ``start``.

    Successive crossings alternate sides and scale geometrically: with
    m1 = (beta-eta)/beta (1-e^{-beta d0}) e^{-eta w} the mass of the first
    jump over (d0 the distance from start to the near boundary, w = b - a;
    ``_jump_over_mass``), the first-passage overshoot law's mass beyond the
    far boundary, mass(nu_k) = c^(k-1) m1, and the shape past the far
    boundary is always Exp(eta) by memorylessness.
    """
    params.require_centred("crossing measures")
    require_number(k, "k", integer=True, low=0)
    interval.require_outside(start, "starting point")
    starts_below = start < interval.a
    if k == 0:
        side = "below" if starts_below else "above"
        return CrossingMeasure(k=0, side=side, mass=1.0, amplitude=math.nan,
                               boundary=math.nan, eta=params.eta, start=start)
    m1 = _jump_over_mass(params, interval, start)
    c = crossing_factor(params, interval)
    mass = c ** (k - 1) * m1
    # odd crossings land on the opposite side of the start, even ones back home
    lands_above = starts_below == (k % 2 == 1)
    side = "above" if lands_above else "below"
    boundary = interval.b if lands_above else interval.a
    return CrossingMeasure(k=k, side=side, mass=mass, amplitude=mass * params.eta,
                           boundary=boundary, eta=params.eta, start=start)


# --------------------------------------------------------------------------- #
# Harmonic functions
# --------------------------------------------------------------------------- #

def _side_distance(interval: Interval, x, what: str = "evaluation point"):
    """(x > b, distance from x to [a, b]) for x outside the interval."""
    interval.require_outside(x, what)
    x = np.asarray(x, dtype=float)
    above = x > interval.b
    return above, np.where(above, x - interval.b, interval.a - x)


@dataclass(frozen=True)
class Harmonics:
    """Evaluator for h_plus, h_minus and h = h_plus + C h_minus (C = 1).

    ``slope`` is the linear coefficient eta/beta on the side where the
    function grows; ``coef_far`` multiplies (1-e^{-beta s}) on that side and
    ``coef_near`` on the other (s the distance to the interval).
    """

    params: ModelParams
    interval: Interval
    c: float
    C: float
    slope: float
    coef_far: float
    coef_near: float

    def _halves(self, x):
        """(x > b, growing half, flat half) at the distance s from x to [a, b]."""
        above, s = _side_distance(self.interval, x)
        e = -np.expm1(-self.params.beta * s)
        return above, self.slope * s + self.coef_far * e, self.coef_near * e

    def plus(self, x):
        above, grow, flat = self._halves(x)
        out = np.where(above, grow, flat)
        return out if out.ndim else float(out)

    def minus(self, x):
        above, grow, flat = self._halves(x)
        out = np.where(above, flat, grow)
        return out if out.ndim else float(out)

    def combined(self, x):
        _, s = _side_distance(self.interval, x)
        out = (self.slope * s
               + (self.coef_far + self.C * self.coef_near) * (-np.expm1(-self.params.beta * s)))
        return out if out.ndim else float(out)

    def value(self, kind: Kind, x):
        if kind not in ("plus", "minus", "combined"):
            raise ValueError(f"kind must be 'plus', 'minus' or 'combined', got {kind!r}")
        return getattr(self, kind)(x)


def harmonics(params: ModelParams, interval: Interval) -> Harmonics:
    params.require_centred("harmonic functions")
    beta = params.beta
    c = crossing_factor(params, interval)
    return Harmonics(
        params=params,
        interval=interval,
        c=c,
        C=1.0,
        slope=params.eta / beta,
        coef_far=(beta - params.eta) / beta**2 + 2.0 * c**2 / (beta * (1.0 - c**2)),
        coef_near=2.0 * c / (beta * (1.0 - c**2)),
    )


def _plus_series(params: ModelParams, interval: Interval, x: float, K: int,
                 point, unit: float) -> float:
    """Partial sum through index K of an h_plus series at x: ``point(x - b)``
    for the point mass nu_0 and mass * ``unit`` for every other nu_k.  Term j
    uses nu_{2j} for x > b and nu_{2j+1} for x < a; all of these land above b."""
    require_number(K, "K", integer=True, low=0)
    interval.require_outside(x, "series evaluation point")
    first = 0 if x > interval.b else 1
    total = 0.0
    for j in range(K + 1):
        m = nu(params, interval, x, 2 * j + first)
        total += point(x - interval.b) if m.is_point_mass else m.mass * unit
    return total


def harmonic_plus_partial_sum(params: ModelParams, interval: Interval, x: float, K: int) -> float:
    """Partial sum through index K of the series defining h_plus.

    Each term integrates the ladder potential U against a crossing measure;
    against the Exp(eta) shape past b this is mass * 2/(beta+eta), and the
    k = 0 term for x > b is the point-mass evaluation U(x-b).
    """
    params.require_centred("h_plus series")
    return _plus_series(params, interval, x, K, lambda d: potential(params, d),
                        2.0 / (params.beta + params.eta))


def harmonic_plus_q_partial_sum(params: ModelParams, interval: Interval, x: float,
                                q: float, K: int) -> float:
    """Partial sum of the q-relaxed series: U replaced by the q-potential U_q.

    Against the Exp(eta) shape the unit integral becomes
    A/(eta+rho1) + B/(eta+rho2); monotone decreasing in q and bounded above
    by the plain partial sum at equal K.
    """
    params.require_centred("q-relaxed h_plus series")
    aa, bb, rho1, rho2 = _potential_q_coeffs(params, q)
    return _plus_series(params, interval, x, K, lambda d: potential_q(params, d, q),
                        aa / (params.eta + rho1) + bb / (params.eta + rho2))


def harmonic_minus_q_partial_sum(params: ModelParams, interval: Interval, x: float,
                                 q: float, K: int) -> float:
    """Mirror of the q-relaxed series: h_minus(x) = h_plus(a + b - x)."""
    return harmonic_plus_q_partial_sum(params, interval,
                                       interval.a + interval.b - x, q, K)


# --------------------------------------------------------------------------- #
# Avoidance probability of the drifted model
# --------------------------------------------------------------------------- #

def _avoidance_coefficients(params: ModelParams, interval: Interval) -> tuple:
    """(g, r2, rho, A, B, K) with 1 - l(b + u) = A e^{-g u} + B e^{-r2 u} and
    l(a - v) = K (1 - e^{-rho v}), l(x) = P_x(T = infinity), drift > 0.

    From b + u a path falls below b with probability c1 e^{-g u} + c2 e^{-r2 u},
    by a jump with d (e^{-g u} - e^{-r2 u}); from a - v it passes a by a jump
    with (rho - eta)/rho (1 - e^{-rho v}) (Kou & Wang 2003).  Undershoots and
    overshoots are Exp(eta), so a jump clears [a, b] with e = e^{-eta (b - a)}
    and the return loop from b + Exp(eta) is geometric with factor e^2 F G;
    l_b = E l(b + Exp(eta)).  No form cancels, small drift included.
    """
    if not params.drift > 0.0:
        raise ValueError(f"avoidance probability requires drift > 0 (got drift = {params.drift})")
    r2, g, rho = _drift_roots(params)
    eta = params.eta
    e = math.exp(-eta * interval.width)
    den = eta * (r2 - g)
    c1, c2, d = r2 * (eta - g) / den, g * (r2 - eta) / den, (eta - g) * (r2 - eta) / den
    F = (eta - g) * (r2 - eta) / ((eta + g) * (eta + r2))
    G = (rho - eta) / (rho + eta)
    l_b = (c1 * g / (eta + g) + c2 * r2 / (eta + r2)) / (1.0 - e * e * F * G)
    back = e * (e * G * l_b) * d
    return g, r2, rho, c1 - back, c2 + back, e * l_b * (rho - eta) / rho


def _avoidance_halves(params: ModelParams, interval: Interval, x):
    """(x > b, 1 - l(x) above b and l(x) below a): the side of l that is
    small, without cancellation, for ``_avoidance_coefficients``."""
    g, r2, rho, A, B, K = _avoidance_coefficients(params, interval)
    above, s = _side_distance(interval, x)
    return above, np.where(above, A * np.exp(-g * s) + B * np.exp(-r2 * s),
                           K * -np.expm1(-rho * s))


def avoidance_probability(params: ModelParams, interval: Interval, x):
    """l(x) = P_x(T = infinity), the probability of never entering [a, b],
    for drift > 0 and x outside [a, b] (a ValueError otherwise); vectorised.
    l vanishes at a and b and increases away from them: to 1 above b, with
    1 - l(x) <= e^{-g (x - b)} (Lundberg), and to K below a."""
    above, small = _avoidance_halves(params, interval, x)
    out = np.where(above, 1.0 - small, small)
    return out if out.ndim else float(out)
