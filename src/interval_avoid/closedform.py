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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .model import Interval, ModelParams, potential, potential_q, wiener_hopf_roots

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
]

Kind = Literal["plus", "minus", "combined"]
Direction = Literal["up", "down"]


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


def default_series_depth(params: ModelParams, interval: Interval, tol: float = 1e-12) -> int:
    """Truncation K with c^(2K) below ``tol``."""
    c = crossing_factor(params, interval)
    return max(1, math.ceil(0.5 * math.log(tol) / math.log(c)))


# --------------------------------------------------------------------------- #
# Overshoot laws
# --------------------------------------------------------------------------- #

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
        y = np.asarray(y, dtype=float)
        d = y - self.boundary if self.direction == "up" else self.boundary - y
        out = np.where(d > 0.0, self.density_scale * np.exp(-self.eta * np.maximum(d, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def mass_beyond(self, level: float) -> float:
        """P(passage position strictly beyond ``level``), level past the boundary."""
        d = level - self.boundary if self.direction == "up" else self.boundary - level
        if d < 0.0:
            raise ValueError("level must lie beyond the boundary")
        return self.jump_mass * math.exp(-self.eta * d)


def overshoot_law(params: ModelParams, interval: Interval, start: float,
                  direction: Direction) -> OvershootLaw:
    """First-passage law over a (upwards from start < a) or b (downwards)."""
    params.require_centred("overshoot law")
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
        y = np.asarray(y, dtype=float)
        d = y - self.boundary if self.side == "above" else self.boundary - y
        out = np.where(d > 0.0, self.amplitude * np.exp(-self.eta * np.maximum(d, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def conditional_cdf(self, y):
        """CDF P(Y <= y) of the law normalised to a probability on its support.

        Above the interval it is 1 - e^{-eta (y - b)} for y > b; below it,
        where the distance past the boundary falls as y grows, it is
        e^{-eta (a - y)} for y < a and 1 from a on.
        """
        if self.is_point_mass:
            raise ValueError("k = 0 is a point mass")
        y = np.asarray(y, dtype=float)
        if self.side == "above":
            d = y - self.boundary
            out = np.where(d > 0.0, -np.expm1(-self.eta * np.maximum(d, 0.0)), 0.0)
        else:
            d = self.boundary - y
            out = np.where(d > 0.0, np.exp(-self.eta * np.maximum(d, 0.0)), 1.0)
        return out if out.ndim else float(out)


def nu(params: ModelParams, interval: Interval, start: float, k: int) -> CrossingMeasure:
    """Parametric crossing measure nu_k from ``start``.

    Successive crossings alternate sides and scale geometrically: with
    m1 = (beta-eta)/beta (1-e^{-beta d0}) e^{-eta w} the mass of the first
    jump over (d0 the distance from start to the near boundary, w = b - a),
    the first-passage overshoot law's mass beyond the far boundary,
    mass(nu_k) = c^(k-1) m1, and the shape past the far boundary is always
    Exp(eta) by memorylessness.
    """
    params.require_centred("crossing measures")
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    interval.require_outside(start, "starting point")
    starts_below = start < interval.a
    if k == 0:
        side = "below" if starts_below else "above"
        return CrossingMeasure(k=0, side=side, mass=1.0, amplitude=math.nan,
                               boundary=math.nan, eta=params.eta, start=start)
    if starts_below:
        m1 = overshoot_law(params, interval, start, "up").mass_beyond(interval.b)
    else:
        m1 = overshoot_law(params, interval, start, "down").mass_beyond(interval.a)
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

    def _sides(self, x):
        x = np.asarray(x, dtype=float)
        self.interval.require_outside(x)
        above = x > self.interval.b
        s = np.where(above, x - self.interval.b, self.interval.a - x)
        return x, above, s

    def plus(self, x):
        x, above, s = self._sides(x)
        grow = self.slope * s + self.coef_far * (-np.expm1(-self.params.beta * s))
        flat = self.coef_near * (-np.expm1(-self.params.beta * s))
        out = np.where(above, grow, flat)
        return out if out.ndim else float(out)

    def minus(self, x):
        x, above, s = self._sides(x)
        grow = self.slope * s + self.coef_far * (-np.expm1(-self.params.beta * s))
        flat = self.coef_near * (-np.expm1(-self.params.beta * s))
        out = np.where(above, flat, grow)
        return out if out.ndim else float(out)

    def combined(self, x):
        x, above, s = self._sides(x)
        out = (self.slope * s
               + (self.coef_far + self.C * self.coef_near) * (-np.expm1(-self.params.beta * s)))
        return out if out.ndim else float(out)

    def value(self, kind: Kind, x):
        if kind == "plus":
            return self.plus(x)
        if kind == "minus":
            return self.minus(x)
        if kind == "combined":
            return self.combined(x)
        raise ValueError(f"kind must be 'plus', 'minus' or 'combined', got {kind!r}")


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


def _series_masses(params: ModelParams, interval: Interval, x: float, K: int):
    """Masses of the crossing measures entering the h_plus series at x.

    For x > b the series runs over even crossings (k = 0, 2, 4, ...); for
    x < a over odd ones (k = 1, 3, ...).  Term index j <= K uses nu_{2j} or
    nu_{2j+1} respectively; all of these land above b.
    """
    interval.require_outside(x, "series evaluation point")
    first = 0 if x > interval.b else 1
    return [nu(params, interval, x, 2 * j + first) for j in range(K + 1)]


def harmonic_plus_partial_sum(params: ModelParams, interval: Interval, x: float, K: int) -> float:
    """Partial sum through index K of the series defining h_plus.

    Each term integrates the ladder potential U against a crossing measure;
    against the Exp(eta) shape past b this is mass * 2/(beta+eta), and the
    k = 0 term for x > b is the point-mass evaluation U(x-b).
    """
    params.require_centred("h_plus series")
    if K < 0:
        raise ValueError("K must be a nonnegative integer")
    measures = _series_masses(params, interval, x, K)
    unit = 2.0 / (params.beta + params.eta)   # integral of U against Exp(eta)
    total = 0.0
    for m in measures:
        if m.is_point_mass:
            total += potential(params, x - interval.b)
        else:
            total += m.mass * unit
    return total


def harmonic_plus_q_partial_sum(params: ModelParams, interval: Interval, x: float,
                                q: float, K: int) -> float:
    """Partial sum of the q-relaxed series: U replaced by the q-potential U_q.

    Against the Exp(eta) shape the unit integral becomes
    A/(eta+rho1) + B/(eta+rho2); monotone decreasing in q and bounded above
    by the plain partial sum at equal K.
    """
    if not q > 0.0:
        raise ValueError(f"q must be positive (got {q})")
    params.require_centred("q-relaxed h_plus series")
    if K < 0:
        raise ValueError("K must be a nonnegative integer")
    rho1, rho2 = wiener_hopf_roots(params, q)
    aa = (params.eta - rho1) / (rho2 - rho1)
    bb = (rho2 - params.eta) / (rho2 - rho1)
    unit = aa / (params.eta + rho1) + bb / (params.eta + rho2)
    measures = _series_masses(params, interval, x, K)
    total = 0.0
    for m in measures:
        if m.is_point_mass:
            total += potential_q(params, x - interval.b, q)
        else:
            total += m.mass * unit
    return total


def harmonic_minus_q_partial_sum(params: ModelParams, interval: Interval, x: float,
                                 q: float, K: int) -> float:
    """Mirror of the q-relaxed series: h_minus(x) = h_plus(a + b - x)."""
    return harmonic_plus_q_partial_sum(params, interval,
                                       interval.a + interval.b - x, q, K)
