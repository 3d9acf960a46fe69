"""Jump-diffusion model and its fluctuation-theory quantities.

The process is a Brownian motion with volatility ``sigma`` plus a compound
Poisson process with rate ``lam`` and symmetric two-sided exponential jumps
of parameter ``eta`` (density ``eta/2 * exp(-eta*|y|)``), plus an optional
linear drift.  For the centred model (drift = 0) everything of interest is
available in closed form:

* Laplace exponent  psi(theta) = -(sigma^2/2) theta^2 - lam theta^2/(eta^2-theta^2),
  which factorises as  psi(theta) = upsilon(theta) * upsilon(-theta)  with the
  ladder exponent  upsilon(theta) = (sigma/sqrt(2)) * theta (beta+theta)/(eta+theta)
  and  beta = sqrt(eta^2 + 2 lam / sigma^2).
* Shared ascending/descending ladder potential
  U(x) = (eta/beta) x + (beta-eta)/beta^2 * (1 - exp(-beta x)).
* For q > 0, the roots 0 < rho1(q) < eta < rho2(q) of -psi(rho) = q, that is of
  the biquadratic rho^4 - rho^2 (beta^2 + p) + p eta^2 = 0 with p = 2q/sigma^2,
  give the downward-passage exponents; they satisfy rho1 rho2 = eta sqrt(p) and
  rho1^2 + rho2^2 = beta^2 + p, and the killed ladder exponent value in the
  normalisation of U is kappa(q) = rho1 rho2 / eta = sqrt(2q)/sigma (sqrt(q) at
  the default sigma = sqrt(2)).  The q-potential of the descending ladder
  height has density A exp(-rho1 x) + B exp(-rho2 x) with
  A = (eta-rho1)/(rho2-rho1), B = (rho2-eta)/(rho2-rho1), total mass 1/kappa(q).
* The killed Green measure is (2/sigma^2) U * U_hat (``_green_factor``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "require_number",
    "ModelParams",
    "Interval",
    "laplace_exponent",
    "ladder_exponent",
    "wiener_hopf_roots",
    "kappa",
    "potential",
    "potential_q",
    "potential_q_total",
]


def require_number(value, what: str, *, integer: bool = False, low: float = -math.inf,
                   strict: bool = False, high: float = math.inf) -> None:
    """The one rule for a scalar input: a real number (an integer if
    ``integer``), not a boolean, finite, with low <= value < high (low < value
    if ``strict``).  Anything else is a ValueError naming ``what``."""
    try:
        if (isinstance(value, numbers.Integral if integer else numbers.Real)
                and not isinstance(value, bool) and math.isfinite(value)
                and (low < value if strict else low <= value) and value < high):
            return
    except OverflowError:       # an int beyond the float range
        pass
    rule = "an integer" if integer else "finite"
    if low == 0.0 and high == math.inf and not integer:
        rule = ("positive" if strict else "nonnegative") + " and finite"
    elif low > -math.inf or high < math.inf:
        rule += f" in {'(' if strict else '['}{low}, {high})"
    raise ValueError(f"{what} must be {rule} (got {value!r})")


def _require_real_array(x, what: str, low: float | None = None) -> np.ndarray:
    """The array form of the rule: integer or float values (no booleans,
    strings or objects), every one finite (and >= ``low`` if given).  Returns
    ``x`` as a float array; anything else is a ValueError naming ``what``."""
    if np.asarray(x).dtype.kind not in "iuf":
        raise ValueError(f"{what} must be a real number (got {x!r})")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    if low is not None and np.any(x < low):
        raise ValueError(f"{what} must be >= {low:g}")
    return x


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the jump diffusion.

    sigma : Brownian volatility, must be positive
    lam   : Poisson jump rate, must be positive
    eta   : two-sided exponential jump parameter, must be positive
    drift : linear drift; closed-form quantities require drift = 0
    """

    sigma: float = math.sqrt(2.0)
    lam: float = 1.0
    eta: float = 1.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma", "lam", "eta"):
            require_number(getattr(self, name), name, low=0.0, strict=True)
        require_number(self.drift, "drift")

    @property
    def beta(self) -> float:
        return math.sqrt(self.eta**2 + 2.0 * self.lam / self.sigma**2)

    @property
    def variance_rate(self) -> float:
        """Var[xi_t] / t = sigma^2 + 2 lam / eta^2."""
        return self.sigma**2 + 2.0 * self.lam / self.eta**2

    def require_centred(self, what: str) -> None:
        if self.drift != 0.0:
            raise ValueError(f"{what} requires the centred model (drift = 0), "
                             f"got drift = {self.drift}")


@dataclass(frozen=True)
class Interval:
    """The avoided interval [a, b], a < b strictly."""

    a: float
    b: float

    def __post_init__(self) -> None:
        require_number(self.a, "interval end a")
        require_number(self.b, "interval end b")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b (got a={self.a}, b={self.b})")

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, x):
        """Membership in the closed interval; works on scalars and arrays."""
        x = np.asarray(x)
        return (x >= self.a) & (x <= self.b)

    def require_outside(self, x, what: str = "evaluation point") -> None:
        if np.any(self.contains(_require_real_array(x, what))):
            raise ValueError(f"{what} must lie outside [{self.a}, {self.b}]")


def laplace_exponent(params: ModelParams, theta):
    """psi(theta) with E[exp(-theta xi_t)] = exp(-t psi(theta)), |theta| < eta."""
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta) >= params.eta):
        raise ValueError(f"|theta| must be < eta = {params.eta} (jump transform pole)")
    th2 = theta * theta
    out = (-0.5 * params.sigma**2 * th2
           - params.lam * th2 / (params.eta**2 - th2)
           + params.drift * theta)
    return out if out.ndim else float(out)


def ladder_exponent(params: ModelParams, theta):
    """Ascending-ladder Laplace exponent upsilon(theta), theta > -eta.

    Normalised so that psi(theta) = upsilon(theta) * upsilon(-theta); at the
    default (sigma, lam) the prefactor sigma/sqrt(2) is 1.
    """
    params.require_centred("ladder exponent")
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= -params.eta):
        raise ValueError(f"theta must be > -eta = {-params.eta}")
    beta = params.beta
    out = (params.sigma / math.sqrt(2.0)) * theta * (beta + theta) / (params.eta + theta)
    return out if out.ndim else float(out)


def wiener_hopf_roots(params: ModelParams, q: float) -> tuple[float, float]:
    """Roots 0 <= rho1 < eta < rho2 of -psi(rho) = q, i.e. of
    rho^4 - rho^2 (beta^2 + p) + p eta^2 = 0 with p = 2q/sigma^2.

    Solved as a quadratic in rho^2 with the conjugate trick for the small
    root, so rho1 stays accurate as q -> 0.  The discriminant
    s^2 - 4 p eta^2, s = beta^2 + p, is taken as the product
    ((sqrt(p) - eta)^2 + 2 lam/sigma^2)(s + 2 eta sqrt(p)) (beta^2 - eta^2 =
    2 lam/sigma^2), whose factors neither cancel nor overflow for finite p.
    """
    params.require_centred("Wiener-Hopf roots")
    require_number(q, "q", low=0.0)
    if q == 0.0:
        return 0.0, params.beta
    sigma2, eta = params.sigma**2, params.eta
    p = 2.0 * q / sigma2
    s, root_p = params.beta**2 + p, math.sqrt(p)
    low = (root_p - eta)**2 + 2.0 * params.lam / sigma2     # s - 2 eta sqrt(p)
    disc = math.sqrt(low) * math.sqrt(s + 2.0 * eta * root_p)
    s2 = 0.5 * (s + disc)          # larger root of the quadratic in rho^2
    rho2 = math.sqrt(s2)
    rho1 = eta * root_p / rho2     # from rho1 * rho2 = eta sqrt(p)
    return rho1, rho2


def _drift_roots(params: ModelParams) -> tuple[float, float, float]:
    """(r2, g, rho) for drift > 0: -r2 < -eta < -g < 0 < eta < rho are the
    real roots of (drift + sigma^2 theta/2)(eta^2 - theta^2) + lam theta, that
    is -psi(-theta)/theta cleared of its poles (Kou & Wang 2003); psi(g) = 0.

    No eigenvalue solver: -r2 is the smallest root of the monic cubic's
    trigonometric form, -g and rho those of the deflated quadratic (taken
    without cancellation), and each is polished by one Newton step.  g comes
    from the product of the roots, r2 g rho = 2 drift eta^2 / sigma^2, which
    keeps a tiny g accurate.
    """
    if not params.drift > 0.0:
        raise ValueError("adjustment coefficient requires positive drift")
    s2 = 0.5 * params.sigma**2
    cubic = [-s2, -params.drift, s2 * params.eta**2 + params.lam, params.drift * params.eta**2]
    B, C, D = (c / cubic[0] for c in cubic[1:])
    # depressed cubic t^3 + P t + Q in t = x + B/3; P < 0 with three real roots
    P = C - B * B / 3.0
    Q = (2.0 * B * B - 9.0 * C) * B / 27.0 + D
    r = math.sqrt(-P / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 1.5 * Q / (P * r))))
    x1 = 2.0 * r * math.cos((phi + 2.0 * math.pi) / 3.0) - B / 3.0
    q = -D / x1
    p = (q - C) / x1
    t = -0.5 * (p + math.copysign(math.sqrt(p * p - 4.0 * q), p))
    roots = np.array(sorted([x1, t, q / t]))
    roots -= np.polyval(cubic, roots) / np.polyval(np.polyder(cubic), roots)
    r2, rho = float(-roots[0]), float(roots[2])
    return r2, float(params.drift * params.eta**2 / (s2 * r2 * rho)), rho


def kappa(params: ModelParams, q: float) -> float:
    """kappa(q) = kappa_hat(q) = rho1(q) rho2(q) / eta = sqrt(2q)/sigma, the
    killed ladder exponent in the normalisation of U (U_q(infinity) = 1/kappa(q))."""
    rho1, rho2 = wiener_hopf_roots(params, q)
    return rho1 * rho2 / params.eta


def potential(params: ModelParams, x):
    """Shared ladder potential U(x) = (eta/beta) x + (beta-eta)/beta^2 (1-e^{-beta x})."""
    params.require_centred("ladder potential")
    x = _require_real_array(x, "x", low=0.0)
    beta = params.beta
    out = params.eta / beta * x + (beta - params.eta) / beta**2 * (-np.expm1(-beta * x))
    return out if out.ndim else float(out)


def _green_factor(params: ModelParams) -> float:
    """2/sigma^2, as the killed Green measure is (2/sigma^2) U * U_hat: U's
    Laplace-Stieltjes transform is sigma/sqrt(2) over upsilon(theta)."""
    return 2.0 / params.sigma**2


def _potential_q_coeffs(params: ModelParams, q: float) -> tuple[float, float, float, float]:
    require_number(q, "q", low=0.0, strict=True)
    rho1, rho2 = wiener_hopf_roots(params, q)
    aa = (params.eta - rho1) / (rho2 - rho1)
    bb = (rho2 - params.eta) / (rho2 - rho1)
    return aa, bb, rho1, rho2


def potential_q(params: ModelParams, x, q: float):
    """q-potential U_q(x) of the descending ladder height, q > 0.

    Cumulative of the density A e^{-rho1 x} + B e^{-rho2 x}; increases to
    1/kappa(q) and grows to U(x) pointwise as q -> 0.
    """
    params.require_centred("q-potential")
    x = _require_real_array(x, "x", low=0.0)
    aa, bb, rho1, rho2 = _potential_q_coeffs(params, q)
    out = aa * (-np.expm1(-rho1 * x)) / rho1 + bb * (-np.expm1(-rho2 * x)) / rho2
    return out if out.ndim else float(out)


def potential_q_total(params: ModelParams, q: float) -> float:
    """Total mass U_q(infinity) = A/rho1 + B/rho2 = 1/kappa(q), q > 0."""
    aa, bb, rho1, rho2 = _potential_q_coeffs(params, q)
    return aa / rho1 + bb / rho2
