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
* For q > 0, the roots 0 < rho1(q) <= rho2(q) of the biquadratic
  rho^4 - rho^2 (beta^2 + q) + q eta^2 = 0 give the downward-passage exponents;
  they satisfy rho1 rho2 = eta sqrt(q) and rho1^2 + rho2^2 = beta^2 + q, and the
  killed ladder exponent value is kappa(q) = rho1 rho2 / eta = sqrt(q).  The
  q-potential of the descending ladder height has density
  A exp(-rho1 x) + B exp(-rho2 x) with A = (eta-rho1)/(rho2-rho1),
  B = (rho2-eta)/(rho2-rho1), total mass 1/kappa(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
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
        if not all(math.isfinite(v) for v in (self.sigma, self.lam, self.eta, self.drift)):
            raise ValueError(f"model parameters must be finite (got {self})")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive (got {self.sigma}); "
                             "a Brownian component is required")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive (got {self.lam})")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive (got {self.eta})")

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
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval ends must be finite (got a={self.a}, b={self.b})")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b (got a={self.a}, b={self.b})")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def contains(self, x):
        """Membership in the closed interval; works on scalars and arrays."""
        x = np.asarray(x)
        return (x >= self.a) & (x <= self.b)

    def require_outside(self, x, what: str = "evaluation point") -> None:
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{what} must be finite")
        if np.any(self.contains(x)):
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
    """Roots 0 <= rho1 <= rho2 of rho^4 - rho^2 (beta^2+q) + q eta^2 = 0.

    Solved as a quadratic in rho^2 with the conjugate trick for the small
    root, so rho1 stays accurate as q -> 0.
    """
    params.require_centred("Wiener-Hopf roots")
    if q < 0.0:
        raise ValueError(f"q must be nonnegative (got {q})")
    beta2 = params.beta**2
    if q == 0.0:
        return 0.0, params.beta
    s = beta2 + q
    disc = math.sqrt(s * s - 4.0 * q * params.eta**2)
    s2 = 0.5 * (s + disc)          # larger root of the quadratic in rho^2
    rho2 = math.sqrt(s2)
    rho1 = params.eta * math.sqrt(q) / rho2   # from rho1 * rho2 = eta sqrt(q)
    return rho1, rho2


def kappa(params: ModelParams, q: float) -> float:
    """kappa(q) = kappa_hat(q) = rho1(q) rho2(q) / eta; equals sqrt(q) here."""
    rho1, rho2 = wiener_hopf_roots(params, q)
    return rho1 * rho2 / params.eta


def potential(params: ModelParams, x):
    """Shared ladder potential U(x) = (eta/beta) x + (beta-eta)/beta^2 (1-e^{-beta x})."""
    params.require_centred("ladder potential")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("potential is defined for x >= 0")
    beta = params.beta
    out = params.eta / beta * x + (beta - params.eta) / beta**2 * (-np.expm1(-beta * x))
    return out if out.ndim else float(out)


def _potential_q_coeffs(params: ModelParams, q: float) -> tuple[float, float, float, float]:
    rho1, rho2 = wiener_hopf_roots(params, q)
    aa = (params.eta - rho1) / (rho2 - rho1)
    bb = (rho2 - params.eta) / (rho2 - rho1)
    return aa, bb, rho1, rho2


def potential_q(params: ModelParams, x, q: float):
    """q-potential U_q(x) of the descending ladder height, q > 0.

    Cumulative of the density A e^{-rho1 x} + B e^{-rho2 x}; increases to
    1/kappa(q) and grows to U(x) pointwise as q -> 0.
    """
    if not q > 0.0:
        raise ValueError(f"q must be positive (got {q})")
    params.require_centred("q-potential")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("q-potential is defined for x >= 0")
    aa, bb, rho1, rho2 = _potential_q_coeffs(params, q)
    out = aa * (-np.expm1(-rho1 * x)) / rho1 + bb * (-np.expm1(-rho2 * x)) / rho2
    return out if out.ndim else float(out)


def potential_q_total(params: ModelParams, q: float) -> float:
    """Total mass U_q(infinity) = A/rho1 + B/rho2 = 1/kappa(q)."""
    aa, bb, rho1, rho2 = _potential_q_coeffs(params, q)
    return aa / rho1 + bb / rho2
