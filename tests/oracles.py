"""Independent high-precision reference route for the closed forms.

Everything here is computed with mpmath at 30+ digits and, where possible,
by a structurally different method than the library uses: the Laplace
exponent by quadrature of the jump density, the biquadratic roots with the
generic polynomial solver, crossing-measure masses and series terms by
numerical quadrature against the overshoot densities.  The frozen constants
in the acceptance suite were produced by these routines.
"""

from __future__ import annotations

from mpmath import exp, inf, mp, mpf, polyroots, quad, sqrt

mp.dps = 30


class Oracle:
    def __init__(self, sigma=sqrt(mpf(2)), lam=mpf(1), eta=mpf(1),
                 a=mpf(0), b=mpf(1)):
        self.sigma = mpf(sigma)
        self.lam = mpf(lam)
        self.eta = mpf(eta)
        self.a = mpf(a)
        self.b = mpf(b)
        self.beta = sqrt(self.eta**2 + 2 * self.lam / self.sigma**2)
        self.width = self.b - self.a

    # -- exponents ---------------------------------------------------------

    def laplace_exponent(self, theta):
        """-(sigma^2/2) th^2 - lam (E[e^{-th Y}] - 1) with the jump transform
        evaluated by quadrature of the two-sided exponential density."""
        theta = mpf(theta)
        dens = lambda y: self.eta / 2 * exp(-self.eta * abs(y)) * exp(-theta * y)
        jump_mgf = quad(dens, [-inf, 0, inf])
        return -self.sigma**2 / 2 * theta**2 - self.lam * (jump_mgf - 1)

    def roots(self, q):
        """Positive roots of -psi(rho) = q, cleared of its pole: the quartic
        rho^4 - rho^2 (beta^2 + p) + p eta^2 with p = 2q/sigma^2, via the
        generic polynomial solver."""
        p = 2 * mpf(q) / self.sigma**2
        rts = polyroots([1, 0, -(self.beta**2 + p), 0, p * self.eta**2])
        pos = sorted(float(r.real) for r in rts if r.real > 0 and abs(r.imag) < 1e-25)
        return pos[0], pos[1]

    def kappa(self, q):
        r1, r2 = self.roots(q)
        return mpf(r1) * mpf(r2) / self.eta

    # -- potentials ---------------------------------------------------------

    def potential_density(self, x):
        return self.eta / self.beta + (self.beta - self.eta) / self.beta * exp(-self.beta * x)

    def potential(self, x):
        # antiderivative of the density display
        x = mpf(x)
        return (self.eta / self.beta * x
                + (self.beta - self.eta) / self.beta**2 * (1 - exp(-self.beta * x)))

    def potential_q(self, x, q):
        r1, r2 = (mpf(r) for r in self.roots(q))
        A = (self.eta - r1) / (r2 - r1)
        B = (r2 - self.eta) / (r2 - r1)
        dens = lambda z: A * exp(-r1 * z) + B * exp(-r2 * z)
        return quad(dens, [0, mpf(x)]) if x > 0 else mpf(0)

    def potential_laplace_identity(self, theta):
        """|LT of the potential density - (eta+theta)/(theta (beta+theta))|."""
        theta = mpf(theta)
        lt = quad(lambda x: exp(-theta * x) * self.potential_density(x), [0, inf])
        return abs(lt - (self.eta + theta) / (theta * (self.beta + theta)))

    # -- overshoot and crossing measures ------------------------------------

    def overshoot_density_up(self, start, y):
        """Density of the position at first entry of [a, oo) from start < a."""
        start, y = mpf(start), mpf(y)
        return (self.eta * (self.beta - self.eta) / self.beta
                * (1 - exp(-self.beta * (self.a - start))) * exp(-self.eta * (y - self.a)))

    def crossing_factor(self):
        return exp(-self.eta * self.width) * (self.beta - self.eta) / (self.beta + self.eta)

    def nu_mass(self, start, k):
        """mass(nu_k) by quadrature of the first-jump-over density, scaled by c."""
        start = mpf(start)
        if start >= self.a:
            start = self.a + self.b - start
        m1 = quad(lambda y: self.overshoot_density_up(start, y), [self.b, self.b + 80 / self.eta])
        return self.crossing_factor() ** (k - 1) * m1

    def nu_conditional_density(self, start, k, y):
        """Exp(eta) shape past the far boundary (above b for odd-from-below)."""
        lands_above = (mpf(start) < self.a) == (k % 2 == 1)
        d = (mpf(y) - self.b) if lands_above else (self.a - mpf(y))
        return self.eta * exp(-self.eta * d) if d > 0 else mpf(0)

    # -- harmonic functions --------------------------------------------------

    def h_series_term(self, x, j):
        """j-th series term: integral of U against the corresponding nu_k."""
        x = mpf(x)
        first = 0 if x > self.b else 1
        k = 2 * j + first
        if k == 0:
            return self.potential(x - self.b)
        mass = self.nu_mass(x, k)
        integrand = lambda y: (self.potential(y - self.b)
                               * self.nu_conditional_density(x, k, y))
        return mass * quad(integrand, [self.b, self.b + 80 / self.eta])

    def h_plus(self, x, terms=14):
        # the tail ratio is c^2 ~ 4e-3; 14 terms push truncation below 1e-30
        return sum(self.h_series_term(x, j) for j in range(terms))

    def h_minus(self, x, terms=14):
        return self.h_plus(self.a + self.b - mpf(x), terms)

    def h(self, x, terms=14):
        return self.h_plus(x, terms) + self.h_minus(x, terms)

    def h_q_term(self, x, j, q):
        x = mpf(x)
        first = 0 if x > self.b else 1
        k = 2 * j + first
        if k == 0:
            return self.potential_q(x - self.b, q)
        r1, r2 = (mpf(r) for r in self.roots(q))
        A = (self.eta - r1) / (r2 - r1)
        B = (r2 - self.eta) / (r2 - r1)
        uq = lambda z: (A * (1 - exp(-r1 * z)) / r1 + B * (1 - exp(-r2 * z)) / r2)
        mass = self.nu_mass(x, k)
        integrand = lambda y: uq(y - self.b) * self.nu_conditional_density(x, k, y)
        return mass * quad(integrand, [self.b, self.b + 80 / self.eta])

    def gamma_bound(self):
        return (self.beta - self.eta) / self.beta * exp(-self.eta * self.width)
