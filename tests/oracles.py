"""Independent high-precision reference route for the closed forms.

Everything here is computed with mpmath at 30+ digits and, where possible,
by a structurally different method than the library uses: the Laplace
exponent by quadrature of the jump density, the biquadratic roots with the
generic polynomial solver, crossing-measure masses and series terms by
numerical quadrature against the overshoot densities, and the discounted
clock probabilities and the avoidance probability of the drifted model by
collocation of their generator equations.  The frozen constants in the
acceptance suite, ``AVOIDANCE`` and ``CLOCK`` below were produced by these
routines.
"""

from __future__ import annotations

from mpmath import exp, inf, lu_solve, matrix, mp, mpf, polyroots, quad, sqrt, workdps

mp.dps = 30

# l(x) = P_x(T = infinity) at the default model with drift 1/2 and [a, b] =
# [0, 1], to 40 digits: ``Oracle(sigma=sqrt(2)).avoidance(0.5, x)`` with the
# oracle built and run at 40 digits
AVOIDANCE = {
    -3.0: "0.02055969715555881859966837439433785499188",
    3.0: "0.4446707242314468900636331459678489922456",
    11.0: "0.9208091039632250900319560615649187007641",
}

# (P_x(e_q < T, above b), P_x(e_q < T, below a)) at the default model,
# [a, b] = [0, 1] and q = CLOCK_Q, keyed by x, to 40 digits:
# ``Oracle(sigma=sqrt(2)).clock(CLOCK_Q, xs)`` with the oracle built and run at
# 40 digits
CLOCK_Q = 0.1
CLOCK = {
    2.0: ("0.2429916846997253839645786011649591517373",
          "0.01228831793900785123223836443883555121582"),
    1.001: ("0.0003172267460818793973288363888320023436117",
            "0.00002641449227078606097405823590964595598773"),
    -0.5: ("0.008878023999342392361173000051734295824008",
           "0.1369412910419427691613509492818063411674"),
}


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

    def gamma_bound(self):
        return (self.beta - self.eta) / self.beta * exp(-self.eta * self.width)

    # -- generator equations by collocation -----------------------------------

    def _generator(self, f, x, drift=0):
        """L f(x) for f(y, der), the der-th derivative of a function that
        vanishes on [a, b]; the jump integral by quadrature."""
        eta, a, b = self.eta, self.a, self.b
        density = lambda y: f(y) * eta / 2 * exp(-eta * abs(y - x))
        jump = quad(density, [-inf, x, a] if x < a else [-inf, a])
        jump += quad(density, [b, x, inf] if x > b else [b, inf])
        return self.sigma**2 / 2 * f(x, 2) + drift * f(x, 1) + self.lam * (jump - f(x))

    def clock(self, q, xs, dps=40):
        """(P_x(e_q < T, above b), P_x(e_q < T, below a)) at each x in xs.

        Not the library's geometric loop over the jumps across [a, b]: each
        side's probability is taken as 1{x above b} (or 1{x below a}) plus
        A_i e^{-rho_i (x-b)} above b and B_i e^{-rho_i (a-x)} below a,
        i = 1, 2, with rho1 < rho2 the positive roots of the quartic of
        ``roots`` from the generic polynomial solver.  Each term's generator
        leaves a multiple of e^{-eta |x - boundary|} on each side, so
        (q - L) f = q 1{x on the side} at one point a side and f = 0 at a and
        b (a diffusion creeps onto both) fix the four coefficients."""
        with workdps(dps):
            q, a, b = mpf(q), self.a, self.b
            p = 2 * q / self.sigma**2
            rho = sorted(mp.re(r) for r in polyroots(
                [1, 0, -(self.beta**2 + p), 0, p * self.eta**2], maxsteps=200, extraprec=200)
                if mp.re(r) > 0)

            def term(j, x, der=0):
                """Term j or its derivative: the constants above b and below
                a (j = 0, 1), the A_i's exponentials (j = 2, 3), the B_i's
                (j = 4, 5)."""
                if j < 2:
                    return mpf((x > b if j == 0 else x < a) and der == 0)
                if (j < 4) != (x > b) or a <= x <= b:
                    return mpf(0)
                r, s, sign = (rho[j - 2], x - b, -1) if j < 4 else (rho[j - 4], a - x, 1)
                return (sign * r)**der * exp(-r * s)

            def resolvent(j, x):
                return q * term(j, x) - self._generator(lambda y, der=0: term(j, y, der), x)

            points = [b + mpf(1) / 2, a - 1]
            system = matrix([[resolvent(j, x) for j in (2, 3, 4, 5)] for x in points]
                            + [[1, 1, 0, 0], [0, 0, 1, 1]])
            sides = []
            for side in (0, 1):
                coef = lu_solve(system, matrix(
                    [q * term(side, x) - resolvent(side, x) for x in points]
                    + [-int(side == 0), -int(side == 1)]))
                sides.append([term(side, mpf(x)) + sum(c * term(j, mpf(x))
                                                       for j, c in zip((2, 3, 4, 5), coef))
                              for x in xs])
            return list(zip(*sides))

    # -- avoidance probability of the drifted model ---------------------------

    def avoidance(self, drift, xs, dps=40):
        """l(x) = P_x(T = infinity) at each x in xs for drift > 0.

        Not the library's loop over the passage laws: l is taken in the form
        1 + A e^{-g (x-b)} + B e^{-r2 (x-b)} above b and K (1 - e^{-rho (a-x)})
        below a, with -r2 < -g < 0 < rho the real roots of the cubic
        (drift + sigma^2 th/2)(eta^2 - th^2) + lam th from the generic
        polynomial solver.  Each term's generator, its jump integral by
        quadrature, leaves a multiple of e^{-eta |x - boundary|} on each
        side, so L l = 0 at one point a side and l(b) = 0 (a diffusion
        creeps onto b) fix A, B and K."""
        with workdps(dps):
            drift, s2, eta, a, b = mpf(drift), self.sigma**2 / 2, self.eta, self.a, self.b
            rts = sorted(mp.re(r) for r in polyroots(
                [-s2, -drift, s2 * eta**2 + self.lam, drift * eta**2],
                maxsteps=200, extraprec=200))
            rates = [mpf(0), -rts[1], -rts[0]]

            def term(j, x, der=0):
                """Term j (the constant, A's, B's, K's) of l, or its derivative."""
                if j < 3:
                    return ((-rates[j])**der * exp(-rates[j] * (x - b)) if x > b
                            else mpf(0))
                if x < a:
                    return 1 - exp(-rts[2] * (a - x)) if der == 0 else (
                        -rts[2]**der * exp(-rts[2] * (a - x)))
                return mpf(0)

            def generator(j, x):
                return self._generator(lambda y, der=0: term(j, y, der), x, drift)

            points = [b + mpf(1) / 2, a - 1]
            A, B, K = lu_solve(
                matrix([[generator(j, x) for j in (1, 2, 3)] for x in points] + [[1, 1, 0]]),
                matrix([-generator(0, x) for x in points] + [-1]))
            return [sum(c * term(j, mpf(x)) for j, c in enumerate((1, A, B, K)))
                    for x in xs]
