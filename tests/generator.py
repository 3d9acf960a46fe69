"""The generator of the killed process by quadrature, a deterministic check
of harmonic claims.

For f with f = 0 on [a, b],

    L f(x) = (sigma^2/2) f''(x) + drift f'(x)
             + lam * int (f(x + y) - f(x)) (eta/2) e^{-eta |y|} dy,

and f is harmonic for the process killed on entering [a, b] when L f = 0 at
every x outside [a, b].  The jump integral runs by scipy ``quad`` over the
pieces of y on which f is smooth: breakpoints at a - x, b - x and 0, the
piece that lands inside [a, b] left out, and the tails cut at 60/eta, where
the jump density has fallen below 1e-26.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

QUAD = dict(epsabs=1e-14, epsrel=1e-12, limit=200)


def generator(model, interval, f, df, d2f, x: float) -> float:
    """L f(x) for x outside [a, b]; f, df and d2f are f and its first two
    derivatives as scalar functions, read outside [a, b] only."""
    eta, cut = model.eta, 60.0 / model.eta
    ends = [-cut, *sorted({interval.a - x, interval.b - x, 0.0}), cut]
    jump = 0.0
    for lo, hi in zip(ends[:-1], ends[1:]):
        lo, hi = max(lo, -cut), min(hi, cut)
        if lo < hi and not interval.a <= x + 0.5 * (lo + hi) <= interval.b:
            jump += quad(lambda y: f(x + y) * 0.5 * eta * math.exp(-eta * abs(y)),
                         lo, hi, **QUAD)[0]
    return (0.5 * model.sigma**2 * d2f(x) + model.drift * df(x)
            + model.lam * (jump - f(x)))
