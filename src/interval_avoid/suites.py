"""Verification suites: identity checks and Monte Carlo cross-checks.

Every check states the mathematical claim it verifies, the observed and
expected values and the tolerance used.  Deterministic identities run at
1e-10/1e-12 relative; Monte Carlo comparisons use 3 standard errors plus an
explicitly reported systematic margin (horizon censoring, finite-horizon
proxies) where one exists.

The frozen REFERENCE constants below are the acceptance targets at the
default configuration (sigma = sqrt(2), lam = 1, eta = 1, interval [0, 1]).
They were fixed ahead of the implementation by independent high-precision
evaluation of the closed forms (mpmath, 40 digits; see tests/oracles.py for
the derivation route) and are deliberately not computed by the library code
they are used to check.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

import numpy as np

from . import closedform as cf
from . import engine as eng
from . import particles as pt
from .config import SuiteConfig
from .model import (Interval, ModelParams, kappa, ladder_exponent, laplace_exponent,
                    potential, potential_q, potential_q_total, wiener_hopf_roots)

__all__ = ["Check", "SuiteReport", "run_suite", "emit_table", "SUITES",
           "REFERENCE", "dumps_17g", "derive_seed"]


# Acceptance targets at the default configuration, frozen from independent
# 40-digit evaluation of the closed forms.
REFERENCE = {
    "beta": 1.4142135623730951,
    "c": 0.06311813346854917,
    "gamma": 0.10774939365999787,
    "U_at_1": 0.8638624380518403,
    "h_plus_at_2": 0.8681438383679111,
    "h_minus_at_2": 0.06783154191662195,
    "h_at_2": 0.9359753802845330,
    "p_up_at_2": 0.9275284977089874,
    "nu1_mass_from_-1": 0.08155371293611257,
    "nu3_over_nu1": 0.003983898772553587,       # = c^2
    "potential_q_total_at_0.25": 2.0,
}

_DEFAULT_MODEL = ModelParams()
_DEFAULT_INTERVAL = Interval(0.0, 1.0)


def derive_seed(seed: int, *tags: int) -> int:
    """Independent child seed for one named sub-experiment."""
    ss = np.random.SeedSequence([int(seed), *[int(t) for t in tags]])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Check:
    name: str
    claim: str
    observed: float
    expected: float
    tolerance: float
    passed: bool
    criterion: Optional[int] = None   # acceptance-criterion number, if any


def check_close(name, claim, observed, expected, tolerance, criterion=None) -> Check:
    return Check(name, claim, float(observed), float(expected), float(tolerance),
                 bool(abs(observed - expected) <= tolerance), criterion)


def check_le(name, claim, observed, bound, slack=0.0, criterion=None) -> Check:
    return Check(name, claim, float(observed), float(bound), float(slack),
                 bool(observed <= bound + slack), criterion)


def check_ge(name, claim, observed, bound, slack=0.0, criterion=None) -> Check:
    return Check(name, claim, float(observed), float(bound), float(slack),
                 bool(observed >= bound - slack), criterion)


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    checks: list
    runtime_seconds: float
    config_echo: dict

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "runtime_seconds": self.runtime_seconds,
            "config_echo": self.config_echo,
        }


# --------------------------------------------------------------------------- #
# Serialisation with full-precision floats
# --------------------------------------------------------------------------- #

_FLOAT_TOKEN = re.compile(r'"@float:(\d+)@"')


def _fmt17(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_17g(obj, indent: int = 2) -> str:
    """JSON text with every float rendered at 17 significant digits."""
    floats: list[float] = []

    def mark(o):
        if isinstance(o, bool) or o is None or isinstance(o, (int, str)):
            return o
        if isinstance(o, float):
            floats.append(o)
            return f"@float:{len(floats) - 1}@"
        if isinstance(o, np.floating):
            return mark(float(o))
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, dict):
            return {k: mark(v) for k, v in o.items()}
        if isinstance(o, (list, tuple, np.ndarray)):
            return [mark(v) for v in o]
        raise TypeError(f"cannot serialise {type(o)!r}")

    text = json.dumps(mark(obj), indent=indent, sort_keys=True)
    return _FLOAT_TOKEN.sub(lambda m: _fmt17(floats[int(m.group(1))]), text)


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean of iid samples."""
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _is_default(config: SuiteConfig) -> bool:
    m, iv = config.model, config.interval
    return (m == _DEFAULT_MODEL and iv == _DEFAULT_INTERVAL)


# --------------------------------------------------------------------------- #
# closedform suite: deterministic identities (criteria 1 and 2)
# --------------------------------------------------------------------------- #

def _suite_closedform(config: SuiteConfig) -> list[Check]:
    model, iv = config.model, config.interval
    if model.drift != 0.0:
        model = ModelParams(model.sigma, model.lam, model.eta, 0.0)
    h = cf.harmonics(model, iv)
    rng = np.random.default_rng(derive_seed(config.seed, 1))
    checks: list[Check] = []
    tol_det = config.tolerance("deterministic", 1e-10)
    tol_root = config.tolerance("roots", 1e-12)

    if _is_default(config):
        x_probe = 2.0
        for name, obs, ref in [
            ("beta_value", model.beta, REFERENCE["beta"]),
            ("crossing_factor", cf.crossing_factor(model, iv), REFERENCE["c"]),
            ("gamma_bound", cf.gamma_bound(model, iv), REFERENCE["gamma"]),
            ("potential_at_1", potential(model, 1.0), REFERENCE["U_at_1"]),
            ("h_plus_at_2", h.plus(x_probe), REFERENCE["h_plus_at_2"]),
            ("h_minus_at_2", h.minus(x_probe), REFERENCE["h_minus_at_2"]),
            ("h_at_2", h.combined(x_probe), REFERENCE["h_at_2"]),
        ]:
            checks.append(check_close(
                name, "closed-form value equals frozen independent evaluation",
                obs, ref, tol_det * max(1.0, abs(ref)), criterion=1))

    # h = h_plus + h_minus with unit weight (symmetric ladder exponents)
    xs = np.concatenate([iv.a - rng.uniform(0.01, 5.0, 10),
                         iv.b + rng.uniform(0.01, 5.0, 10)])
    add_err = np.max(np.abs(h.combined(xs) - (h.plus(xs) + h.minus(xs))))
    checks.append(check_close(
        "h_additivity", "h(x) = h_plus(x) + C h_minus(x) with C = 1",
        add_err, 0.0, 1e-13, criterion=1))

    sym_err = np.max(np.abs(h.plus(xs) - h.minus(iv.a + iv.b - xs))
                     / np.maximum(h.plus(xs), 1e-300))
    checks.append(check_close(
        "reflection_symmetry", "h_plus(x) = h_minus(a + b - x)",
        sym_err, 0.0, 1e-12, criterion=1))

    # partial sums of the crossing-measure series against the closed form
    c = h.c
    K = 10
    worst = -math.inf
    for x in xs:
        closed = float(h.plus(x))
        part = cf.harmonic_plus_partial_sum(model, iv, float(x), K)
        worst = max(worst, abs(part - closed) - (c ** (2 * K) * closed + 1e-12))
    checks.append(check_le(
        "series_matches_closed_form",
        "partial sums converge geometrically to h_plus (tail ratio c^2)",
        worst, 0.0, criterion=1))

    # Laplace exponent factorises through the ladder exponent
    thetas = rng.uniform(-0.99 * model.eta, 0.99 * model.eta, 20)
    fac_err = max(abs(laplace_exponent(model, t)
                      - ladder_exponent(model, t) * ladder_exponent(model, -t))
                  / (1.0 + abs(laplace_exponent(model, t))) for t in thetas)
    checks.append(check_close(
        "wiener_hopf_factorisation",
        "psi(theta) = upsilon(theta) * upsilon(-theta) on (-eta, eta)",
        fac_err, 0.0, tol_det, criterion=2))

    # root identities and kappa(q) = sqrt(q)
    qs = rng.uniform(1e-6, 10.0, 100)
    prod_err = sum_err = kap_err = 0.0
    for q in qs:
        r1, r2 = wiener_hopf_roots(model, q)
        prod_err = max(prod_err, abs(r1 * r2 - model.eta * math.sqrt(q))
                       / (model.eta * math.sqrt(q)))
        sum_err = max(sum_err, abs(r1 * r1 + r2 * r2 - (model.beta**2 + q))
                      / (model.beta**2 + q))
        kap_err = max(kap_err, abs(kappa(model, q) - math.sqrt(q)) / math.sqrt(q))
    checks.append(check_close(
        "root_product", "rho1(q) rho2(q) = eta sqrt(q)", prod_err, 0.0, tol_root,
        criterion=2))
    checks.append(check_close(
        "root_sum", "rho1^2 + rho2^2 = beta^2 + q", sum_err, 0.0, tol_root,
        criterion=2))
    checks.append(check_close(
        "kappa_is_sqrt_q", "kappa(q) = kappa_hat(q) = sqrt(q)", kap_err, 0.0, tol_root,
        criterion=2))

    mass_err = max(abs(kappa(model, q) * potential_q_total(model, q) - 1.0)
                   for q in (0.25, 0.5, 1.0, 2.0))
    checks.append(check_close(
        "q_potential_total_mass", "kappa(q) * U_q(infinity) = 1",
        mass_err, 0.0, tol_det, criterion=2))

    # q-potential squeezes below the plain potential and grows as q drops
    for x in (0.5, 1.0, 3.0):
        u = potential(model, x)
        u1 = potential_q(model, x, 0.5)
        u2 = potential_q(model, x, 1.5)
        checks.append(check_le(
            f"q_potential_monotone_x{x:g}",
            "U_q(x) <= U(x) and U_q decreasing in q",
            max(u1 - u, u2 - u1), 0.0, criterion=2))

    # crossing-measure masses obey the geometric gamma bound
    gam = cf.gamma_bound(model, iv)
    start = iv.a - 1.0
    worst = max(cf.nu(model, iv, start, k).mass - gam**k for k in (1, 2, 3))
    checks.append(check_le(
        "nu_mass_bound", "mass(nu_k) <= gamma^k", worst, 0.0, criterion=1))
    return checks


# --------------------------------------------------------------------------- #
# overshoot suite: first-passage laws and geometric crossing scaling (3, 4)
# --------------------------------------------------------------------------- #

def _suite_overshoot(config: SuiteConfig) -> list[Check]:
    model, iv = config.model, config.interval
    n = config.paths or 1_000_000
    start = iv.a - 1.0
    checks: list[Check] = []

    # one censored pass gives the laws of crossings 1, 2 and 3
    cfg = eng.PathConfig(dt=1.0, horizon=2000.0, seed=derive_seed(config.seed, 4),
                         n_paths=n)
    law = eng.empirical_crossing_law(model, iv, start, 3, cfg)
    target = cf.nu(model, iv, start, 1).mass
    checks.append(check_close(
        "nu1_mass",
        "first jump over the interval lands beyond b with the closed-form mass",
        law.mass[0].mean, target,
        3.0 * law.mass[0].stderr + law.censor_bias_bound[0], criterion=3))
    checks.append(check_le(
        "nu1_shape_ks",
        "overshoot beyond b is Exp(eta), Kolmogorov-Smirnov at alpha = 0.01",
        law.ks_distance[0], law.ks_critical[0], criterion=3))
    checks.append(check_le(
        "nu1_enough_samples", "conditional sample is large enough to test",
        float(law.insufficient[0]), 0.0, criterion=3))

    # numpy scalars: a pass with no third crossing gives a NaN tolerance (a
    # failed check), not a ZeroDivisionError
    m1, m3 = np.float64(law.mass[0].mean), np.float64(law.mass[2].mean)
    ratio = m3 / m1
    # same-path delta method; crossing 3 implies crossing 1
    var_r = ratio**2 * ((1.0 - m3) / (n * m3) - (1.0 - m1) / (n * m1))
    se_r = math.sqrt(max(var_r, 0.0))
    b1, b3 = law.censor_bias_bound[0], law.censor_bias_bound[2]
    bias_r = (b3 + ratio * b1) / m1
    c2 = cf.crossing_factor(model, iv) ** 2
    checks.append(check_close(
        "nu3_over_nu1",
        "third crossing mass / first crossing mass = c^2 (geometric scaling)",
        ratio, c2, 3.0 * se_r + bias_r, criterion=4))
    return checks


# --------------------------------------------------------------------------- #
# harmonicity suite: martingale identity on a grid (criterion 5)
# --------------------------------------------------------------------------- #

def _suite_harmonicity(config: SuiteConfig) -> list[Check]:
    model, iv = config.model, config.interval
    n = config.paths or 400_000
    checks: list[Check] = []
    starts = (-2.0, -1.2, 1.5, 3.0)
    times = (0.25, 1.0, 4.0)
    for i, x in enumerate(starts):
        for j, t in enumerate(times):
            cfg = eng.PathConfig(dt=1.0, horizon=max(t, 1.0), n_paths=n,
                                 seed=derive_seed(config.seed, 5, i, j))
            res = pt.harmonicity_residual(model, iv, "combined", x, t, cfg)
            checks.append(check_close(
                f"martingale_x{x:g}_t{t:g}",
                "E[1(t<T) h(xi_t)] = h(x) (harmonicity of h)",
                res.mean, 0.0, 3.0 * res.stderr, criterion=5))
    return checks


# --------------------------------------------------------------------------- #
# clocklimit / conditioning suites: exponential-clock identities (6, thm fingerprints)
# --------------------------------------------------------------------------- #

def _clock_suite(config: SuiteConfig, above_only: bool, limit_name: str,
                 claims: tuple[str, str, str], criterion: Optional[int]) -> list[Check]:
    """Scaled clock probabilities P(e_q < T, side)/sqrt(q) for q = 0.1, 0.03,
    0.01 against their q -> 0 limit and the q-relaxed series: the side is
    "above only" (limit h_plus) or "total" (limit h = h_plus + h_minus).
    ``claims`` holds the increase, limit and bound claims, in that order."""
    model, iv = config.model, config.interval
    n = config.paths or 200_000
    start = 2.0 if _is_default(config) else iv.b + iv.width
    rows = []
    for i, q in enumerate((0.1, 0.03, 0.01)):
        cfg = eng.PathConfig(dt=1.0, horizon=1.0, n_paths=n,
                             seed=derive_seed(config.seed, 6 + int(above_only), i))
        est = eng.estimate_clock_event(model, iv, start, q, cfg)
        res = est.above if above_only else est.total
        rows.append((q, res.mean / math.sqrt(q), res.stderr / math.sqrt(q)))
    h = cf.harmonics(model, iv)
    target = float(h.plus(start) if above_only else h.combined(start))
    K = cf.default_series_depth(model, iv)
    increasing, limit, bound = claims
    checks: list[Check] = []
    checks.append(check_le(
        "scaled_clock_increasing", increasing,
        max(rows[0][1] - rows[1][1], rows[1][1] - rows[2][1]), 0.0, criterion=criterion))
    q, scaled, se = rows[-1]
    checks.append(check_close(
        limit_name, limit, scaled, target, 0.05 * target + 3.0 * se, criterion=criterion))
    for q, scaled, se in rows:
        hq = cf.harmonic_plus_q_partial_sum(model, iv, start, q, K)
        if not above_only:
            hq += cf.harmonic_minus_q_partial_sum(model, iv, start, q, K)
        checks.append(check_le(f"clock_bound_q{q:g}", bound, scaled, hq, 3.0 * se,
                               criterion=criterion))
    return checks


def _suite_clocklimit(config: SuiteConfig) -> list[Check]:
    return _clock_suite(config, True, "clock_limit_h_plus", (
        "P(e_q < T, above)/sqrt(q) increases as q drops toward h_plus",
        "P(e_q < T, above)/sqrt(q) -> h_plus(x) as q -> 0",
        "P(e_q < T, above)/sqrt(q) <= q-relaxed series value"), criterion=6)


def _suite_conditioning(config: SuiteConfig) -> list[Check]:
    return _clock_suite(config, False, "clock_limit_h", (
        "P(e_q < T)/sqrt(q) increases as q drops toward h = h_plus + h_minus",
        "P(e_q < T)/sqrt(q) -> h(x) as q -> 0 (randomised conditioning weight)",
        "P(e_q < T)/sqrt(q) <= sum of q-relaxed series values"), criterion=None)


# --------------------------------------------------------------------------- #
# longtime suite: escape dichotomy and transience (criteria 7, 8)
# --------------------------------------------------------------------------- #

def _suite_longtime(config: SuiteConfig) -> list[Check]:
    model, iv = config.model, config.interval
    n = config.particles
    start = 2.0 if _is_default(config) else iv.b + iv.width
    h = cf.harmonics(model, iv)
    checks: list[Check] = []

    horizon = 60.0
    cfg = eng.PathConfig(dt=0.1, horizon=horizon, n_paths=n,
                         seed=derive_seed(config.seed, 8))
    dp = pt.drift_probability(model, iv, start, horizon, cfg, transform="updown")
    target = float(h.plus(start) / h.combined(start))
    checks.append(check_close(
        "updown_p_up",
        "conditioned process escapes upward with probability h_plus/h",
        dp.p_up.mean, target, 0.02 + 3.0 * dp.p_up.stderr, criterion=7))
    checks.append(check_close(
        "p_up_plus_p_down",
        "weighted side fractions partition the surviving mass",
        dp.p_up.mean + dp.p_down.mean, 1.0, 1e-12, criterion=7))

    cfg_plus = eng.PathConfig(dt=0.1, horizon=40.0, n_paths=n,
                              seed=derive_seed(config.seed, 9))
    dp_plus = pt.drift_probability(model, iv, start, 40.0, cfg_plus, transform="plus")
    checks.append(check_ge(
        "plus_transform_drifts_up",
        "under the h_plus transform the process diverges upward",
        dp_plus.p_up.mean, 0.995, criterion=7))

    # occupation saturates like 1/sqrt(horizon): each path's gain over
    # (100, 200] is no more than over (50, 100], where a recurrent process
    # gains sqrt(2) times as much; the paired difference needs no margin for
    # the true growth between the horizons
    window = (iv.a - 2.0, iv.b + 2.0)
    cfg_o = eng.PathConfig(dt=0.1, horizon=200.0, n_paths=max(1024, n // 4),
                           seed=derive_seed(config.seed, 10, 0))
    occ = pt.occupation_time(model, iv, start, window, (50.0, 100.0, 200.0), cfg_o,
                             transform="updown")
    growth = (occ[:, 2] - occ[:, 1]) - (occ[:, 1] - occ[:, 0])
    checks.append(check_le(
        "occupation_saturates",
        "occupation gained as the horizon doubles from 100 to 200 is no more than "
        "from 50 to 100 (transience)",
        growth.mean(), 0.0, 3.0 * _stderr(growth), criterion=8))
    d, c_hi = window
    sup_h = max(float(h.combined(d)), float(h.combined(c_hi)))
    bound = sup_h * (potential(model, c_hi - iv.b) * float(h.plus(start))
                     + potential(model, iv.a - d) * float(h.minus(start))) / float(h.combined(start))
    checks.append(check_le(
        "occupation_bound",
        "occupation bounded by sup_h * (U(c-b) h_plus + U(a-d) h_minus)/h",
        occ[:, 2].mean(), bound, 3.0 * _stderr(occ[:, 2]), criterion=8))
    return checks


# --------------------------------------------------------------------------- #
# transient5 suite: positive drift, avoidance probability is harmonic (9)
# --------------------------------------------------------------------------- #

def _interp_grid(xs_below, vals_below, xs_above, vals_above, iv: Interval):
    """Per-side linear interpolators with boundary anchors pinned to zero."""
    xb = np.concatenate([xs_below, [iv.a]])
    vb = np.concatenate([vals_below, [0.0]])
    xa = np.concatenate([[iv.b], xs_above])
    va = np.concatenate([[0.0], vals_above])

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        below = x < iv.a
        out = np.where(below,
                       np.interp(np.clip(x, xb[0], xb[-1]), xb, vb),
                       np.interp(np.clip(x, xa[0], xa[-1]), xa, va))
        return out

    def node_weights(x, alive):
        """Accumulated linear-interpolation weight per grid node (alive paths)."""
        wb = np.zeros(xb.size)
        wa = np.zeros(xa.size)
        x = np.asarray(x, dtype=float)[alive]
        for grid, acc, mask in ((xb, wb, x < iv.a), (xa, wa, x >= iv.a)):
            xi = np.clip(x[mask], grid[0], grid[-1])
            j = np.clip(np.searchsorted(grid, xi) - 1, 0, grid.size - 2)
            frac = (xi - grid[j]) / (grid[j + 1] - grid[j])
            np.add.at(acc, j, 1.0 - frac)
            np.add.at(acc, j + 1, frac)
        return wb[:-1], wa[1:]   # drop the pinned anchors

    return evaluate, node_weights


def _suite_transient5(config: SuiteConfig) -> list[Check]:
    model, iv = config.model, config.interval
    if model.drift == 0.0:
        model = ModelParams(model.sigma, model.lam, model.eta, 0.5)
    if not model.drift > 0.0:
        raise ValueError("transient suite requires positive drift")
    checks: list[Check] = []

    # far above the interval the process drifts away without returning
    far = iv.b + 50.0 / model.eta
    cfg_far = eng.PathConfig(dt=1.0, horizon=1.0, n_paths=8192,
                             seed=derive_seed(config.seed, 11))
    est_far = eng.estimate_avoidance(model, iv, far, cfg_far)
    checks.append(check_ge(
        "far_start_avoids",
        "avoidance probability tends to 1 far above the interval",
        est_far.result.mean, 1.0,
        3.0 * est_far.result.stderr + est_far.return_prob_bound + 1e-9,
        criterion=9))

    # avoidance-probability grid for the nested harmonicity identity
    n_grid = (config.paths or 200_000) // 12
    xs_below = iv.a - np.arange(0.25, 6.01, 0.25)[::-1]
    xs_above = iv.b + np.arange(0.25, 10.01, 0.25)
    def grid_estimate(x, tag, n):
        cfg = eng.PathConfig(dt=1.0, horizon=1.0, n_paths=n,
                             seed=derive_seed(config.seed, 12, tag))
        est = eng.estimate_avoidance(model, iv, float(x), cfg)
        return est.result.mean, est.result.stderr

    vals_b, ses_b = zip(*[grid_estimate(x, i, n_grid) for i, x in enumerate(xs_below)])
    vals_a, ses_a = zip(*[grid_estimate(x, 1000 + i, n_grid)
                          for i, x in enumerate(xs_above)])
    evaluate, node_weights = _interp_grid(xs_below, np.array(vals_b),
                                          xs_above, np.array(vals_a), iv)

    start, t_obs = 2.0, 1.0
    n_ref = 4 * n_grid
    cfg_ref = eng.PathConfig(dt=1.0, horizon=1.0, n_paths=n_ref,
                             seed=derive_seed(config.seed, 13))
    ref = eng.estimate_avoidance(model, iv, start, cfg_ref)

    n_outer = config.paths or 200_000
    cfg_outer = eng.PathConfig(dt=1.0, horizon=max(t_obs, 1.0), n_paths=n_outer,
                               seed=derive_seed(config.seed, 14))
    xs, alive = eng.terminal_sample(model, iv, start, t_obs, cfg_outer)
    w = np.where(alive, evaluate(xs), 0.0)
    outer_mean = float(w.mean())
    outer_se = _stderr(w)

    wb, wa = node_weights(xs, alive)
    se_nodes = math.sqrt(float(np.sum((wb / n_outer) ** 2 * np.array(ses_b) ** 2)
                               + np.sum((wa / n_outer) ** 2 * np.array(ses_a) ** 2)))
    combined = math.sqrt(outer_se**2 + ref.result.stderr**2 + se_nodes**2)
    checks.append(check_close(
        "avoidance_harmonicity",
        "E[1(t<T) l(xi_t)] = l(x) for l(x) = P(T = infinity) (nested MC)",
        outer_mean, ref.result.mean, 4.0 * combined, criterion=9))

    # stochastic monotonicity above the interval, as a weak trend
    i1 = int(np.argmin(np.abs(xs_above - (iv.b + 1.0))))
    i3 = int(np.argmin(np.abs(xs_above - (iv.b + 3.0))))
    checks.append(check_le(
        "avoidance_monotone_above",
        "avoidance probability increases with the starting height",
        vals_a[i1] - vals_a[i3],
        3.0 * math.sqrt(ses_a[i1]**2 + ses_a[i3]**2), criterion=9))
    return checks


SUITES = {
    "closedform": _suite_closedform,
    "overshoot": _suite_overshoot,
    "harmonicity": _suite_harmonicity,
    "clocklimit": _suite_clocklimit,
    "conditioning": _suite_conditioning,
    "longtime": _suite_longtime,
    "transient5": _suite_transient5,
}


def _config_echo(config: SuiteConfig) -> dict:
    return {
        "suite": config.suite,
        "model": {"sigma": config.model.sigma, "lambda": config.model.lam,
                  "eta": config.model.eta, "drift": config.model.drift},
        "interval": {"a": config.interval.a, "b": config.interval.b},
        "seed": config.seed,
        "paths": config.paths,
        "particles": config.particles,
        "tolerances": config.tolerances,
    }


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run one named suite; report every check with its claim and tolerance."""
    name = config.suite
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    tic = time.perf_counter()
    checks = SUITES[name](config)
    report = SuiteReport(
        suite=name,
        passed=all(c.passed for c in checks),
        checks=checks,
        runtime_seconds=time.perf_counter() - tic,
        config_echo=_config_echo(config),
    )
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(dumps_17g(report.to_dict()) + "\n")
    return report


# --------------------------------------------------------------------------- #
# Plot-ready tables
# --------------------------------------------------------------------------- #

def emit_table(kind: str, grid: Iterable[float], output_path: str,
               model: ModelParams, interval: Interval, k_max: int = 4) -> None:
    """Write a CSV of closed-form values over a grid, 17 significant digits."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1 (got {k_max})")
    rows: list[list] = []
    if kind == "harmonics":
        h = cf.harmonics(model, interval)
        gam = cf.gamma_bound(model, interval)
        header = ["x", "h_plus", "h_minus", "h", "U_minus", "nu1_mass", "gamma"]
        for x in grid:
            interval.require_outside(x, "grid point")
            dist = x - interval.b if x > interval.b else interval.a - x
            rows.append([x, float(h.plus(x)), float(h.minus(x)), float(h.combined(x)),
                         potential(model, dist), cf.nu(model, interval, x, 1).mass, gam])
    elif kind == "potentials":
        header = ["x", "U", "U_q_0.25", "U_q_1"]
        for x in grid:
            rows.append([x, potential(model, x), potential_q(model, x, 0.25),
                         potential_q(model, x, 1.0)])
    elif kind == "nu_masses":
        header = ["start", "k", "side", "mass"]
        for x in grid:
            interval.require_outside(x, "grid point")
            for k in range(1, k_max + 1):
                m = cf.nu(model, interval, x, k)
                rows.append([x, k, m.side, m.mass])
    else:
        raise ValueError(f"unknown table kind {kind!r}")

    with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                format(v, ".17g") if isinstance(v, float) else str(v)
                for v in row) + "\n")
