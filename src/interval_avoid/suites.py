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

Each Monte Carlo suite sends all of its estimates to ``engine._map_jobs`` as
one job list.  transient5's outer sample is a job of this module, whose
blocks return five sums (``_outer_block``).
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
from ._rng import worker_count
from .config import ConfigError, SuiteConfig
from .model import (Interval, ModelParams, _green_factor, kappa, ladder_exponent,
                    laplace_exponent, potential, potential_q, potential_q_total,
                    require_number, wiener_hopf_roots)

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


def _suite_model(config: SuiteConfig) -> ModelParams:
    """The model that the suite's checks run on, as its report echoes it:
    closedform takes the config's model at drift 0, where the closed forms
    hold, and transient5 a centred model at drift 0.5, where the process is
    transient; every other suite takes the config's model."""
    model = config.model
    if config.suite == "closedform" and model.drift != 0.0:
        return ModelParams(model.sigma, model.lam, model.eta, 0.0)
    if config.suite == "transient5" and model.drift == 0.0:
        return ModelParams(model.sigma, model.lam, model.eta, 0.5)
    return model


# --------------------------------------------------------------------------- #
# closedform suite: deterministic identities (criteria 1 and 2)
# --------------------------------------------------------------------------- #

def _suite_closedform(config: SuiteConfig) -> list[Check]:
    model, iv = _suite_model(config), config.interval
    h = cf.harmonics(model, iv)
    rng = np.random.default_rng(derive_seed(config.seed, 1))
    checks: list[Check] = []
    tol_det, tol_root = 1e-10, 1e-12

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
            ("p_up_at_2", h.plus(x_probe) / h.combined(x_probe), REFERENCE["p_up_at_2"]),
            ("nu1_mass_from_-1", cf.nu(model, iv, -1.0, 1).mass,
             REFERENCE["nu1_mass_from_-1"]),
            ("crossing_factor_squared", cf.crossing_factor(model, iv) ** 2,
             REFERENCE["nu3_over_nu1"]),
            ("potential_q_total_at_0.25", potential_q_total(model, 0.25),
             REFERENCE["potential_q_total_at_0.25"]),
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

    # the roots solve -psi(rho) = q at the true rate, and kappa(q) scales the
    # q-killed factorisation q + psi(theta) = (sigma^2/2) k_q(theta) k_q(-theta),
    # k_q(theta) = kappa(q) (1 + theta/rho1)(1 + theta/rho2)/(1 + theta/eta).
    # rho1's error is its Newton step over rho1: near the pole at eta the
    # residual over q measures psi's conditioning, not the root's error.
    qs = rng.uniform(1e-6, 10.0, 100)
    t2 = thetas * thetas
    psi = laplace_exponent(model, thetas)
    res_err = sum_err = kap_err = 0.0
    for q in qs:
        r1, r2 = wiener_hopf_roots(model, q)
        scale = r1 * r1 * (model.sigma**2 + 2.0 * model.lam * model.eta**2
                           / (model.eta**2 - r1 * r1)**2)     # -rho1 psi'(rho1)
        res_err = max(res_err, abs(-laplace_exponent(model, r1) - q) / scale)
        s = model.beta**2 + 2.0 * q / model.sigma**2
        sum_err = max(sum_err, abs(r1 * r1 + r2 * r2 - s) / s)
        fac = (0.5 * model.sigma**2 * kappa(model, q)**2
               * (1.0 - t2 / (r1 * r1)) * (1.0 - t2 / (r2 * r2)) / (1.0 - t2 / model.eta**2))
        kap_err = max(kap_err, float(np.max(np.abs(q + psi - fac) / (q + np.abs(psi)))))
    checks.append(check_close(
        "root_product",
        "-psi(rho1(q)) = q, to rho1's relative error (-psi(rho1) - q)/(rho1 psi'(rho1))",
        res_err, 0.0, tol_root, criterion=2))
    checks.append(check_close(
        "root_sum", "rho1^2 + rho2^2 = beta^2 + 2q/sigma^2", sum_err, 0.0, tol_root,
        criterion=2))
    checks.append(check_close(
        "kappa_is_sqrt_q",
        "q + psi(theta) = (sigma^2/2) k_q(theta) k_q(-theta), k_q(0) = kappa(q) = sqrt(2q)/sigma",
        kap_err, 0.0, tol_root, criterion=2))

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
        law.mass[0].mean, target, 3.0 * law.mass[0].stderr, criterion=3))
    checks.append(check_le(
        "nu1_shape_ks",
        "overshoot beyond b is Exp(eta), Kolmogorov-Smirnov at alpha = 0.01",
        law.ks_distance[0], law.ks_critical[0], criterion=3))
    checks.append(check_le(
        "nu1_enough_samples", "conditional sample is large enough to test",
        float(law.insufficient[0]), 0.0, criterion=3))

    m1, m3 = law.mass[0].mean, law.mass[2].mean
    ratio = t = 0.0     # their limits when no third crossing was recorded
    if law.positions[2].size:
        ratio = m3 / m1
        # same-path delta method on the paths' scores S_1 and S_3
        cov = law.mass_cov
        var_r = (cov[2, 2] - 2.0 * ratio * cov[0, 2] + ratio**2 * cov[0, 0]) / (n * m1**2)
        t = 3.0 * math.sqrt(max(var_r, 0.0)) / ratio
    # tested on log scale, |ln(ratio / c^2)| <= 3 se_r / ratio, since the log
    # of the skewed ratio is closer to normal; reported in the ratio's units,
    # with the half-width of the band [c^2 e^-t, c^2 e^t] on the ratio's side
    c2 = cf.crossing_factor(model, iv) ** 2
    checks.append(check_close(
        "nu3_over_nu1",
        "third crossing mass / first crossing mass = c^2 (geometric scaling), "
        "within 3 se on log scale",
        ratio, c2, c2 * (math.expm1(t) if ratio > c2 else -math.expm1(-t)), criterion=4))
    checks.append(check_ge(
        "nu3_enough_samples", "a third crossing was recorded, so the ratio has a standard error",
        float(law.positions[2].size), 1.0, criterion=4))
    return checks


# --------------------------------------------------------------------------- #
# harmonicity suite: martingale identity on a grid (criterion 5)
# --------------------------------------------------------------------------- #

def _suite_harmonicity(config: SuiteConfig) -> list[Check]:
    model, iv = config.model, config.interval
    n = config.paths or 400_000
    w = iv.width
    starts = (iv.a - 2.0 * w, iv.a - 1.2 * w, iv.b + 0.5 * w, iv.b + 2.0 * w)
    times = (0.25, 1.0, 4.0)
    # one job per start, recording every time on its paths
    jobs = [pt._harmonicity_job(model, iv, "combined", x, times,
                                derive_seed(config.seed, 5, i, 0), n) for i, x in enumerate(starts)]
    return [check_close(f"martingale_x{x:g}_t{t:g}", "E[1(t<T) h(xi_t)] = h(x) (harmonicity of h)",
                        res.mean, 0.0, 3.0 * res.stderr, criterion=5)
            for x, per_time in zip(starts, eng._map_jobs(jobs)) for t, res in zip(times, per_time)]


# --------------------------------------------------------------------------- #
# clocklimit / conditioning suites: exponential-clock identities (6, thm fingerprints)
# --------------------------------------------------------------------------- #

def _clock_suite(config: SuiteConfig, above_only: bool, limit_name: str,
                 claims: tuple[str, str, str], criterion: Optional[int]) -> list[Check]:
    """Scaled clock probabilities P(e_q < T, side)/kappa(q), side "above
    only" (limit h_plus) or "total" (limit h = h_plus + h_minus): at
    q = 0.1, 0.03, 0.01, read from one path set, each Monte Carlo value
    against the closed form within 3 se (each at level 0.27%, the three
    together at most 0.8%), and the increase and q -> 0 limit on the closed
    form, down to q = 1e-12.  ``claims`` holds the increase, limit and per-q
    claims, in that order."""
    model, iv = config.model, config.interval
    n = config.paths or 200_000
    start = iv.b + iv.width
    qs = (0.1, 0.03, 0.01)
    # one path set: each path's one Exp(1) time E read as the clock E/q
    estimates = eng._map_jobs([eng._clock_job(
        model, iv, start, qs, derive_seed(config.seed, 6 + int(above_only), 0), n)])[0]
    h = cf.harmonics(model, iv)
    target = float(h.plus(start) if above_only else h.combined(start))
    tiny = (1e-8, 1e-10, 1e-12)
    scaled = []
    for q in (*qs, *tiny):
        up, down = cf.clock_probability(model, iv, start, q)
        scaled.append((up if above_only else up + down) / kappa(model, q))
    increasing, limit, per_q = claims
    checks: list[Check] = []
    checks.append(check_le(
        "scaled_clock_increasing", increasing,
        max(lo - hi for lo, hi in zip(scaled, scaled[1:])), 0.0, criterion=criterion))
    # the gap to the limit is C sqrt(q) + D q + O(q^1.5), so r(q) = gap/sqrt(q)
    # is C + D sqrt(q) + O(q): one Richardson step on r(1e-10), r(1e-12) and on
    # r(1e-8), r(1e-10) gives C twice, up to O(q)
    r = [(target - s) / math.sqrt(q) for q, s in zip(tiny, scaled[-3:])]
    checks.append(check_close(
        limit_name, limit, (10.0 * r[2] - r[1]) / (10.0 * r[1] - r[0]), 1.0, 1e-3,
        criterion=criterion))
    for q, est, expected in zip(qs, estimates, scaled):
        res = est.above if above_only else est.total
        k = kappa(model, q)
        checks.append(check_close(f"clock_exact_q{q:g}", per_q, res.mean / k, expected,
                                  3.0 * (res.stderr / k), criterion=criterion))
    return checks


def _suite_clocklimit(config: SuiteConfig) -> list[Check]:
    return _clock_suite(config, True, "clock_limit_h_plus", (
        "P(e_q < T, above)/kappa(q) increases as q drops toward h_plus",
        "P(e_q < T, above)/kappa(q) -> h_plus(x) as q -> 0",
        "P(e_q < T, above)/kappa(q) matches its closed form within 3 se"), criterion=6)


def _suite_conditioning(config: SuiteConfig) -> list[Check]:
    return _clock_suite(config, False, "clock_limit_h", (
        "P(e_q < T)/kappa(q) increases as q drops toward h = h_plus + h_minus",
        "P(e_q < T)/kappa(q) -> h(x) as q -> 0 (randomised conditioning weight)",
        "P(e_q < T)/kappa(q) matches its closed form within 3 se"), criterion=None)


# --------------------------------------------------------------------------- #
# longtime suite: escape dichotomy and transience (criteria 7, 8)
# --------------------------------------------------------------------------- #

def _occupation_bound(model, iv, h, start, window) -> float:
    """sup_h G(x, window)/h(x) bounds the h-transform's time in the window (d, c):
    the killed Green measure G of (b, c] and [d, a) is at most
    (2/sigma^2)(U(c-b) h_plus(x) + U(a-d) h_minus(x))."""
    d, c = window
    green = _green_factor(model) * (potential(model, c - iv.b) * float(h.plus(start))
                                    + potential(model, iv.a - d) * float(h.minus(start)))
    return max(float(h.combined(d)), float(h.combined(c))) * green / float(h.combined(start))


def _suite_longtime(config: SuiteConfig) -> list[Check]:
    model, iv = config.model, config.interval
    n = config.particles
    start = iv.b + iv.width
    h = cf.harmonics(model, iv)
    checks: list[Check] = []

    window = (iv.a - 2.0, iv.b + 2.0)
    # one task list, costliest first: the occupation pass has 2000 grid times
    occ, dp, dp_plus = eng._map_jobs([
        pt._occupation_job(model, iv, start, window, (50.0, 100.0, 200.0),
                           derive_seed(config.seed, 10, 0), max(1024, n // 4), 0.1, "updown"),
        pt._drift_job(model, iv, start, 60.0, derive_seed(config.seed, 8), n, "updown"),
        pt._drift_job(model, iv, start, 40.0, derive_seed(config.seed, 9), n, "plus")])
    target = float(h.plus(start) / h.combined(start))
    checks.append(check_close(
        "updown_p_up",
        "conditioned process escapes upward with probability h_plus/h",
        dp.p_up.mean, target, 0.02 + 3.0 * dp.p_up.stderr, criterion=7))
    checks.append(check_close(
        "p_up_plus_p_down",
        "weighted side fractions partition the surviving mass",
        dp.p_up.mean + dp.p_down.mean, 1.0, 1e-12, criterion=7))

    checks.append(check_ge(
        "plus_transform_drifts_up",
        "under the h_plus transform the process diverges upward",
        dp_plus.p_up.mean, 0.995, criterion=7))

    # occupation saturates like 1/sqrt(horizon): each path's gain over
    # (100, 200] is no more than over (50, 100], where a recurrent process
    # gains sqrt(2) times as much; the paired difference needs no margin for
    # the true growth between the horizons
    growth = (occ[:, 2] - occ[:, 1]) - (occ[:, 1] - occ[:, 0])
    checks.append(check_le(
        "occupation_saturates",
        "occupation gained as the horizon doubles from 100 to 200 is no more than "
        "from 50 to 100 (transience)",
        growth.mean(), 0.0, 3.0 * _stderr(growth), criterion=8))
    checks.append(check_le(
        "occupation_bound",
        "occupation bounded by sup_h * (2/sigma^2)(U(c-b) h_plus + U(a-d) h_minus)/h",
        occ[:, 2].mean(), _occupation_bound(model, iv, h, start, window),
        3.0 * _stderr(occ[:, 2]), criterion=8))
    return checks


# --------------------------------------------------------------------------- #
# transient5 suite: positive drift, avoidance probability is harmonic (9)
# --------------------------------------------------------------------------- #

def _outer_block(model, interval, start, n, rng, t, g):
    """Sums over the paths of ``engine._terminal_block`` at time t of
    w = 1(t<T) l(xi_t), l = ``closedform.avoidance_probability``, and of the
    optional-stopping control C = exp(-g (xi_{t ^ T} - x)) - 1, a dead path at
    its entry value xi_T: (sum w, sum w^2, sum C, sum C^2, sum w C)."""
    xs, alive = eng._terminal_block(model, interval, start, n, rng, t)
    c = np.expm1(-g * (xs - start))
    w = np.zeros(n)
    w[alive] = cf.avoidance_probability(model, interval, xs[alive])
    return (float(w.sum()), float(np.sum(w * w)), float(c.sum()), float(np.sum(c * c)),
            float(np.sum(w * c)))


def _outer_estimate(sums, n: int, controlled: bool) -> eng.EstimatorResult:
    """Mean of w and its standard error from the summed ``_outer_block``
    results: with ``controlled``, (sum w - beta sum C)/n, beta the slope of w
    on C, with the regression residual's se (divisor n - 2); else plain."""
    sw, sww, sum_c, sq_c, swc = sums
    if not controlled:
        return eng._mean_result(sw, sww, n)
    s_cc = sq_c - sum_c * sum_c / n
    s_wc = swc - sw * sum_c / n
    beta = s_wc / s_cc
    rss = sww - sw * sw / n - beta * s_wc
    return eng.EstimatorResult((sw - beta * sum_c) / n,
                               math.sqrt(max(rss, 0.0) / ((n - 2) * n)), n)


# upper quantile of the chi-square law with 41 degrees of freedom (the 40
# grid starts above b and the pooled starts below a) at level 0.0027, by
# Wilson-Hilferty: 41 (1 - k + 2.7822 sqrt(k))^3 with k = 2 / (9 * 41)
_CHI2_41 = 70.743


def _suite_transient5(config: SuiteConfig) -> list[Check]:
    model, iv = _suite_model(config), config.interval
    if not model.drift > 0.0:
        raise ValueError("transient suite requires positive drift")
    checks: list[Check] = []

    # avoidance estimates far above the interval, where the process drifts
    # away without returning, and on a grid on both sides
    far = iv.b + 50.0 / model.eta
    n_grid = (config.paths or 200_000) // 12
    if n_grid < 1:
        raise ConfigError(f"transient5 needs paths >= 12, one path per grid start at "
                          f"paths // 12 (got paths = {config.paths})")
    xs_below = iv.a - np.arange(0.25, 6.01, 0.25)[::-1]
    xs_above = iv.b + np.arange(0.25, 10.01, 0.25)
    start, t_obs = iv.b + iv.width, 1.0
    n_outer = config.paths or 200_000
    above = [(float(x), derive_seed(config.seed, 12, 1000 + i), n_grid)
             for i, x in enumerate(xs_above)]
    below = [(float(x), derive_seed(config.seed, 12, i), n_grid) for i, x in enumerate(xs_below)]
    g = eng.adjustment_coefficient(model)

    # one task list, costliest first (Graham's LPT rule, so that no worker is
    # left alone with a long task at the end): the far start, the grid starts
    # above the interval from the highest down, those below and the outer
    # sample at t_obs.  The far start's one block costs less than a block of
    # the highest grid starts, but the cheapest blocks still come last
    grid_tasks = [*above[::-1], *below]
    est_far, *est_grid, sums = eng._map_jobs([
        eng._avoidance_job(model, iv, x, seed, n)
        for x, seed, n in [(far, derive_seed(config.seed, 11), 8192), *grid_tasks]]
        + [eng._Job(_outer_block, model, iv, start, derive_seed(config.seed, 14), n_outer,
                    (t_obs, g), eng._add_blocks)])

    # Lundberg's inequality 1 - l(x) <= exp(-g (x - b)), tested on the mean
    # return score, which keeps the digits that 1 - l rounds away far above b
    checks.append(check_le(
        "far_start_avoids",
        "avoidance probability tends to 1 far above the interval: "
        "1 - l(x) <= exp(-g (x - b))",
        est_far.returns.mean, math.exp(-g * (far - iv.b)), 3.0 * est_far.returns.stderr,
        criterion=9))

    # the grid's mean scores Z against 1 - l: a chi-square term per start above
    # b, and one pooled term for those below a, where l is small, few scores
    # fall below 1 and one start's se is unreliable.  Where a start's scores
    # are all equal (one path, or no path below a jumping over b), the bound
    # Var Z <= sup Z E[Z] - E[Z]^2 stands in for the sample variance
    grid, k = np.array([x for x, _, _ in grid_tasks]), len(above)
    side, small = cf._avoidance_halves(model, iv, grid)
    ret = np.where(side, small, 1.0 - small)
    mean, se = (np.array(v) for v in zip(*[(e.returns.mean, e.returns.stderr)
                                           for e in est_grid]))
    sup = np.where(side, np.exp(-g * (grid - iv.b)), 1.0)
    se = np.where(se > 0.0, se, np.sqrt(np.maximum(sup * ret - ret * ret, 0.0) / n_grid))
    stat = (float(np.sum(((mean[:k] - ret[:k]) / se[:k]) ** 2))
            + float(np.sum(mean[k:] - ret[k:])) ** 2 / float(np.sum(se[k:] ** 2)))
    checks.append(check_le(
        "avoidance_closed_form",
        "grid estimates of 1 - l(x) match the closed form: chi-square over the "
        "starts above b and the pooled starts below a, at level 0.0027",
        stat, _CHI2_41, criterion=9))

    # By Lundberg's equation exp(-g xi_t) is a martingale, so C has mean 0 by
    # optional stopping at t ^ T; its square has a finite mean only if
    # 2g < eta (the jumps' tails are Laplace), so otherwise beta = 0
    controlled = 2.0 * g < model.eta
    outer = _outer_estimate(sums, n_outer, controlled)
    checks.append(check_close(
        "avoidance_harmonicity",
        "E[1(t<T) l(xi_t)] = l(x) for the closed form l(x) = P(T = infinity)",
        outer.mean, cf.avoidance_probability(model, iv, start), 3.0 * outer.stderr,
        criterion=9))
    if controlled:
        stop = eng._mean_result(sums[2], sums[3], n_outer)
        checks.append(check_close(
            "outer_optional_stopping",
            "E[exp(-g (xi_{t ^ T} - x))] = 1 (optional stopping), which the "
            "controlled harmonicity estimate relies on",
            stop.mean, 0.0, 3.0 * stop.stderr, criterion=9))

    # stochastic monotonicity above the interval, as a weak trend
    vals_a, ses_a = zip(*[(e.result.mean, e.result.stderr) for e in est_grid[:k]])
    i1 = int(np.argmin(np.abs(grid[:k] - (iv.b + 1.0))))
    i3 = int(np.argmin(np.abs(grid[:k] - (iv.b + 3.0))))
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


def _model_echo(model: ModelParams, interval: Interval) -> dict:
    return {"model": {"sigma": model.sigma, "lambda": model.lam, "eta": model.eta,
                      "drift": model.drift},
            "interval": {"a": interval.a, "b": interval.b}}


def _config_echo(config: SuiteConfig) -> dict:
    return {
        "suite": config.suite,
        **_model_echo(_suite_model(config), config.interval),
        "seed": config.seed,
        "paths": config.paths,
        "particles": config.particles,
    }


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run one named suite; report every check with its claim and tolerance.

    The report is returned, not written: ``verify --out`` writes it."""
    name = config.suite
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    worker_count()      # a malformed INTERVAL_AVOID_THREADS fails every suite
    tic = time.perf_counter()
    checks = SUITES[name](config)
    return SuiteReport(
        suite=name,
        passed=all(c.passed for c in checks),
        checks=checks,
        runtime_seconds=time.perf_counter() - tic,
        config_echo=_config_echo(config),
    )


# --------------------------------------------------------------------------- #
# Plot-ready tables
# --------------------------------------------------------------------------- #

def emit_table(kind: str, grid: Iterable[float], output_path: str,
               model: ModelParams, interval: Interval, k_max: int = 4) -> None:
    """Write a CSV of closed-form values over a grid, 17 significant digits."""
    require_number(k_max, "k_max", integer=True, low=1)
    rows: list[list] = []
    if kind == "harmonics":
        h = cf.harmonics(model, interval)
        gam = cf.gamma_bound(model, interval)
        header = ["x", "h_plus", "h_minus", "h", "U_minus", "nu1_mass", "gamma"]
        for x in grid:
            _, dist = cf._side_distance(interval, x, "grid point")
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
        for row in [header, *rows]:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row) + "\n")
