"""Acceptance gate: every verification criterion at its stated tolerance.

Each criterion is backed by checks in one of the named suites; this module
runs the suites once (cached per session) at the default configuration and
default budgets, asserts the relevant checks, and prints one PASS/FAIL line
per criterion (run pytest with -s to see them inline).

Criteria:
  1 closed-form consistency (deterministic identities and frozen constants)
  2 factorisation roots, kappa(q) = sqrt(q), q-potential total mass
  3 overshoot law beyond the far boundary: mass and Exp(eta) shape (MC)
  4 geometric crossing scaling mass(nu_3)/mass(nu_1) = c^2 (MC)
  5 harmonicity of h on a (start, time) grid (MC)
  6 exponential-clock probabilities P(e_q < T, above)/kappa(q) against their
    closed form (MC), which increases to h_plus as q -> 0 (deterministic)
  7 escape dichotomy p_up = h_plus/h and upward drift under the plus
    transform (particle MC)
  8 occupation-time saturation and its closed-form bound (particle MC)
  9 transient case (positive drift): avoidance probability is harmonic
    (nested MC)
"""

import pytest

from interval_avoid.config import parse_config
from interval_avoid.suites import run_suite

CRITERIA = {
    1: ("closedform", ("beta_value", "crossing_factor", "gamma_bound",
                       "potential_at_1", "h_plus_at_2", "h_minus_at_2", "h_at_2",
                       "p_up_at_2", "nu1_mass_from_-1", "crossing_factor_squared",
                       "potential_q_total_at_0.25",
                       "h_additivity", "reflection_symmetry",
                       "series_matches_closed_form", "nu_mass_bound")),
    2: ("closedform", ("wiener_hopf_factorisation", "root_product", "root_sum",
                       "kappa_is_sqrt_q", "q_potential_total_mass")),
    3: ("overshoot", ("nu1_mass", "nu1_shape_ks", "nu1_enough_samples")),
    4: ("overshoot", ("nu3_over_nu1", "nu3_enough_samples")),
    5: ("harmonicity", None),
    6: ("clocklimit", None),
    7: ("longtime", ("updown_p_up", "p_up_plus_p_down", "plus_transform_drifts_up")),
    8: ("longtime", ("occupation_saturates", "occupation_bound")),
    9: ("transient5", None),
}

_reports = {}


def suite_report(name):
    if name not in _reports:
        _reports[name] = run_suite(parse_config({}, suite=name))
    return _reports[name]


def run_criterion(number):
    suite, names = CRITERIA[number]
    report = suite_report(suite)
    checks = [c for c in report.checks if names is None or c.name in names]
    assert checks, f"criterion {number}: no checks found in suite {suite}"
    ok = all(c.passed for c in checks)
    print(f"criterion {number} {'PASS' if ok else 'FAIL'} "
          f"[suite {suite}, {len(checks)} checks]")
    for c in checks:
        detail = (f"    {'ok ' if c.passed else 'BAD'} {c.name}: observed "
                  f"{c.observed:.6g}, expected {c.expected:.6g}, "
                  f"tol {c.tolerance:.3g}")
        print(detail)
    failed = [c for c in checks if not c.passed]
    assert not failed, f"criterion {number} failed: {[c.name for c in failed]}"


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    run_criterion(number)


def test_all_named_checks_exist():
    for number, (suite, names) in CRITERIA.items():
        if names is None:
            continue
        present = {c.name for c in suite_report(suite).checks}
        missing = set(names) - present
        assert not missing, (number, missing)


def test_conditioning_suite_fingerprint():
    """The unrestricted clock probabilities scale toward h = h_plus + h_minus
    (expectation-level fingerprint of the randomised conditioning limit)."""
    report = suite_report("conditioning")
    print(f"conditioning suite {'PASS' if report.passed else 'FAIL'} "
          f"[{len(report.checks)} checks]")
    assert report.passed, [c.name for c in report.checks if not c.passed]
