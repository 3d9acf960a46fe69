"""The path kernel against a frozen sample of the kernel it replaced.

``data/kernel_fixture.npz`` holds hit times and values, crossing counts,
k_dagger, crossing positions and positions at t = 1 drawn by the one-event-
per-iteration kernel for three models and starts
(``data/make_kernel_fixture.py``).  The current kernel redraws each case on
another seed with five times the paths, and every observable must pass a
two-sample test (Kolmogorov-Smirnov for positions and times, chi-square for
counts) at level ALPHA.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from laws import chi2_pvalue

DATA = Path(__file__).parent / "data"
ALPHA = 1e-3
SEED = 20261018          # any seed but the fixture's
SCALE = 5                # new paths per fixture path
MIN_KS = 20              # smallest sample compared by KS


def _maker():
    spec = importlib.util.spec_from_file_location("make_kernel_fixture",
                                                  DATA / "make_kernel_fixture.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKER = _maker()


@pytest.fixture(scope="module")
def fixture():
    with np.load(DATA / "kernel_fixture.npz") as data:
        return {k: data[k] for k in data.files}


def test_fixture_is_small():
    assert (DATA / "kernel_fixture.npz").stat().st_size <= 256 * 1024


@pytest.mark.parametrize("case", range(len(MAKER.CASES)))
def test_kernel_law_matches_fixture(fixture, case):
    old = {k[len(f"c{case}_"):]: v for k, v in fixture.items() if k.startswith(f"c{case}_")}
    n_old = old["n_cross"].size
    assert list(old["params"]) == [*MAKER.CASES[case], MAKER.HORIZON]
    new = MAKER.sample_case(case, SEED, SCALE * n_old)
    n_new = new["n_cross"].size

    def hits(sample, n):
        return np.repeat([1, 0], [sample["hit_time"].size, n - sample["hit_time"].size])

    def alive_at_1(sample, n):
        return np.repeat([1, 0], [sample["x1"].size, n - sample["x1"].size])

    p_values = {
        "hit fraction": chi2_pvalue(hits(old, n_old), hits(new, n_new)),
        "crossing count": chi2_pvalue(old["n_cross"], new["n_cross"]),
        "k_dagger": chi2_pvalue(old["k_dagger"], new["k_dagger"]),
        "alive at 1": chi2_pvalue(alive_at_1(old, n_old), alive_at_1(new, n_new)),
    }
    for key in ["hit_time", "hit_value", "x1"] + [f"cross_{j + 1}"
                                                   for j in range(MAKER.CROSSINGS)]:
        if min(old[key].size, new[key].size) >= MIN_KS:
            p_values[key] = stats.ks_2samp(old[key], new[key]).pvalue
    assert len(p_values) >= 8
    assert min(p_values.values()) >= ALPHA, p_values
