"""The path kernel against a frozen sample of the kernel it replaced, and
its dead paths' entry values against optional stopping.

``data/kernel_fixture.npz`` holds hit times and values, crossing counts,
k_dagger, crossing positions and positions at t = 1 drawn by the one-event-
per-iteration kernel for three models and starts
(``data/make_kernel_fixture.py``).  The current kernel redraws each case on
another seed with five times the paths, and every observable but the hit
value must pass a two-sample test (Kolmogorov-Smirnov for positions and
times, chi-square for counts) at level ALPHA.  The fixture's hit values are
the old kernel's, which left a Brownian kill at the bridge's end value
inside [a, b]; the fixture holds them sorted and without their side, so they
cannot be remapped to entry values.  The entry values are tested without
the fixture instead: an exact invariant, and optional stopping of a
martingale at T ^ HORIZON.
"""

import functools
import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from interval_avoid import ModelParams
from interval_avoid._rng import block_stream
from interval_avoid.engine import PathBlock, adjustment_coefficient, advance
from laws import chi2_pvalue

DATA = Path(__file__).parent / "data"
ALPHA = 1e-3
SEED = 20261018          # any seed but the fixture's
SCALE = 5                # new paths per fixture path
MIN_KS = 20              # smallest sample compared by KS
# sha256 of the committed fixture: a fixture redrawn by the current kernel
# would turn every test below into a comparison of the kernel with itself
FIXTURE_SHA256 = "e6bda30a44a27d4fdee9ebff77150213bd5c04d7fa7891061963d42e6d5a1efb"


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


def test_fixture_is_the_old_kernels_sample():
    digest = hashlib.sha256((DATA / "kernel_fixture.npz").read_bytes()).hexdigest()
    assert digest == FIXTURE_SHA256


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
    for key in ["hit_time", "x1"] + [f"cross_{j + 1}" for j in range(MAKER.CROSSINGS)]:
        if min(old[key].size, new[key].size) >= MIN_KS:
            p_values[key] = stats.ks_2samp(old[key], new[key]).pvalue
    assert len(p_values) >= 7
    assert min(p_values.values()) >= ALPHA, p_values


OS_PATHS = 100_000       # paths per case of the entry-value tests


@functools.cache
def _stopped(case: int):
    """(model, start, block) of fixture case ``case`` advanced to HORIZON on a
    stream of its own, shared by the tests below, which only read it: a dead
    path holds xi_T, a live one xi_HORIZON."""
    sigma, lam, eta, drift, start = MAKER.CASES[case]
    model = ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift)
    pb = PathBlock.start(model, MAKER.INTERVAL, start, OS_PATHS, block_stream(SEED, 10 + case))
    advance(pb, MAKER.HORIZON)
    return model, start, pb


@pytest.mark.parametrize("case", range(len(MAKER.CASES)))
def test_dead_paths_hold_their_entry_values(case):
    """A Brownian kill (k_dagger = -1) enters continuously, so it holds
    exactly a or b; a jump kill holds its landing, inside [a, b]."""
    _model, _start, pb = _stopped(case)
    a, b = MAKER.INTERVAL.a, MAKER.INTERVAL.b
    dead = ~pb.alive
    brownian = dead & (pb.k_dagger == -1)
    jump = dead & (pb.k_dagger >= 0)
    assert brownian.any() and jump.any()
    assert np.all((pb.x[brownian] == a) | (pb.x[brownian] == b))
    assert np.all((pb.x[jump] >= a) & (pb.x[jump] <= b))


@pytest.mark.parametrize("case", range(len(MAKER.CASES)))
def test_entry_values_obey_optional_stopping(case):
    """Optional stopping at the bounded time T ^ HORIZON: xi is a martingale
    without drift, so E[xi_{T ^ 20}] = x (cases 0 and 1), and with drift
    exp(-g xi) is one by Lundberg's equation, so E[exp(-g (xi_{T ^ 20} - x))]
    = 1 (case 2, where 2g = 1.06 < eta = 1.5 gives it a finite variance).
    A two-sided z-test at level ALPHA."""
    model, start, pb = _stopped(case)
    if model.drift == 0.0:
        y = pb.x - start
    else:
        g = adjustment_coefficient(model)
        assert 2.0 * g < model.eta
        y = np.expm1(-g * (pb.x - start))
    z = y.mean() / (y.std(ddof=1) / np.sqrt(y.size))
    assert abs(z) <= stats.norm.isf(ALPHA / 2), z
