import ast
import dataclasses
import importlib
import importlib.util
import inspect
import math
import os
from pathlib import Path

import pytest

import interval_avoid
from interval_avoid import (Interval, ModelParams, PathConfig, empirical_crossing_law,
                            estimate_clock_event, estimate_survival, harmonics, nu, potential,
                            potential_q, potential_q_total, simulate_path, terminal_sample,
                            wiener_hopf_roots)
from interval_avoid.closedform import (harmonic_plus_partial_sum,
                                       harmonic_plus_q_partial_sum, overshoot_law)
from interval_avoid.particles import (drift_probability, harmonicity_residual, occupation_time,
                                      propagate_ensemble)
from interval_avoid.suites import emit_table

MODULES = ("model", "closedform", "engine", "particles", "suites", "config")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"interval_avoid.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_names_are_public_api():
    """Every name the package re-exports resolves and is listed in the
    ``__all__`` of the module that defines it."""
    for name, obj in vars(interval_avoid).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        module = importlib.import_module(obj.__module__)
        assert getattr(module, name) is obj
        assert name in module.__all__, f"{name} not in {module.__name__}.__all__"


def _load_bench_module(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, path


def test_benchmark_names_resolve():
    """The benchmark wraps and calls the program by name; a name it reads
    that the program drops breaks the traced run without another failure."""
    probe, _ = _load_bench_module("probe")
    for module_name, names in probe.LAYERS.values():
        module = importlib.import_module(f"interval_avoid.{module_name}")
        missing = [n for n in (names or module.__all__) if not hasattr(module, n)]
        assert not missing, (module_name, missing)
    _, micro_path = _load_bench_module("micro")
    for node in ast.walk(ast.parse(micro_path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("interval_avoid"):
            module = importlib.import_module(node.module)
            assert all(hasattr(module, alias.name) for alias in node.names), node.module


def test_benchmark_reads_these_fields():
    # bench/probe.py observes drift_probability's arguments and result, and
    # bench/micro.py starts blocks with max_crossings
    from interval_avoid.engine import PathBlock
    from interval_avoid.particles import DriftProbability, drift_probability

    assert {"config", "replicates"} <= set(inspect.signature(drift_probability).parameters)
    fields = {f.name for f in dataclasses.fields(DriftProbability)}
    assert {"ess_min", "resamples"} <= fields
    assert "max_crossings" in inspect.signature(PathBlock.start).parameters


_M, _IV = ModelParams(), Interval(0.0, 1.0)
_CFG = PathConfig(dt=0.1, horizon=1.0, seed=3, n_paths=16)

# (name, call with the value under test, an out-of-range value, integer-valued)
SCALARS = [
    ("ModelParams.sigma", lambda v: ModelParams(sigma=v), 0.0, False),
    ("ModelParams.lam", lambda v: ModelParams(lam=v), -1.0, False),
    ("ModelParams.eta", lambda v: ModelParams(eta=v), 0.0, False),
    ("ModelParams.drift", lambda v: ModelParams(drift=v), None, False),
    ("Interval.a", lambda v: Interval(v, 2.0), None, False),
    ("Interval.b", lambda v: Interval(-2.0, v), None, False),
    ("wiener_hopf_roots.q", lambda v: wiener_hopf_roots(_M, v), -1.0, False),
    ("potential_q.q", lambda v: potential_q(_M, 1.0, v), 0.0, False),
    ("potential.x", lambda v: potential(_M, v), -1.0, False),
    ("potential_q.x", lambda v: potential_q(_M, v, 0.5), -1.0, False),
    ("Harmonics.plus.x", lambda v: harmonics(_M, _IV).plus(v), 0.5, False),
    ("potential_q_total.q", lambda v: potential_q_total(_M, v), 0.0, False),
    ("PathConfig.horizon", lambda v: PathConfig(dt=0.1, horizon=v, seed=1, n_paths=8),
     0.0, False),
    ("PathConfig.dt", lambda v: PathConfig(dt=v, horizon=1.0, seed=1, n_paths=8), 0.0, False),
    ("PathConfig.seed", lambda v: PathConfig(dt=0.1, horizon=1.0, seed=v, n_paths=8),
     2**64, True),
    ("PathConfig.n_paths", lambda v: PathConfig(dt=0.1, horizon=1.0, seed=1, n_paths=v),
     0, True),
    ("estimate_clock_event.q", lambda v: estimate_clock_event(_M, _IV, 2.0, v, _CFG),
     0.0, False),
    ("empirical_crossing_law.k", lambda v: empirical_crossing_law(_M, _IV, 2.0, v, _CFG),
     0, True),
    ("terminal_sample.t", lambda v: terminal_sample(_M, _IV, 2.0, v, _CFG), -1.0, False),
    ("harmonicity_residual.t",
     lambda v: harmonicity_residual(_M, _IV, "combined", 2.0, v, _CFG), -1.0, False),
    ("estimate_survival.start", lambda v: estimate_survival(_M, _IV, v, 1.0, _CFG),
     0.5, False),
    ("propagate_ensemble.record_times",
     lambda v: propagate_ensemble(_M, _IV, "plus", 2.0, _CFG, record_times=[1.0, v]),
     -1.0, False),
    ("occupation_time.horizons",
     lambda v: occupation_time(_M, _IV, 2.0, (-2.0, 3.0), [1.0, v], _CFG), 0.0, False),
    ("occupation_time.window.d",
     lambda v: occupation_time(_M, _IV, 2.0, (v, 3.0), [1.0], _CFG), 0.5, False),
    ("occupation_time.window.c",
     lambda v: occupation_time(_M, _IV, 2.0, (-2.0, v), [1.0], _CFG), 0.5, False),
    ("simulate_path.path_index", lambda v: simulate_path(_M, _IV, 2.0, _CFG, path_index=v),
     -1, True),
    ("drift_probability.replicates",
     lambda v: drift_probability(_M, _IV, 2.0, 1.0, _CFG, replicates=v), 0, True),
    ("nu.k", lambda v: nu(_M, _IV, 2.0, v), -1, True),
    ("overshoot_law.start", lambda v: overshoot_law(_M, Interval(5.0, 6.0), v, "up"),
     -math.inf, False),
    ("OvershootLaw.mass_beyond.level",
     lambda v: overshoot_law(_M, Interval(5.0, 6.0), 2.0, "up").mass_beyond(v), 4.0, False),
    ("harmonic_plus_partial_sum.K", lambda v: harmonic_plus_partial_sum(_M, _IV, 2.0, v),
     -1, True),
    ("harmonic_plus_q_partial_sum.q",
     lambda v: harmonic_plus_q_partial_sum(_M, _IV, 2.0, v, 2), 0.0, False),
    ("harmonic_plus_q_partial_sum.K",
     lambda v: harmonic_plus_q_partial_sum(_M, _IV, 2.0, 0.5, v), -1, True),
    ("emit_table.k_max",
     lambda v: emit_table("nu_masses", [2.0], os.devnull, _M, _IV, k_max=v), 0, True),
]


@pytest.mark.parametrize("call,value", [
    pytest.param(call, value, id=f"{name}={value!r}")
    for name, call, out_of_range, integer in SCALARS
    for value in [True, False, "1", None, math.nan, math.inf]
    + ([] if out_of_range is None else [out_of_range]) + ([1.5] if integer else [])
])
def test_library_scalars_reject_invalid_values(call, value):
    """Every library scalar follows the one rule: a boolean, a string, None, a
    non-finite or out-of-range value (and a fraction where an integer is
    required) is a ValueError, never another exception or a result."""
    with pytest.raises(ValueError):
        call(value)
