import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import interval_avoid

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
