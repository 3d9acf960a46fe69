import importlib
import inspect

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
