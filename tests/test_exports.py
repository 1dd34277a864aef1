import importlib
import pkgutil

import pytest

import roughvolterra

# __main__ runs the CLI on import
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(roughvolterra.__path__) if m.name != "__main__"
)


def test_every_module_is_listed():
    assert {"algebra", "cli", "sigma", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"roughvolterra.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"roughvolterra.{name}.__all__ lists undefined names {missing}"
