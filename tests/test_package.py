"""Package surface: every public name a module declares exists."""

import importlib
import pkgutil

import pytest

import kesic

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(kesic.__path__, prefix="kesic.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
