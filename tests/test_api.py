"""Every name a zest module exports resolves, so a deleted name left in an ``__all__`` fails here."""

import importlib
import pkgutil

import pytest

import zest

MODULES = ["zest", *(f"zest.{m.name}" for m in pkgutil.iter_modules(zest.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
