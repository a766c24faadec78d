"""Every public name resolves: the package's and each submodule's ``__all__``."""

import importlib
import pkgutil

import pytest

import glevy

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(glevy.__path__) if m.name != "__main__")


def test_package_names_resolve():
    assert {"simulate", "uncertainty", "pide", "analysis"} <= set(SUBMODULES)
    missing = [name for name in glevy.__all__ if not hasattr(glevy, name)]
    assert missing == []
    namespace: dict = {}
    exec("from glevy import *", namespace)
    assert set(glevy.__all__) <= set(namespace)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_resolve(name):
    module = importlib.import_module(f"glevy.{name}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from glevy.{name} import *", namespace)
