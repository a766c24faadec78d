"""Every public name resolves: the package's and each submodule's ``__all__``."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.special gives the few Poisson and gamma values the package needs
    code = "import sys, glevy, glevy.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(glevy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
