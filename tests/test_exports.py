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


# the 11-intensity family of `glevy expect` and a martingale check on it: every
# hull test is one-parameter and every merge exact, so neither needs more of scipy
_FOOTPRINT_RUN = """
import json, sys
from pathlib import Path

LAZY = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.interpolate", "scipy.linalg")


def loaded():
    return [name for name in LAZY if name in sys.modules]


import glevy, glevy.cli

print(json.dumps(loaded()))
out = Path(sys.argv[1])
family = {"family": {"rule": "scaled_point_mass", "fixed": {"location": 1.0},
                     "params": {"intensity": {"min": 1.0, "max": 2.0, "count": 11}}}}
config = {"uncertainty": family, "payoff": {"kind": "clampedLinear", "scale": 1.0, "cap": 1.0},
          "grid": {"x_min": -6.0, "x_max": 8.0, "nx": 141, "dt": 0.01, "horizon": 1.0, "export_solution": True},
          "mc": {"n_paths": 200, "seed": 3}}
(out / "config.json").write_text(json.dumps(config))
rc = glevy.cli.main(["expect", "--method", "both", "--config", str(out / "config.json"), "--out", str(out), "--quiet"])
spec = glevy.ProcessSpec("compensatedJumpPart", glevy.uncertainty_set_from_config(family))
glevy.martingale_check(spec, 0.25, 0.75, glevy.Grid1D(-6.0, 8.0, 141, 0.01, 1.0))
print(json.dumps(loaded()), rc)
"""


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.special gives the few Poisson and gamma values the package needs;
    # the rest of scipy is imported by the one call that uses it
    src = str(Path(glevy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-c", _FOOTPRINT_RUN, str(tmp_path)]
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[] 0"]
