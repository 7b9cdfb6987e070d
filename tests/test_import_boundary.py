import os
import subprocess
import sys
from pathlib import Path

import fdmaps

# Runs every command but the descent's and reports whether scipy.sparse was
# loaded; then touches one descent name and checks that the lazy names are
# the descent module's own.
SCRIPT = """
import sys
import fdmaps, fdmaps.cli
from fdmaps.cli import run
configs = [
    {"command": "mesh", "domain": {"kind": "disk", "level": 2}},
    {"command": "diagnose", "domain": {"kind": "disk", "level": 2},
     "recipe": {"kind": "affine_drift", "params": {}, "j_max": 4}},
    {"command": "hopf", "domain": {"kind": "disk", "level": 3},
     "hopf": {"formula": "affine", "args": [[1.0, 0.0], [0.3, 0.0]], "p": 1.0, "N": 8,
              "inverse": True}},
    {"command": "oracle", "oracle": {"n_samples": 100}},
]
for i, config in enumerate(configs):
    assert run(config, str(i)) == 0, config["command"]
print("scipy.sparse" in sys.modules)
fdmaps.MinimizeConfig
print("scipy.sparse" in sys.modules)
import fdmaps.minimize
names = ("BoundaryData", "MinimizeConfig", "energy_gradient", "harmonic_extension",
         "minimize_energy", "prolong", "truncation_sweep")
print(all(getattr(fdmaps, name) is getattr(fdmaps.minimize, name)
          and name in dir(fdmaps) for name in names))
"""


def test_only_the_descent_imports_scipy(tmp_path):
    # in a fresh interpreter: pytest's own configuration has imported scipy
    src = str(Path(fdmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


# Runs each command but the descent's and reports which of numpy's lazily
# loaded subpackages are loaded after it.  The probes of oracle and diagnose
# draw from fdmaps' own sampler and no command reads numpy.ma, so only the
# quadrature of diagnose, the last to run, loads one: numpy.polynomial.
LAZY_SCRIPT = """
import sys
from fdmaps.cli import run
lazy = ("numpy.random", "numpy.ma", "numpy.polynomial")
configs = [
    {"command": "mesh", "domain": {"kind": "disk", "level": 2}},
    {"command": "hopf", "domain": {"kind": "disk", "level": 3},
     "hopf": {"formula": "affine", "args": [[1.0, 0.0], [0.3, 0.0]], "p": 1.0, "N": 8,
              "inverse": True}},
    {"command": "oracle", "oracle": {"n_samples": 100}},
    {"command": "diagnose", "domain": {"kind": "disk", "level": 2},
     "recipe": {"kind": "affine_drift", "params": {}, "j_max": 4}},
]
for config in configs:
    assert run(config, config["command"]) == 0, config["command"]
    print(config["command"], [name in sys.modules for name in lazy])
"""


def test_mesh_and_hopf_load_neither_numpy_random_nor_polynomial(tmp_path):
    src = str(Path(fdmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", LAZY_SCRIPT], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["mesh [False, False, False]",
                                        "hopf [False, False, False]",
                                        "oracle [False, False, False]",
                                        "diagnose [False, False, True]"]
