import os
import subprocess
import sys
from pathlib import Path

import fdmaps

ROOT = Path(__file__).resolve().parents[1]

# Installs the bench's wrappers on every name perfbench/tracing.py resolves,
# then runs a small weak probe and one of several blocks, with five CPUs
# patched in (the sweep samples on the calling thread whatever the count),
# and prints the derivative evaluations counted after each.
SCRIPT = """
import tracing
tracer = tracing.Tracer("t")
tracing.instrument(tracer)
from fdmaps import build_rect_mesh, convergence
from fdmaps.convergence import weak_probe
from fdmaps.sequences import SequenceRecipe, generate
convergence.available_cpus = lambda: 5
for n, j_max in ((2, 2), (16, 8)):
    seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=j_max),
                   build_rect_mesh(n, n, 0, 1 + 1j))
    weak_probe(seq)
    print(tracer.summary()["convergence.derivative_evals"])
"""

# The criterion-08 descent on disk level 3, the first rung of the bench
# ladder, traced; prints the counts the ladder reports.
LADDER_SCRIPT = """
import tracing
tracer = tracing.Tracer("t")
tracing.instrument(tracer)
import fdmaps
spec = fdmaps.FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8)
boundary = fdmaps.BoundaryData(kind="circle_diffeo", sin_coeffs=(0.0, 0.3))
fdmaps.minimize_energy(spec, fdmaps.build_disk_mesh(3), boundary,
                       fdmaps.MinimizeConfig(max_iterations=20000, gradient_tolerance=1e-9))
summary = tracer.summary()
print(summary["minimize.iterations"], summary["minimize.energy_evals"])
"""


def _run_traced(script, cwd):
    src = str(Path(fdmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_bench_tracing_instruments_fdmaps(tmp_path):
    # a renamed or re-signed function would break `perfbench/run.py --trace 1`.
    # The limit and two members on one block of eight triangles; then the
    # limit and eight members on each of the four blocks of 512 triangles
    # (64 points each), counted exactly while four threads sample them
    assert _run_traced(SCRIPT, tmp_path) == ["3", str(3 + (8 + 1) * 4)]


def test_bench_tracing_counts_the_ladder_descent(tmp_path):
    # the bench compares these counts exactly between runs and commits:
    # 24 iterations and 29 energy evaluations on the ladder's first rung
    assert _run_traced(LADDER_SCRIPT, tmp_path) == ["24", "29"]
