import os
import subprocess
import sys
from pathlib import Path

import fdmaps

ROOT = Path(__file__).resolve().parents[1]

# Installs the bench's wrappers on every name perfbench/tracing.py resolves,
# then runs a small diagnose and prints the derivative evaluations it counted.
SCRIPT = """
import tracing
tracer = tracing.Tracer("t")
tracing.instrument(tracer)
from fdmaps import build_rect_mesh
from fdmaps.convergence import weak_probe
from fdmaps.sequences import SequenceRecipe, generate
seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=2), build_rect_mesh(2, 2, 0, 1 + 1j))
weak_probe(seq)
print(tracer.summary()["convergence.derivative_evals"])
"""


def test_bench_tracing_instruments_fdmaps(tmp_path):
    # a renamed or re-signed function would break `perfbench/run.py --trace 1`
    src = str(Path(fdmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # the limit and two members, on one block of eight triangles
    assert proc.stdout.split() == ["3"]
