import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdmaps
from fdmaps.errors import ConfigurationError
from fdmaps.fields import analytic_affine, analytic_radial_stretch
from fdmaps.geometry import BLOCK_ROWS
from fdmaps.sequences import SequenceRecipe, _bump_quadrature, generate, mollify_values


def test_recipe_validation():
    with pytest.raises(ConfigurationError):
        SequenceRecipe(kind="nope", params={}, j_max=4)
    with pytest.raises(ConfigurationError):
        SequenceRecipe(kind="constant", params={}, j_max=1)


def test_constant_sequence(disk3):
    seq = generate(SequenceRecipe(kind="constant", params={}, j_max=4), disk3)
    assert len(seq) == 4
    for j in range(4):
        assert np.allclose(seq.members[j].values, seq.limit.values)


def test_oscillation_requires_rect(disk3):
    with pytest.raises(ConfigurationError):
        generate(SequenceRecipe(kind="oscillation", params={}, j_max=4), disk3)


def test_oscillation_members_shrink_to_identity(unit_square_16):
    seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=8),
                   unit_square_16)
    dev = [np.abs(m.values - seq.mesh.nodes).max() for m in seq.members]
    # amplitude 1/(2 pi j) decays with j
    assert dev[0] > dev[-1]
    assert dev[-1] <= 1.0 / (2.0 * np.pi * 8) + 1e-12


def test_mollification_is_exact_on_affine(rng):
    amap = analytic_affine(1.3, 0.4 - 0.2j)
    pts = rng.uniform(-0.5, 0.5, 30) + 1j * rng.uniform(-0.5, 0.5, 30)
    out = mollify_values(amap, pts, 0.05)
    # a symmetric kernel with unit mass reproduces affine maps exactly
    assert np.allclose(out, amap.value(pts), atol=1e-12)


def test_mollification_converges_to_target(rng):
    amap = analytic_radial_stretch(2.0)
    pts = rng.uniform(0.3, 0.8, 20) + 1j * rng.uniform(-0.4, 0.4, 20)
    errs = [np.abs(mollify_values(amap, pts, delta) - amap.value(pts)).max()
            for delta in (0.2, 0.1, 0.05)]
    assert errs[0] > errs[1] > errs[2]
    # second-order accuracy away from the origin
    assert errs[2] < 0.3 * errs[1]


def _full_bump_mollify(amap, pts, delta, n=16):
    """The 256-point tensor rule, zero-weight points included."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = delta * x
    U = (u[:, None] + 1j * u[None, :]).ravel()
    r2 = np.abs(U) ** 2 / delta ** 2
    rho = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 8, 0.0)
    weights = np.outer(delta * w, delta * w).ravel() * rho
    weights = weights / np.sum(weights)
    return amap.value(pts.reshape(-1, 1) - U[None, :]) @ weights


@pytest.mark.parametrize("delta", [1.0, 1.0 / 7.0, 1.0 / 64.0])
def test_bump_quadrature_keeps_support_points_only(disk5, delta):
    offsets, weights = _bump_quadrature(delta)
    assert len(offsets) == len(weights) == 144
    assert np.all(weights > 0)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-15)
    amap = analytic_radial_stretch(2.0)
    got = mollify_values(amap, disk5.nodes, delta)
    ref = _full_bump_mollify(amap, disk5.nodes, delta)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def _one_shot_mollify(amap, points, delta):
    """The mollifier before chunking: every point against every bump point
    in one (points x bump points) evaluation."""
    offsets, weights = _bump_quadrature(delta)
    pts = np.asarray(points, dtype=complex)
    vals = amap.value(pts.reshape(-1, 1) - offsets[None, :])
    return (vals @ weights).reshape(pts.shape)


@pytest.mark.parametrize("target", ["radial_stretch", "affine"])
@pytest.mark.parametrize("delta", [1.0, 1.0 / 7.0, 1.0 / 64.0])
def test_chunked_mollifier_is_bit_identical(disk5, target, delta):
    amap = (analytic_radial_stretch(2.0) if target == "radial_stretch"
            else analytic_affine(1.3, 0.4 - 0.2j))
    step = BLOCK_ROWS // 2 // len(_bump_quadrature(delta)[0])  # mollify_values' rows
    nodes = disk5.nodes
    assert len(nodes) % step != 0
    # all nodes; a count the chunk does not divide; a 2-D array keeps its
    # shape, and its 60 points end in a partial block too
    for pts in (nodes, nodes[:3 * step + 5], nodes[:2 * step + 4].reshape(-1, 4)):
        got = mollify_values(amap, pts, delta)
        assert got.shape == pts.shape
        assert np.array_equal(got, _one_shot_mollify(amap, pts, delta))


# Generates the bench's mollified sequence in an interpreter that never
# imported numpy.ma, whose import moves glibc's trim and mmap thresholds up,
# and prints the minor page faults the generation took.
FAULT_SCRIPT = """
import resource, sys
from fdmaps.geometry import build_disk_mesh
from fdmaps.sequences import SequenceRecipe, generate
mesh = build_disk_mesh(5)
recipe = SequenceRecipe(kind="mollified", params={"target": "radial_stretch", "alpha": 2.0},
                        j_max=64)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
generate(recipe, mesh)
assert "numpy.ma" not in sys.modules
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc allocator thresholds")
def test_mollifier_blocks_stay_on_the_heap(tmp_path):
    # a block temporary the allocator trims from the heap after each block is
    # faulted back in by the next one: about 200,000 faults for the 64
    # members, against under 1,000 when the blocks stay on the heap
    src = str(Path(fdmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 30_000


def test_mollified_sequence_limit_is_target(disk3):
    seq = generate(SequenceRecipe(kind="mollified",
                                  params={"target": "radial_stretch", "alpha": 2.0},
                                  j_max=6), disk3)
    amap = analytic_radial_stretch(2.0)
    assert np.allclose(seq.limit.values, amap.value(disk3.nodes))
    last = seq.members[-1].values
    middle_ring = np.abs(disk3.nodes) > 0.5
    assert np.abs(last - seq.limit.values)[middle_ring].max() < 1e-2


def test_affine_drift_sequence(disk3):
    seq = generate(SequenceRecipe(kind="affine_drift",
                                  params={"a": 1.0, "b": 0.2, "da": 0.5, "db": 0.1},
                                  j_max=8), disk3)
    # member j differs from the limit by the 1/j drift
    v1 = seq.members[0].values
    vlim = seq.limit.values
    drift = 0.5 * disk3.nodes + 0.1 * np.conj(disk3.nodes)
    assert np.allclose(v1 - vlim, drift)


def test_radial_stretch_family_sequence(disk3):
    seq = generate(SequenceRecipe(kind="radial_stretch_family",
                                  params={"alpha": 2.0, "dalpha": 1.0},
                                  j_max=4), disk3)
    amap = analytic_radial_stretch(2.0)
    assert np.allclose(seq.limit.values, amap.value(disk3.nodes))
    a3 = analytic_radial_stretch(2.0 + 1.0 / 3.0)
    assert np.allclose(seq.members[2].values, a3.value(disk3.nodes))
