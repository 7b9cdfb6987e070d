import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fdmaps
from fdmaps import sequences
from fdmaps.convergence import radon_riesz_diagnose
from fdmaps.errors import ConfigurationError, DomainError
from fdmaps.fields import analytic_affine, analytic_radial_stretch
from fdmaps.functionals import FunctionalSpec
from fdmaps.sequences import (SequenceRecipe, _bump_quadrature, bump_sums, generate,
                               mollify_values)


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
    """The mollifier unchunked: every point against every bump point in one
    (points x bump points) evaluation, summed by the mollifier's row sum."""
    offsets, weights = _bump_quadrature(delta)
    pts = np.asarray(points, dtype=complex)
    vals = amap.value(pts.reshape(-1, 1) - offsets[None, :])
    return bump_sums(vals, weights).reshape(pts.shape)


@pytest.mark.parametrize("target", ["radial_stretch", "affine"])
@pytest.mark.parametrize("delta", [1.0, 1.0 / 7.0, 1.0 / 64.0])
def test_chunked_mollifier_is_bit_identical(monkeypatch, disk5, target, delta):
    # the mollifier's blocks of MOLLIFY_ROWS points, of 3 and of 7 points
    # all give the one-shot sums bit for bit
    amap = (analytic_radial_stretch(2.0) if target == "radial_stretch"
            else analytic_affine(1.3, 0.4 - 0.2j))
    nodes = disk5.nodes
    for step in (sequences.MOLLIFY_ROWS, 3, 7):
        monkeypatch.setattr(sequences, "MOLLIFY_ROWS", step)
        assert len(nodes) % step != 0
        # all nodes; a count the chunk does not divide; a 2-D array keeps its
        # shape, and its 2 * step + 4 points end in a partial block too
        for pts in (nodes, nodes[:3 * step + 5], nodes[:2 * step + 4].reshape(2, -1)):
            got = mollify_values(amap, pts, delta)
            assert got.shape == pts.shape
            assert np.array_equal(got, _one_shot_mollify(amap, pts, delta))


# Generates the bench's mollified sequence, and the same members of an affine
# target, in an interpreter that never imported numpy.ma, whose import moves
# glibc's trim and mmap thresholds up, and prints the minor page faults each
# generation took.
FAULT_SCRIPT = """
import resource, sys
from fdmaps.geometry import build_disk_mesh
from fdmaps.sequences import SequenceRecipe, generate
mesh = build_disk_mesh(5)
for params in ({"target": "radial_stretch", "alpha": 2.0},
               {"target": "affine", "a": 1.3, "b": [0.2, 0.0]}):
    recipe = SequenceRecipe(kind="mollified", params=params, j_max=64)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    generate(recipe, mesh)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
assert "numpy.ma" not in sys.modules
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc allocator thresholds")
def test_mollifier_blocks_stay_on_the_heap(tmp_path):
    # a block temporary the allocator trims from the heap after each block is
    # faulted back in by the next one: about 200,000 faults for the 64
    # members, against under 1,500 when every block is reused
    src = str(Path(fdmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 2
    assert max(faults) < 30_000


_TARGETS = [{"target": "radial_stretch", "alpha": 1.9},
            {"target": "affine", "a": 1.3, "b": [0.0, 0.2]}]


@pytest.mark.parametrize("params", _TARGETS, ids=["radial_stretch", "affine"])
def test_mollified_members_keep_their_bits_for_any_thread_count(monkeypatch, disk3, params):
    # each member is mollified whole by one thread, so 1, 2 and 5 CPUs (4
    # threads, the cap) build equal members and equal diagnoses, bit for
    # bit, while the threads trade the interpreter every microsecond; blocks
    # of 7 points end each member in a partial block
    monkeypatch.setattr(sequences, "MOLLIFY_ROWS", 7)
    recipe = SequenceRecipe(kind="mollified", params=params, j_max=6)
    spec = FunctionalSpec(family="lp_mean", p=2.0)

    def build(threads):
        monkeypatch.setattr(sequences, "available_cpus", lambda: threads)
        seq = generate(recipe, disk3)
        return seq, radon_riesz_diagnose(spec, seq, p_RR=3.0).to_json()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (one, report), *others = build(1), build(2), build(5)
    finally:
        sys.setswitchinterval(interval)
    for seq, other in others:
        assert all(np.array_equal(a.values, b.values) for a, b in zip(one.members, seq.members))
        assert other == report


@pytest.mark.parametrize("threads", [1, 2, 5])
def test_mollifier_failure_reaches_the_caller(monkeypatch, disk3, threads):
    # a failure while one member is built is raised to the caller with its
    # type and message, and no thread outlives the generation.  It runs on a
    # thread of its own, so a deadlock fails the test instead of hanging it
    monkeypatch.setattr(sequences, "available_cpus", lambda: threads)
    mollify = sequences.mollify_values

    def failing(amap, points, delta, work=None):
        if delta == 1.0 / 2:
            raise DomainError("member 2 left the domain")
        return mollify(amap, points, delta, work)

    monkeypatch.setattr(sequences, "mollify_values", failing)
    recipe = SequenceRecipe(kind="mollified", params={}, j_max=6)
    before = threading.active_count()
    outcome = []

    def build():
        try:
            generate(recipe, disk3)
        except BaseException as exc:
            outcome.append(exc)

    runner = threading.Thread(target=build, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the generation did not return"
    assert threading.active_count() == before
    assert len(outcome) == 1
    assert type(outcome[0]) is DomainError
    assert str(outcome[0]) == "member 2 left the domain"


@pytest.mark.parametrize("cpus", [1, 2, 5, 64])
def test_mollifier_failure_stops_every_thread(monkeypatch, disk3, cpus):
    # member 1 fails first, on the calling thread, while every other thread
    # holds its first member until the failure has stopped them; each then
    # ends that member and builds no other.  At most MAX_THREADS threads
    # start, however many CPUs there are
    monkeypatch.setattr(sequences, "available_cpus", lambda: cpus)
    mollify, run_threads = sequences.mollify_values, sequences.run_threads
    aborted, calls = threading.Event(), []

    def mollify_after_the_failure(amap, points, delta, work=None):
        calls.append(threading.get_ident())
        if delta == 1.0:
            raise DomainError("member 1 left the domain")
        assert aborted.wait(timeout=30)
        return mollify(amap, points, delta, work)

    def run_and_tell(work, shares, abort):
        return run_threads(work, shares, lambda: (abort(), aborted.set()))

    monkeypatch.setattr(sequences, "mollify_values", mollify_after_the_failure)
    monkeypatch.setattr(sequences, "run_threads", run_and_tell)
    with pytest.raises(DomainError, match="member 1 left the domain"):
        generate(SequenceRecipe(kind="mollified", params={}, j_max=64), disk3)
    assert len(calls) == len(set(calls)) <= min(cpus, sequences.MAX_THREADS)


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
