"""Closed-form mapping sequences with known convergence behavior.

These are the ground-truth instances for the convergence diagnostics: an
oscillation family that converges weakly but not strongly, mollified and
drifting families that converge in C^1, and constant sequences.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import convergence
from .convergence import SequenceHandle
from .config import Section, complex_number, integer, map_args, one_of, read, real, setting
from .errors import ConfigurationError
from .fields import (AnalyticMap, MappingField, analytic_affine, analytic_oscillation,
                     analytic_radial_stretch, sample_analytic)
from .geometry import Mesh
from .quadrature import gauss_legendre

# The params table of each sequence kind; a key its kind never reads is
# refused, and so is a mollified key that its target never reads.
PARAMS = {
    "constant": {"formula": (str, "identity"), "args": (map_args, ())},
    "oscillation": {},
    "mollified": {"target": (one_of("radial_stretch", "affine"), "radial_stretch"),
                  "alpha": (real, 2.0, ("radial_stretch",)),
                  "a": (complex_number, 1 + 0j, ("affine",)),
                  "b": (complex_number, 0j, ("affine",))},
    "affine_drift": {"a": (complex_number, 1 + 0j), "b": (complex_number, 0j),
                     "da": (complex_number, 0.5 + 0j), "db": (complex_number, 0j)},
    "radial_stretch_family": {"alpha": (real, 2.0), "dalpha": (real, 1.0)},
}


@dataclass(frozen=True)
class SequenceRecipe(Section, section="recipe"):
    kind: str = setting(str)
    params: Dict = setting(dict, factory=dict, dump=dict)
    j_max: int = setting(integer, 16)

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise ConfigurationError(f"unknown sequence kind {self.kind!r}")
        if self.j_max < 2:
            raise ConfigurationError("j_max must be >= 2")


def _bump_quadrature(delta: float, n: int = 16):
    """Tensor Gauss rule for the normalized polynomial bump on |u| < delta.

    Only the points inside the bump's support are returned (144 of 256 at
    n = 16); the others carry weight 0."""
    x, w = gauss_legendre(n)
    u = delta * x
    wu = delta * w
    U = u[:, None] + 1j * u[None, :]
    W = np.outer(wu, wu)
    r2 = np.abs(U) ** 2 / delta ** 2
    rho = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 8, 0.0)
    weights = (W * rho).ravel()
    keep = weights > 0
    weights = weights[keep] / np.sum(weights[keep])  # exact on constants, symmetric on affine
    return U.ravel()[keep], weights


# points per block of the mollifier, against the 144 points of the bump: each
# thread reuses two complex blocks of this many rows, 252 KiB each, one for
# the shifted points and one for the closed form's temporaries, so the
# allocator is not made to trim and re-fault a block per block (the radial
# stretch still allocates its 16 KiB mask of r > 0), and a block is large
# enough for the threads to overlap
MOLLIFY_ROWS = 112


def bump_sums(values: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    """Each row of `values` summed against the bump's weights, without BLAS:
    the weights scale `values` in place and numpy adds each row pairwise, so
    a row's sum has the same bits in a block of any size and on any thread."""
    np.multiply(values, weights, out=values)
    return np.add.reduce(values, axis=-1, out=out)


def mollify_values(amap: AnalyticMap, points: np.ndarray, delta: float,
                   work=None) -> np.ndarray:
    """Convolution of the closed form with a polynomial bump of radius delta,
    MOLLIFY_ROWS points at a time.  `work` is the pair of blocks of
    `mollifier_work`, which a caller that mollifies again and again keeps."""
    offsets, weights = _bump_quadrature(delta)
    shifted, scratch = mollifier_work() if work is None else work
    pts = np.asarray(points, dtype=complex).reshape(-1)
    out = np.empty_like(pts)
    for i in range(0, len(pts), MOLLIFY_ROWS):
        rows = pts[i:i + MOLLIFY_ROWS]
        z = shifted[:len(rows)]
        np.subtract(rows[:, None], offsets, out=z)
        amap.value(z, out=z, work=scratch)
        bump_sums(z, weights, out=out[i:i + len(rows)])
    return out.reshape(np.shape(points))


def mollifier_work():
    """The blocks `mollify_values` evaluates in: shifted points, and the
    closed form's scratch."""
    shape = (MOLLIFY_ROWS, len(_bump_quadrature(1.0)[0]))
    return np.empty(shape, dtype=complex), np.empty(shape[0] * shape[1], dtype=complex)


def _mollified_members(mesh: Mesh, amap: AnalyticMap, js) -> List[MappingField]:
    """Member j mollified at radius 1/j for each j of `js`.  The members are
    dealt to threads by `convergence.deal`, and each thread keeps its own
    blocks.  A member is built whole by one thread, so its bits do not
    depend on the thread count.  A failure stops every thread before its
    next member, and the first failure to happen is raised."""
    members = [None] * len(js)
    failed = threading.Event()

    def build(share):
        work = mollifier_work()
        for i in share:
            if failed.is_set():
                return
            members[i] = MappingField(mesh, mollify_values(amap, mesh.nodes, 1.0 / js[i], work))

    convergence.run_threads(build, convergence.deal(range(len(js))), abort=failed.set)
    return members


def generate(recipe: SequenceRecipe, mesh: Mesh) -> SequenceHandle:
    """Every member and the limit on the mesh.  Closed-form members and
    limits sample their nodes on first read; mollified members are built
    here, on the threads of `convergence.deal`."""
    js = range(1, recipe.j_max + 1)
    p = read("recipe params", recipe.params, PARAMS[recipe.kind], by="target")

    if recipe.kind == "constant":
        member = sample_analytic(mesh, p["formula"], *p["args"])
        members = [member for _ in js]
        limit = member
    elif recipe.kind == "oscillation":
        if mesh.kind != "rect":
            raise ConfigurationError("oscillation sequences are defined on rectangles")
        members = [MappingField(mesh, analytic=analytic_oscillation(j)) for j in js]
        limit = MappingField(mesh, analytic=analytic_affine(1.0, 0.0))
    elif recipe.kind == "mollified":
        if p["target"] == "radial_stretch":
            if mesh.kind != "disk":
                raise ConfigurationError("mollified radial stretches are defined on the disk")
            amap = analytic_radial_stretch(p["alpha"])
        else:
            amap = analytic_affine(p["a"], p["b"])
        members = _mollified_members(mesh, amap, js)
        limit = MappingField(mesh, amap.value(mesh.nodes), analytic=None)
    elif recipe.kind == "affine_drift":
        members = [MappingField(mesh, analytic=analytic_affine(
            p["a"] + p["da"] / j, p["b"] + p["db"] / j)) for j in js]
        limit = MappingField(mesh, analytic=analytic_affine(p["a"], p["b"]))
    elif recipe.kind == "radial_stretch_family":
        if mesh.kind != "disk":
            raise ConfigurationError("radial stretch families are defined on the disk")
        members = [MappingField(mesh, analytic=analytic_radial_stretch(
            p["alpha"] + p["dalpha"] / j)) for j in js]
        limit = MappingField(mesh, analytic=analytic_radial_stretch(p["alpha"]))

    return SequenceHandle(mesh=mesh, members=members, limit=limit)
