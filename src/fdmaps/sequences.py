"""Closed-form mapping sequences with known convergence behavior.

These are the ground-truth instances for the convergence diagnostics: an
oscillation family that converges weakly but not strongly, mollified and
drifting families that converge in C^1, and constant sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .convergence import BLOCK_POINTS, SequenceHandle
from .config import Section, complex_number, integer, map_args, read, real, setting
from .errors import ConfigurationError
from .fields import (AnalyticMap, MappingField, analytic_affine,
                     analytic_oscillation, analytic_radial_stretch)
from .geometry import Mesh

# The params table of each sequence kind; a key its kind never reads is refused.
PARAMS = {
    "constant": {"formula": (str, "identity"), "args": (map_args, ())},
    "oscillation": {},
    "mollified": {"target": (str, "radial_stretch"), "alpha": (real, 2.0),
                  "a": (complex_number, 1 + 0j), "b": (complex_number, 0j)},
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
    x, w = np.polynomial.legendre.leggauss(n)
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


def mollify_values(amap: AnalyticMap, points: np.ndarray, delta: float) -> np.ndarray:
    """Convolution of the closed form with a polynomial bump of radius delta."""
    offsets, weights = _bump_quadrature(delta)
    pts = np.asarray(points, dtype=complex).reshape(-1)
    out = np.empty_like(pts)
    step = BLOCK_POINTS // len(offsets)  # rows of a cache-sized (rows x offsets) temporary
    for i in range(0, len(pts), step):
        out[i:i + step] = amap.value(pts[i:i + step, None] - offsets) @ weights
    return out.reshape(np.shape(points))


def generate(recipe: SequenceRecipe, mesh: Mesh) -> SequenceHandle:
    """Sample every member and the analytic limit on the mesh."""
    js = range(1, recipe.j_max + 1)
    p = read("recipe params", recipe.params, PARAMS[recipe.kind])

    if recipe.kind == "constant":
        from .fields import sample_analytic
        member = sample_analytic(mesh, p["formula"], *p["args"])
        members = [member for _ in js]
        limit = member
    elif recipe.kind == "oscillation":
        if mesh.kind != "rect":
            raise ConfigurationError("oscillation sequences are defined on rectangles")
        members = []
        for j in js:
            amap = analytic_oscillation(j)
            members.append(MappingField(mesh, amap.value(mesh.nodes), analytic=amap))
        ident = analytic_affine(1.0, 0.0)
        limit = MappingField(mesh, mesh.nodes.copy(), analytic=ident)
    elif recipe.kind == "mollified":
        if p["target"] == "radial_stretch":
            if mesh.kind != "disk":
                raise ConfigurationError("mollified radial stretches are defined on the disk")
            amap = analytic_radial_stretch(p["alpha"])
        elif p["target"] == "affine":
            amap = analytic_affine(p["a"], p["b"])
        else:
            raise ConfigurationError(f"unknown mollification target {p['target']!r}")
        members = [MappingField(mesh, mollify_values(amap, mesh.nodes, 1.0 / j)) for j in js]
        limit = MappingField(mesh, amap.value(mesh.nodes), analytic=None)
    elif recipe.kind == "affine_drift":
        members = []
        for j in js:
            amap = analytic_affine(p["a"] + p["da"] / j, p["b"] + p["db"] / j)
            members.append(MappingField(mesh, amap.value(mesh.nodes), analytic=amap))
        lim_map = analytic_affine(p["a"], p["b"])
        limit = MappingField(mesh, lim_map.value(mesh.nodes), analytic=lim_map)
    elif recipe.kind == "radial_stretch_family":
        if mesh.kind != "disk":
            raise ConfigurationError("radial stretch families are defined on the disk")
        members = []
        for j in js:
            amap = analytic_radial_stretch(p["alpha"] + p["dalpha"] / j)
            members.append(MappingField(mesh, amap.value(mesh.nodes), analytic=amap))
        lim_map = analytic_radial_stretch(p["alpha"])
        limit = MappingField(mesh, lim_map.value(mesh.nodes), analytic=lim_map)

    return SequenceHandle(mesh=mesh, members=members, limit=limit)
