"""Per-triangle quadrature rules.

Centroid (1-point) quadrature is exact for the piecewise-affine pipeline;
the collapsed Gauss rule is used when integrating closed-form oscillatory
integrands that a single point per element cannot resolve.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed once
    per n and returned read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def duffy_rule(n: int):
    """Collapsed n x n Gauss-Legendre rule on the reference triangle.

    Returns (bary, weights): barycentric coordinates of shape (n*n, 3) and
    weights of shape (n*n,) that sum to 1, so a triangle integral is
    area * sum(w_k * f(p_k)).
    """
    if n < 1:
        raise ValueError("rule size must be >= 1")
    if n == 1:
        return np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])
    x, w = gauss_legendre(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - uu)
    # Duffy map: (u, v) -> (u, v(1-u)) on the unit triangle
    xs = uu.ravel()
    ys = (vv * (1.0 - uu)).ravel()
    weights = 2.0 * ww.ravel()  # reference triangle has area 1/2
    bary = np.column_stack([1.0 - xs - ys, xs, ys])
    return bary, weights


def mesh_quad_points(mesh, n: int, tris=slice(None)):
    """Quadrature nodes and weights for the triangles `tris` of a mesh (a
    slice or an index array).

    Returns (points, weights) of shape (len(tris), K) where points are
    complex plane positions and weights already include triangle areas, so
    integral = sum(values * weights).  A sweep that asks for one block of
    triangles at a time holds one block's points, never the whole mesh's.
    """
    bary, w = duffy_rule(n)
    corners = mesh.nodes[mesh.triangles[tris]]  # (len(tris), 3) complex
    rows = len(corners)
    # numpy hands BLAS a one-row product as a vector product, which rounds
    # unlike the matrix product of more rows: a lone triangle is doubled, so
    # its points do not depend on the block that asks for them
    points = ((corners[[0, 0]] if rows == 1 else corners) @ bary.T.astype(complex))[:rows]
    weights = mesh.areas[tris, None] * w[None, :]
    return points, weights
