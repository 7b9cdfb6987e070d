"""Discrete Ahlfors-Hopf differentials and their holomorphy residual.

A critical point of the inverse distortion problems carries a holomorphic
Hopf differential; the residual of local anti-holomorphic content is the
numerical certificate that a minimiser has been reached.

The residual fits c0 + c1 w + c2 conj(w) around every interior vertex at
once: centring each vertex star at the mean of its chart points turns the
least-squares fit into a closed form in a few star sums, which are
gathered one triangle corner at a time with `np.add.at` over triangle
blocks in triangle order; the sums keep the bits of one `np.bincount` per
corner, and the fit holds the per-vertex sums and one block.  The Hopf
fields are built over the same blocks into preallocated values.  The factor
S_N(p K) of the Ahlfors-Hopf fields is the `trunc_exp` integrand kernel and
their weight is `functionals.weight_values`, the same rules the energies use.
Each block's J and flags come from the (P, Q) the factor already forms, so
building a differential reads only f_z, f_zbar and the centroid images of
the derived field, and the residual reads only the differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import DerivedField, squared_moduli, write_columns
from .functionals import FunctionalSpec, integrand, weight_values
from .geometry import Mesh, blocks


@dataclass(frozen=True)
class HopfField:
    mesh: Mesh
    values: np.ndarray        # complex per triangle
    flagged: np.ndarray       # triangles with J <= 0
    chart: Optional[np.ndarray] = None  # per-triangle coordinates of the
                                        # differential's independent variable;
                                        # None means the mesh centroids

    @property
    def l1_norm(self) -> float:
        ok = ~self.flagged
        return float(np.sum(np.abs(self.values[ok]) * self.mesh.areas[ok]))

    def chart_points(self) -> np.ndarray:
        return self.mesh.centroids() if self.chart is None else self.chart


def _ahlfors_hopf_values(derived: DerivedField, p: float, n_trunc: Optional[int],
                         weight: str, inverse: bool):
    """The J <= 0 flags and the differential's values, built block by block
    from S_N(p K) eta, the `trunc_exp` integrand (`exp_p` for n_trunc = None)
    times the weight; nan where flagged, so the differential is nan there
    too.  J = P - Q comes from the block's own (P, Q), so the field's
    whole-array Jacobian is never built.  The weight is taken on the field's
    domain: the image of the centroids, or for the inverse map the source
    centroids."""
    spec = FunctionalSpec(family="exp_p" if n_trunc is None else "trunc_exp", p=p,
                          trunc_n=0 if n_trunc is None else int(n_trunc), weight=weight)
    mesh = derived.mesh
    flagged = np.empty(mesh.n_triangles, dtype=bool)
    values = np.empty(mesh.n_triangles, dtype=complex)
    for b in blocks(mesh.n_triangles):
        fz, fzbar = derived.fz[b], derived.fzbar[b]
        P, Q = squared_moduli(fz, fzbar)
        jac = P - Q
        flagged[b] = jac <= 0
        factor = np.where(flagged[b], np.nan, integrand(spec, P, Q))
        if spec.weight != "none":
            factor = factor * weight_values(spec, mesh.centroids(b) if inverse
                                            else derived.f_centroid[b])
        values[b] = (-factor / jac ** 2 * np.conj(fz * fzbar) if inverse
                     else factor * fz * np.conj(fzbar))
    return flagged, values


def ahlfors_hopf(derived: DerivedField, p: float, n_trunc: Optional[int],
                 weight: str = "none") -> HopfField:
    """Truncated-exponential Hopf differential S_N(p K) h_w conj(h_wbar) eta(h).

    n_trunc = None selects the full exponential form.  The hyperbolic
    weight is evaluated at the image of the element centroid and requires
    the image to stay inside the open unit disk.
    """
    flagged, values = _ahlfors_hopf_values(derived, p, n_trunc, weight, inverse=False)
    return HopfField(derived.mesh, values, flagged)


def inverse_ahlfors_hopf(derived: DerivedField, p: float, n_trunc: Optional[int],
                         weight: str = "none") -> HopfField:
    """Ahlfors-Hopf differential of the inverse of the given map.

    The critical-point certificate belongs to the inverse problem: if f
    minimises the forward energy, h = f^{-1} is critical for the inverse
    energy and its differential is holomorphic in the image chart.  With
    h_w = conj(f_z)/J and h_wbar = -f_zbar/J pulled back to the source
    triangles, the coefficient becomes -S_N(pK) conj(f_z f_zbar)/J^2,
    located at the image of each centroid.
    """
    flagged, values = _ahlfors_hopf_values(derived, p, n_trunc, weight, inverse=True)
    return HopfField(derived.mesh, values, flagged, chart=derived.f_centroid)


@dataclass(frozen=True)
class HolomorphyResidual:
    l1_residual: float
    l2_residual: float
    skipped_vertices: int
    interior_area: float


def holomorphy_residual(field: HopfField) -> HolomorphyResidual:
    """Anti-holomorphic content by per-vertex affine fitting.

    For each interior vertex, fit c0 + c1 w + c2 conj(w) by least squares to
    the field over the chart points of the vertex star; |c2| is the local
    residual, and the aggregates are vertex-lumped-area weighted L^1 and L^2
    sums.  With the star centred at the mean c of its points, d = w - c sums
    to zero, the constant decouples and the 2x2 normal equations give

        c2 = (S R+ - T R-) / (S^2 - |T|^2),

    S = sum |d|^2, T = sum d^2, R- = sum conj(d) y, R+ = sum d y.  The sums
    are gathered one triangle corner at a time, each with `np.add.at` over
    the triangle blocks in triangle order, so a sum adds its terms in the
    order one `np.bincount` per corner would.  Boundary vertices are not
    fitted; stars with fewer than 3 triangles, any non-finite value or
    collinear points (S^2 - |T|^2 <= 0) count as skipped.
    """
    mesh = field.mesh
    tri = mesh.triangles
    n = mesh.n_nodes
    chart = field.chart_points()

    def inputs(b):
        """Chart points w and values y of the triangles b, and the mask of
        the finite ones.  Stars touching a non-finite triangle are skipped;
        zeros in its w and y keep the sums quiet."""
        w, y = chart[b], field.values[b]
        finite = np.isfinite(y) & np.isfinite(w)
        return np.where(finite, w, 0.0), np.where(finite, y, 0.0), finite

    def star_sums(terms, dtypes):
        """Per-vertex sums of the terms(b, corner) that each block b yields
        at each corner, gathered one corner after the other."""
        sums = [np.zeros(n, dtype) for dtype in dtypes]
        part = [np.zeros(n, dtype) for dtype in dtypes]
        for k in range(3):
            for b in blocks(len(tri)):
                corner = tri[b, k]
                for x, term in zip(part, terms(b, corner)):
                    np.add.at(x, corner, term)
            for total, x in zip(sums, part):
                total += x
                x.fill(0)
        return sums

    def moments(b, corner):
        w, y, finite = inputs(b)
        return ~finite, w, y

    count = np.bincount(tri.ravel(), minlength=n)
    bad, centre, mean = star_sums(moments, (bool, complex, complex))
    centre /= np.maximum(count, 1.0)
    mean /= np.maximum(count, 1.0)
    skip = bad | (count < 3)
    del bad, count  # the fit's sums need the room

    def fit(b, corner):
        d, e, _ = inputs(b)
        d -= centre[corner]
        # centring y too changes no sum in exact arithmetic, and leaves a
        # constant field exactly zero instead of at roundoff
        e -= mean[corner]
        # one term at a time: each is gathered before the next is formed
        yield d.real ** 2 + d.imag ** 2
        yield d * d
        yield np.conj(d) * e
        yield d * e

    s, t, r_minus, r_plus = star_sums(fit, (float, complex, complex, complex))
    lumped, = star_sums(lambda b, corner: (mesh.areas[b],), (float,))
    det = s * s - (t.real ** 2 + t.imag ** 2)
    interior = ~mesh.is_boundary()
    fitted = interior & ~skip & (det > 0)
    c2 = np.abs(s * r_plus - t * r_minus)[fitted] / det[fitted]
    lumped = lumped[fitted] / 3.0
    return HolomorphyResidual(float(np.sum(lumped * c2)),
                              float(np.sqrt(np.sum(lumped * c2 ** 2))),
                              int(np.count_nonzero(interior & ~fitted)),
                              float(np.sum(lumped)))


def hopf_to_csv(field: HopfField, path) -> None:
    write_columns(path, ["tri_id", "re", "im", "area"],
                  [np.arange(field.mesh.n_triangles), field.values.real,
                   field.values.imag, field.mesh.areas])
