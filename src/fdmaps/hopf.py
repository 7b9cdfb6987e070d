"""Discrete Hopf and Ahlfors-Hopf differentials and their holomorphy residual.

A critical point of the inverse distortion problems carries a holomorphic
Hopf differential; the residual of local anti-holomorphic content is the
numerical certificate that a minimiser has been reached.

The residual fits c0 + c1 w + c2 conj(w) around every interior vertex at
once: centring each vertex star at the mean of its chart points turns the
least-squares fit into a closed form in a few star sums, which are
gathered with `np.bincount` one triangle corner at a time.  The factor
S_N(p K) of the Ahlfors-Hopf fields is the `trunc_exp` integrand kernel and
their weight is `functionals.weight_values`, the same rules the energies use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import DerivedField, squared_moduli, write_columns
from .functionals import FunctionalSpec, integrand, weight_values
from .geometry import Mesh


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


def hopf_differential(derived: DerivedField, p: float) -> HopfField:
    """K^(p-1) h_w conj(h_wbar) per triangle."""
    flagged = derived.jac <= 0
    k = np.where(flagged, 1.0, derived.khs)
    values = k ** (p - 1.0) * derived.fz * np.conj(derived.fzbar)
    values = np.where(flagged, np.nan + 1j * np.nan, values)
    return HopfField(derived.mesh, values, flagged)


def _ahlfors_hopf_factor(derived: DerivedField, p: float, n_trunc: Optional[int],
                         weight: str, inverse: bool):
    """The J <= 0 flags and S_N(p K) eta, the `trunc_exp` integrand (`exp_p`
    for n_trunc = None) times the weight; nan where flagged, so the
    differential is nan there too.  The weight is taken on the field's
    domain: the image of the centroids, or for the inverse map the source
    centroids."""
    spec = FunctionalSpec(family="exp_p" if n_trunc is None else "trunc_exp", p=p,
                          trunc_n=0 if n_trunc is None else int(n_trunc), weight=weight)
    flagged = derived.jac <= 0
    factor = np.where(flagged, np.nan, integrand(spec, *squared_moduli(derived.fz, derived.fzbar)))
    if spec.weight == "none":
        return flagged, factor
    points = derived.mesh.centroids() if inverse else derived.f_centroid
    return flagged, factor * weight_values(spec, points)


def ahlfors_hopf(derived: DerivedField, p: float, n_trunc: Optional[int],
                 weight: str = "none") -> HopfField:
    """Truncated-exponential Hopf differential S_N(p K) h_w conj(h_wbar) eta(h).

    n_trunc = None selects the full exponential form.  The hyperbolic
    weight is evaluated at the image of the element centroid and requires
    the image to stay inside the open unit disk.
    """
    flagged, factor = _ahlfors_hopf_factor(derived, p, n_trunc, weight, inverse=False)
    return HopfField(derived.mesh, factor * derived.fz * np.conj(derived.fzbar), flagged)


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
    flagged, factor = _ahlfors_hopf_factor(derived, p, n_trunc, weight, inverse=True)
    values = -factor / derived.jac ** 2 * np.conj(derived.fz * derived.fzbar)
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
    are gathered one triangle corner at a time.  Boundary vertices are not
    fitted; stars with fewer than 3 triangles, any non-finite value or
    collinear points (S^2 - |T|^2 <= 0) count as skipped.
    """
    mesh = field.mesh
    tri = mesh.triangles
    n = mesh.n_nodes
    w = field.chart_points()
    y = field.values
    finite = np.isfinite(y) & np.isfinite(w)
    # stars touching a non-finite triangle are skipped; zeros keep the sums quiet
    w = np.where(finite, w, 0.0)
    y = np.where(finite, y, 0.0)

    def gather(corner, x):
        """Sum per-triangle values x into the vertices at one corner."""
        out = np.bincount(corner, weights=x.real, minlength=n)
        if np.iscomplexobj(x):
            out = out + 1j * np.bincount(corner, weights=x.imag, minlength=n)
        return out

    def star_sum(x):
        return sum(gather(tri[:, k], x) for k in range(3))

    count = star_sum(np.ones(len(tri)))
    bad = star_sum((~finite).astype(float)) > 0
    centre = star_sum(w) / np.maximum(count, 1.0)
    mean = star_sum(y) / np.maximum(count, 1.0)
    s, t, r_minus, r_plus = 0.0, 0.0, 0.0, 0.0
    for k in range(3):
        corner = tri[:, k]
        d = w - centre[corner]
        # centring y too changes no sum in exact arithmetic, and leaves a
        # constant field exactly zero instead of at roundoff
        e = y - mean[corner]
        s = s + gather(corner, d.real ** 2 + d.imag ** 2)
        t = t + gather(corner, d * d)
        r_minus = r_minus + gather(corner, np.conj(d) * e)
        r_plus = r_plus + gather(corner, d * e)
    det = s * s - (t.real ** 2 + t.imag ** 2)
    interior = ~mesh.is_boundary()
    fitted = interior & (count >= 3) & ~bad & (det > 0)
    c2 = np.abs(s * r_plus - t * r_minus)[fitted] / det[fitted]
    lumped = star_sum(mesh.areas)[fitted] / 3.0
    return HolomorphyResidual(float(np.sum(lumped * c2)),
                              float(np.sqrt(np.sum(lumped * c2 ** 2))),
                              int(np.count_nonzero(interior & ~fitted)),
                              float(np.sum(lumped)))


def hopf_to_csv(field: HopfField, path) -> None:
    write_columns(path, ["tri_id", "re", "im", "area"],
                  [np.arange(field.mesh.n_triangles), field.values.real,
                   field.values.imag, field.mesh.areas])
