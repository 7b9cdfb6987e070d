"""Discrete mappings and their pointwise differential quantities.

A mapping is a complex value per mesh node; derivatives come from the
unique affine interpolant on each triangle, so every pointwise formula
(Wirtinger derivatives, Jacobian, distortions, Beltrami coefficient) is
exact per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .config import integer
from .errors import ConfigurationError, InternalError
from .geometry import Mesh


@dataclass(frozen=True)
class AnalyticMap:
    """Closed-form map with exact Wirtinger derivatives, for oracle use;
    `derivatives(z)` returns (f_z, f_zbar) from one shared evaluation."""
    value: Callable[[np.ndarray], np.ndarray]
    derivatives: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MappingField:
    mesh: Mesh
    values: np.ndarray                     # complex per node
    analytic: Optional[AnalyticMap] = None

    def __post_init__(self):
        if len(self.values) != self.mesh.n_nodes:
            raise ConfigurationError("values length does not match node count")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("mapping values must be finite")
        self.values.setflags(write=False)


@dataclass(frozen=True)
class DerivedField:
    mesh: Mesh
    fz: np.ndarray          # complex per triangle
    fzbar: np.ndarray
    jac: np.ndarray         # |fz|^2 - |fzbar|^2
    khs: np.ndarray         # 2(|fz|^2+|fzbar|^2)/J, inf where J <= 0
    kop: np.ndarray         # (|fz|+|fzbar|)^2/J, inf where J <= 0
    mu: np.ndarray          # fzbar/fz, nan marker where fz == 0
    f_centroid: np.ndarray  # image of the element centroid (affine => mean)

    @property
    def areas(self) -> np.ndarray:
        return self.mesh.areas


def derivative_coefficients(mesh: Mesh):
    """The (m, 3) pair (a, b) of per-triangle Wirtinger coefficients:
    f_z = sum_k a[t, k] w[triangles[t, k]], and f_zbar likewise with b.

    Column k holds the coefficient of the triangle's k-th node in its local
    order.  This is the one formula for the per-triangle Wirtinger
    derivatives of the piecewise-affine interpolant; `apply_coefficients`
    applies it, and the descent builds its sparse operators from it.
    """
    z = mesh.nodes[mesh.triangles]
    e1 = z[:, 1] - z[:, 0]
    e2 = z[:, 2] - z[:, 0]
    D = e1 * np.conj(e2) - e2 * np.conj(e1)  # = -4i * area
    if np.any(D == 0):
        raise InternalError("degenerate triangle in mesh")
    a = np.stack([(np.conj(e1) - np.conj(e2)) / D, np.conj(e2) / D, -np.conj(e1) / D], axis=1)
    b = np.stack([(e2 - e1) / D, -e2 / D, e1 / D], axis=1)
    return a, b


def apply_coefficients(c: np.ndarray, values: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """f_z (c = a) or f_zbar (c = b) per triangle of the nodal `values`.

    einsum sums the three terms in local order with separate multiplies and
    adds, as the descent's CSR product does, so the two give the same bits;
    `(c * values[triangles]).sum(1)` may fuse them and differ in the last bit.
    """
    return np.einsum("tk,tk->t", c, values[triangles])


def squared_moduli(fz: np.ndarray, fzbar: np.ndarray):
    """(P, Q) = (|f_z|^2, |f_zbar|^2), the arguments of the integrand kernel."""
    return np.abs(fz) ** 2, np.abs(fzbar) ** 2


def norm_squared(norm: str, P, Q, derivatives: bool = False):
    """x^2 for x = |Df| at (P, Q), or (x^2, dx^2/dP, dx^2/dQ): the one norm rule.

    "hs" is sqrt(2(P + Q)), "op" is sqrt(P) + sqrt(Q); its partials
    1 + sqrt(Q/P) and 1 + sqrt(P/Q) take a ratio with a zero denominator as
    0 (the gradient multiplies dx^2/dQ by f_zbar, which is then 0).
    """
    if norm == "hs":
        x2 = 2.0 * (P + Q)
        return (x2, 2.0, 2.0) if derivatives else x2
    if norm != "op":
        raise ConfigurationError(f"unknown norm {norm!r}")
    sP, sQ = np.sqrt(P), np.sqrt(Q)
    x2 = (sP + sQ) ** 2
    if not derivatives:
        return x2
    return (x2, 1.0 + np.divide(sQ, sP, out=np.zeros_like(sP), where=sP > 0),
            1.0 + np.divide(sP, sQ, out=np.zeros_like(sQ), where=sQ > 0))


def derived_from_derivatives(mesh: Mesh, fz: np.ndarray, fzbar: np.ndarray,
                             f_centroid: np.ndarray | None = None) -> DerivedField:
    P, Q = squared_moduli(fz, fzbar)
    jac = P - Q
    pos = jac > 0
    safe_jac = np.where(pos, jac, 1.0)
    khs, kop = (np.where(pos, norm_squared(norm, P, Q) / safe_jac, np.inf)
                for norm in ("hs", "op"))
    defined = fz != 0
    mu = np.where(defined, fzbar / np.where(defined, fz, 1.0), np.nan + 1j * np.nan)
    if f_centroid is None:
        f_centroid = np.full(mesh.n_triangles, np.nan + 0j)
    return DerivedField(mesh, fz, fzbar, jac, khs, kop, mu, f_centroid)


def wirtinger_derivatives(mapping: MappingField) -> DerivedField:
    """Exact per-triangle f_z, f_zbar of the piecewise-affine interpolant."""
    mesh = mapping.mesh
    fz, fzbar = (apply_coefficients(c, mapping.values, mesh.triangles)
                 for c in derivative_coefficients(mesh))
    return derived_from_derivatives(mesh, fz, fzbar,
                                    mapping.values[mesh.triangles].mean(axis=1))


@dataclass(frozen=True)
class DistortionReport:
    bad_count: int          # triangles with J <= 0
    bad_area: float
    ess_sup_k: float        # max operator distortion over J > 0
    mean_khs: float         # area-weighted over J > 0
    finite_distortion: bool


def finite_distortion_report(derived: DerivedField) -> DistortionReport:
    pos = derived.jac > 0
    areas = derived.areas
    bad_area = float(np.sum(areas[~pos]))
    good_area = float(np.sum(areas[pos]))
    ess_sup = float(np.max(derived.kop[pos])) if np.any(pos) else np.inf
    mean_khs = float(np.sum(derived.khs[pos] * areas[pos]) / good_area) if good_area > 0 else np.inf
    return DistortionReport(
        bad_count=int(np.sum(~pos)),
        bad_area=bad_area,
        ess_sup_k=ess_sup,
        mean_khs=mean_khs,
        finite_distortion=(bad_area == 0.0),
    )


def analytic_affine(a: complex, b: complex) -> AnalyticMap:
    a, b = complex(a), complex(b)
    return AnalyticMap(
        # conj(z) * b, not b * conj(z): numpy evaluates the latter in place as
        # conj(z) * b for large arrays only, and the two operand orders differ
        # in the last bit, so the values would depend on the array size
        value=lambda z: a * z + np.conj(z) * b,
        derivatives=lambda z: (np.full_like(np.asarray(z, dtype=complex), a),
                               np.full_like(np.asarray(z, dtype=complex), b)),
    )


def analytic_radial_stretch(alpha: float) -> AnalyticMap:
    """z -> z|z|^(alpha-1); the standard closed-form finite-distortion example."""
    alpha = float(alpha)

    def radial(r):
        """|z|^(alpha-1), 0 at the origin; the power is taken only where r > 0."""
        stretch = np.zeros(np.shape(r))
        np.power(r, alpha - 1.0, out=stretch, where=r > 0)
        return stretch

    def value(z):
        z = np.asarray(z, dtype=complex)
        return z * radial(np.abs(z))

    def derivatives(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        stretch = radial(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            phase = np.where(r > 0, z / np.where(r > 0, np.conj(z), 1.0), 0.0)
        return (((alpha + 1.0) / 2.0) * stretch + 0j,
                ((alpha - 1.0) / 2.0) * stretch * phase)

    return AnalyticMap(value=value, derivatives=derivatives)


def analytic_oscillation(j: int) -> AnalyticMap:
    """z -> z + sin(2 pi j x)/(2 pi j): bounded gradients, no strong W^{1,2} limit.
    A frequency j with a fractional part is refused, not truncated."""
    try:
        j = integer(j)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"oscillation frequency j: {exc}") from None
    w = 2.0 * np.pi * j

    def value(z):
        z = np.asarray(z, dtype=complex)
        return z + np.sin(w * z.real) / w

    def derivatives(z):
        # each complex output is written once: its real part, imaginary 0
        half_cos = np.cos(w * np.asarray(z, dtype=complex).real)
        half_cos *= 0.5
        fz = np.zeros(np.shape(half_cos), dtype=complex)
        fzbar = np.zeros(np.shape(half_cos), dtype=complex)
        np.add(1.0, half_cos, out=fz.real)
        fzbar.real = half_cos
        return fz, fzbar

    return AnalyticMap(value=value, derivatives=derivatives)


_FORMULAS = {
    "affine": lambda params: analytic_affine(*params),
    "radial_stretch": lambda params: analytic_radial_stretch(*params),
    "oscillation": lambda params: analytic_oscillation(*params),
    "identity": lambda params: analytic_affine(1.0, 0.0),
}


def sample_analytic(mesh: Mesh, formula: str, *params) -> MappingField:
    """Nodal sampling of a closed-form map; the closed form rides along."""
    if formula not in _FORMULAS:
        raise ConfigurationError(f"unknown analytic formula tag {formula!r}")
    amap = _FORMULAS[formula](params)
    return MappingField(mesh, amap.value(mesh.nodes), analytic=amap)


CSV_BLOCK_ROWS = 8192


def _cells(c: np.ndarray) -> list:
    """One block of a column as csv.writer prints it: str of each integer or
    string, repr of each distinct float bit pattern once (0.0 and -0.0 stay apart)."""
    if c.dtype.kind in "iuU":
        return list(map(str, c.tolist()))
    c = np.ascontiguousarray(c, dtype=float)
    bits = np.sort(c.view(np.uint64))
    if np.all(bits[1:] != bits[:-1]):  # all distinct: a gather would only permute
        return list(map(repr, c.tolist()))
    bits, inverse = np.unique(c.view(np.uint64), return_inverse=True)
    return np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[inverse].tolist()


def write_columns(path, header, columns) -> None:
    """Write equal-length columns as CSV, byte for byte as csv.writer would.

    Integer and string columns print as str, all others as the repr of a
    Python float (with inf and nan); lines end in CRLF.  Rows go out in blocks of
    CSV_BLOCK_ROWS, and in each block every distinct float bit pattern of a
    column is formatted once, so repeated values cost one repr per block.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            cells = [_cells(c[start:start + CSV_BLOCK_ROWS]) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def derived_to_csv(derived: DerivedField, path) -> None:
    write_columns(path, ["tri_id", "re_fz", "im_fz", "re_fzbar", "im_fzbar",
                         "J", "K_hs", "K_op", "re_mu", "im_mu", "area"],
                  [np.arange(derived.mesh.n_triangles),
                   derived.fz.real, derived.fz.imag,
                   derived.fzbar.real, derived.fzbar.imag,
                   derived.jac, derived.khs, derived.kop,
                   derived.mu.real, derived.mu.imag,
                   derived.areas])
