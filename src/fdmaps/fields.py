"""Discrete mappings and their pointwise differential quantities.

A mapping is a complex value per mesh node; derivatives come from the
unique affine interpolant on each triangle, so every pointwise formula
(Wirtinger derivatives, Jacobian, distortions, Beltrami coefficient) is
exact per element.

A derived field is f_z, f_zbar and the centroid image, built over blocks
of `geometry.BLOCK_ROWS` triangles into preallocated outputs, so
`wirtinger_derivatives` holds those three and one block's temporaries.
The Jacobian, the distortions and the Beltrami coefficient come from one
block kernel alone, `distortions`, which each reader (the Hopf factors,
`derived_to_csv`) applies to the blocks it reads; the field keeps none of
them.  The CSV writer formats blocks of the same number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .config import positive_integer
from .errors import ConfigurationError, InternalError
from .geometry import Mesh, blocks


@dataclass(frozen=True)
class AnalyticMap:
    """Closed-form map with exact Wirtinger derivatives, for oracle use.
    `jet(z, x=None)` returns (f, f_z, f_zbar), three fresh complex arrays
    of z's shape, from one shared evaluation, its f bit for bit `value(z)`;
    `value` alone serves readers of values only.  `x`, if given, is
    `distinct_real_parts(z)`, which a closed form whose transcendental
    functions read Re z alone evaluates them on, once per distinct value,
    with the bits it has without `x`; the others ignore it.  The targets
    of the mollifier, `analytic_affine` and `analytic_radial_stretch`, also
    take `value(z, out, work)`: f(z) is written into `out` (z itself
    allowed), and `work`, a 1-D complex array of at least z.size elements,
    holds the complex and real temporaries."""
    value: Callable[..., np.ndarray]
    jet: Callable[..., Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _jet_arrays(z: np.ndarray):
    """Three fresh C-contiguous complex arrays of z's shape."""
    return tuple(np.empty(z.shape, dtype=complex) for _ in range(3))


def distinct_real_parts(z: np.ndarray):
    """(distinct, inverse): the distinct real parts of the points z, and for
    each point the index of its own, so that distinct[inverse] is z.real.
    Values are told apart by their bits (-0.0 is not 0.0).  The quadrature
    points of a block of rect-mesh triangles take about half as many
    distinct real parts as there are points: each column of cells repeats
    them."""
    bits, inverse = np.unique(z.real.view(np.int64), return_inverse=True)
    return bits.view(np.float64), inverse.reshape(z.shape)


def _reals(a: np.ndarray) -> np.ndarray:
    """The first a.size float64s of the C-contiguous complex array a's
    memory, in a's shape: room for a real temporary until a is written."""
    return a.reshape(-1).view(np.float64)[:a.size].reshape(a.shape)


class MappingField:
    """A complex value per mesh node, and for a closed form its `AnalyticMap`.

    A closed-form field may be built without values: `values` is then
    `analytic.value(mesh.nodes)`, sampled on its first read and kept, so a
    measurement that reads only the closed form never holds nodal arrays.
    Values are checked (one per node, all finite) and made read-only when
    they are given, or else when they are sampled."""

    def __init__(self, mesh: Mesh, values: Optional[np.ndarray] = None,
                 analytic: Optional[AnalyticMap] = None):
        if values is None and analytic is None:
            raise ConfigurationError("a mapping needs nodal values or a closed form")
        self.mesh, self.analytic = mesh, analytic
        self._values = None if values is None else self._checked(values)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self._checked(self.analytic.value(self.mesh.nodes))
        return self._values

    def _checked(self, values: np.ndarray) -> np.ndarray:
        if len(values) != self.mesh.n_nodes:
            raise ConfigurationError("values length does not match node count")
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("mapping values must be finite")
        values.setflags(write=False)
        return values


@dataclass(frozen=True)
class DerivedField:
    """Per-triangle f_z, f_zbar and centroid image of a mapping; J, the
    distortions and mu are `distortions(fz, fzbar)`."""
    mesh: Mesh
    fz: np.ndarray          # complex per triangle
    fzbar: np.ndarray
    f_centroid: np.ndarray  # image of the element centroid (affine => mean)

    @property
    def areas(self) -> np.ndarray:
        return self.mesh.areas


def derivative_coefficients(mesh: Mesh, tris: slice = slice(None)):
    """The (len(tris), 3) pair (a, b) of Wirtinger coefficients of the
    triangles `tris`: f_z = sum_k a[t, k] w[triangles[t, k]], and f_zbar
    likewise with b.

    Column k holds the coefficient of the triangle's k-th node in its local
    order.  This is the one formula for the per-triangle Wirtinger
    derivatives of the piecewise-affine interpolant; `apply_coefficients`
    applies it, and the descent builds its sparse operators from it.
    """
    z = mesh.nodes[mesh.triangles[tris]]
    e1 = z[:, 1] - z[:, 0]
    e2 = z[:, 2] - z[:, 0]
    del z  # the coefficients need the room
    D = e1 * np.conj(e2) - e2 * np.conj(e1)  # = -4i * area
    if np.any(D == 0):
        raise InternalError("degenerate triangle in mesh")
    a = np.stack([(np.conj(e1) - np.conj(e2)) / D, np.conj(e2) / D, -np.conj(e1) / D], axis=1)
    b = np.stack([(e2 - e1) / D, -e2 / D, e1 / D], axis=1)
    return a, b


def apply_coefficients(c: np.ndarray, corners: np.ndarray, out=None) -> np.ndarray:
    """f_z (c = a) or f_zbar (c = b) per triangle, from `corners`, the nodal
    values gathered per triangle (`values[triangles]`), in `out` if given.

    einsum sums the three terms in local order with separate multiplies and
    adds, as the descent's CSR product does, so the two give the same bits;
    `(c * corners).sum(1)` may fuse them and differ in the last bit.
    """
    return np.einsum("tk,tk->t", c, corners, out=out)


def squared_moduli(fz: np.ndarray, fzbar: np.ndarray):
    """(P, Q) = (|f_z|^2, |f_zbar|^2), the arguments of the integrand kernel."""
    P, Q = np.abs(fz), np.abs(fzbar)
    P **= 2
    Q **= 2
    return P, Q


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


def distortions(fz: np.ndarray, fzbar: np.ndarray):
    """(J, K_hs, K_op, mu) of a block of Wirtinger derivatives: the one
    formula for the Jacobian, the two distortions (inf where J <= 0) and the
    Beltrami coefficient (nan where f_z = 0)."""
    P, Q = squared_moduli(fz, fzbar)
    jac = P - Q
    pos = jac > 0
    safe_jac = np.where(pos, jac, 1.0)
    khs, kop = (np.where(pos, norm_squared(norm, P, Q) / safe_jac, np.inf)
                for norm in ("hs", "op"))
    defined = fz != 0
    mu = np.where(defined, fzbar / np.where(defined, fz, 1.0), np.nan + 1j * np.nan)
    return jac, khs, kop, mu


def wirtinger_derivatives(mapping: MappingField) -> DerivedField:
    """Exact per-triangle f_z, f_zbar of the piecewise-affine interpolant."""
    mesh = mapping.mesh
    m = mesh.n_triangles
    fz, fzbar, f_centroid = (np.empty(m, dtype=complex) for _ in range(3))
    for b in blocks(m):
        a, c = derivative_coefficients(mesh, b)
        corners = mapping.values[mesh.triangles[b]]  # after the coefficients' temporaries
        apply_coefficients(a, corners, out=fz[b])
        apply_coefficients(c, corners, out=fzbar[b])
        corners.mean(axis=1, out=f_centroid[b])
        del a, c, corners  # the next block's coefficients need the room
    return DerivedField(mesh, fz, fzbar, f_centroid)


def analytic_affine(a: complex, b: complex) -> AnalyticMap:
    a, b = complex(a), complex(b)

    def value(z, out=None, work=None):
        # conj(z) * b, not b * conj(z): numpy evaluates the latter in place as
        # conj(z) * b for large arrays only, and the two operand orders differ
        # in the last bit, so the values would depend on the array size
        z = np.asarray(z, dtype=complex)
        conj_b = np.empty_like(z) if work is None else work[:z.size].reshape(z.shape)
        np.multiply(np.conjugate(z, out=conj_b), b, out=conj_b)
        return np.add(np.multiply(a, z, out=out), conj_b, out=out)

    def jet(z, x=None):
        z = np.asarray(z, dtype=complex)
        f, fz, fzbar = _jet_arrays(z)
        value(z, f, work=fz.reshape(-1))  # fz holds conj(z) * b until it is filled
        fz.fill(a)
        fzbar.fill(b)
        return f, fz, fzbar

    return AnalyticMap(value, jet)


def analytic_radial_stretch(alpha: float) -> AnalyticMap:
    """z -> z|z|^(alpha-1); the standard closed-form finite-distortion example."""
    alpha = float(alpha)

    def stretch(z, out=None):
        """|z|^(alpha-1), 0 at the origin, in `out` if given: the power is
        taken over r = |z| in place, only where r > 0."""
        r = np.abs(z, out=out)
        return np.power(r, alpha - 1.0, out=r, where=r > 0)

    def value(z, out=None, work=None):
        z = np.asarray(z, dtype=complex)
        s = stretch(z, None if work is None else work.view(np.float64)[:z.size].reshape(z.shape))
        return np.multiply(z, s, out=out)

    def jet(z, x=None):
        # f = z s, f_z = (alpha + 1)/2 s + 0j and f_zbar = (alpha - 1)/2 s
        # times the phase z / conj(z) (0 at the origin), each product in the
        # order and the types of the one-line formulas; the real factors
        # are formed in f's memory, which f is written into last
        z = np.asarray(z, dtype=complex)
        f, fz, fzbar = _jet_arrays(z)
        s = stretch(z)
        nonzero = z != 0
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(z, np.conjugate(z, out=fzbar), out=fzbar, where=nonzero)
        fzbar[~nonzero] = 0.0
        np.multiply(np.multiply((alpha - 1.0) / 2.0, s, out=_reals(f)), fzbar, out=fzbar)
        np.add(np.multiply((alpha + 1.0) / 2.0, s, out=_reals(f)), 0.0, out=fz.real)
        fz.imag = 0.0
        return np.multiply(z, s, out=f), fz, fzbar

    return AnalyticMap(value, jet)


def analytic_oscillation(j: int) -> AnalyticMap:
    """z -> z + sin(2 pi j x)/(2 pi j): bounded gradients, no strong W^{1,2} limit.
    A frequency j with a fractional part is refused, not truncated, and so is
    j <= 0: j = 0 divides by zero, and -j is the same map as j."""
    try:
        j = positive_integer(j)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"oscillation frequency j: {exc}") from None
    w = 2.0 * np.pi * j

    def value(z):
        z = np.asarray(z, dtype=complex)
        return z + np.sin(w * z.real) / w

    def jet(z, x=None):
        # cos(w x)/2 and sin(w x)/w are taken once per distinct real part
        # and gathered into the memory of f_z and f_zbar, each read before
        # its room is written
        z = np.asarray(z, dtype=complex)
        f, fz, fzbar = _jet_arrays(z)
        half_cos, sin_w = _reals(fz), _reals(fzbar)
        distinct, inverse = distinct_real_parts(z) if x is None else x
        wx = w * distinct
        values = np.cos(wx)
        values *= 0.5
        values.take(inverse, out=half_cos, mode="clip")  # "raise" would buffer
        values = np.sin(wx, out=values)
        values /= w
        values.take(inverse, out=sin_w, mode="clip")
        # z + sin(w x)/w, part by part as the complex sum forms it
        np.add(z.real, sin_w, out=f.real)
        np.add(z.imag, 0.0, out=f.imag)
        np.copyto(fzbar, half_cos)  # cos(w x)/2 + 0j
        np.add(fzbar, 1.0, out=fz)  # 1 + cos(w x)/2 + 0j
        return f, fz, fzbar

    return AnalyticMap(value, jet)


_FORMULAS = {
    "affine": lambda params: analytic_affine(*params),
    "radial_stretch": lambda params: analytic_radial_stretch(*params),
    "oscillation": lambda params: analytic_oscillation(*params),
    "identity": lambda params: analytic_affine(1.0, 0.0),
}


def sample_analytic(mesh: Mesh, formula: str, *params) -> MappingField:
    """A closed-form map as a field on the mesh, its nodes sampled on first read."""
    if formula not in _FORMULAS:
        raise ConfigurationError(f"unknown analytic formula tag {formula!r}")
    return MappingField(mesh, analytic=_FORMULAS[formula](params))


# Rows per write of the CSV writer.  The text of 256 rows (at most about
# 70 KiB for 11 float columns) stays below glibc's initial 128 KiB mmap
# threshold, so it comes from the heap and the next piece reuses it; a
# block's text joined whole is megabytes that the allocator may map afresh,
# page by page, for every block.
WRITE_ROWS = 256


def _cells(c: np.ndarray) -> list:
    """One block of a column as csv.writer prints it: str of each integer or
    string, repr of each distinct float bit pattern once (0.0 and -0.0 stay apart)."""
    if c.dtype.kind in "iuU":
        return list(map(str, c.tolist()))
    c = np.ascontiguousarray(c, dtype=float)
    bits, inverse = np.unique(c.view(np.uint64), return_inverse=True)
    if len(bits) == len(c):  # all distinct: a gather would only permute
        return list(map(repr, c.tolist()))
    return np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[inverse].tolist()


def write_columns(path, header, columns, n_rows: int | None = None) -> None:
    """Write equal-length columns as CSV, byte for byte as csv.writer would.

    `columns` is a list of columns, or a function that returns the columns'
    rows `b` for each block slice `b` of range(n_rows), so that a column
    derived per block is never held whole.  Integer and string columns
    print as str, all others as the repr of a Python float (with inf and
    nan); lines end in CRLF.  Rows are formatted in blocks of
    `geometry.BLOCK_ROWS`, and in each block every distinct float bit
    pattern of a column is formatted once, so repeated values cost one repr
    per block.  Each block's rows are joined and written `WRITE_ROWS` at a
    time.
    """
    if callable(columns):
        block = columns
    else:
        whole = [np.asarray(c) for c in columns]
        n_rows = len(whole[0]) if whole else 0

        def block(b):
            return [c[b] for c in whole]

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for b in blocks(n_rows):
            cells = [_cells(c) for c in block(b)]
            for start in range(0, len(cells[0]), WRITE_ROWS):
                rows = zip(*(c[start:start + WRITE_ROWS] for c in cells))
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def derived_to_csv(derived: DerivedField, path) -> None:
    """One row per triangle; J, the distortions and mu are formed per block."""
    def rows(b):
        fz, fzbar = derived.fz[b], derived.fzbar[b]
        jac, khs, kop, mu = distortions(fz, fzbar)
        return [np.arange(b.start, b.stop), fz.real, fz.imag, fzbar.real, fzbar.imag,
                jac, khs, kop, mu.real, mu.imag, derived.areas[b]]

    write_columns(path, ["tri_id", "re_fz", "im_fz", "re_fzbar", "im_fzbar",
                         "J", "K_hs", "K_op", "re_mu", "im_mu", "area"],
                  rows, derived.mesh.n_triangles)
