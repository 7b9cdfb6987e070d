"""Strong-vs-weak convergence diagnostics for sequences of discrete mappings.

Given a sequence with a designated limit on a common mesh, this module
measures energy convergence, weak convergence, lower semicontinuity, and
the strong-convergence gaps of the derivatives, Jacobians and Beltrami
coefficients, and combines them into a single verdict.

Weak convergence is measured by compactness.  In the plane W^{1,q},
1 < q < infinity, embeds compactly in L^2, so a bounded sequence converges
weakly in W^{1,q} exactly when its values converge in L^2 (Brezis,
Functional Analysis, Sobolev Spaces and PDE, Thm 9.16 and Prop. 3.32):
the weak residual of member j is ||f_j - f||_{L^2}.  Nothing measures the
bound: an unbounded sequence whose values converge in L^2 passes too.

Closed-form sequence members carry an exact jet, the values and Wirtinger
derivatives from one evaluation; integrals for those use a high-order
per-element quadrature so that oscillatory members are resolved well below
the mesh scale.  Plain nodal members fall back to the exact
per-element-constant (centroid) path: the derivatives are sampled per block
with the rows of the mesh's Wirtinger coefficient pair (a, b) from
`fields.derivative_coefficients`, built once per sequence, and the values
are the P1 interpolant at the centroid.

`radon_riesz_diagnose` sweeps the mesh once, in blocks of whole triangles,
about `geometry.BLOCK_ROWS` quadrature points each, and builds each
block's quadrature when it reaches the block.  In each block the limit
and then every member is sampled once, as (f, f_z, f_zbar, P, Q, J), and
the sample feeds every measurement, which adds the block's part to its
sums: the weak residual, the energy series, the L^r gaps (of Phi too),
the scales (each the limit's gap to the zero field), the convergence in
measure of the last member (the weight share where each pointwise
difference exceeds a threshold, which Chebyshev's inequality bounds by the
L^r gap) and the limit's folded weight, where J <= 0 in its sample (of
its closed form, if it has one).  A field's Beltrami coefficient
mu = f_zbar / f_z counts as 0 where its own f_z = 0; the limit's mu and J,
which every member's difference reads, are computed once per block.  The
blocks are runs of the triangles ordered by the real parts of their
centroids, so the points of a block of a rect mesh take about 60
distinct real parts (`distinct_real_parts`).  When the limit and every
member are closed forms whose derivatives read Re z alone
(`AnalyticMap.x_only`), each field is affine in Im z on every vertical
line, and the block is a reduced rule with one point per distinct real
part (`_Block`): every field, f, f_z, f_zbar and all that is formed from
them (P, Q, J, mu, Phi), is sampled there and summed against the weight
of each, the sum of its points' weights, or for an energy of their
weights times the functional's density, which reads |z|.  The weak
residual adds the values' spread along each line in closed form.
Otherwise every field is sampled at the points.  The sweep runs on the
calling thread: its numpy calls are too short for threads to pay.  The
limit and every member are sampled by one `_sample`, each into arrays of
its own, and a member's sample is freed once its measurements have read
it.  The working set is one block, one member sample and a few sums: no
array grows with the number of quadrature points.
The standalone `weak_probe`, `lr_gap`, `quantity_scale` and `lsc_checks`
run the same sweep with the measurement they report.

Every measurement integrates over the whole mesh.  The theorem's
convergence is local (W^{1,q}_loc), and a gap on the whole domain bounds
the gap on every compact subset of it, so a whole-mesh pass is the
stronger statement.  A failure is not: a gap that concentrates at the
boundary fails on the whole domain and says nothing about W^{1,q}_loc.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import geometry
from .config import Section, real, setting
from .errors import ConfigurationError
from .fields import (MappingField, apply_coefficients, derivative_coefficients,
                     distinct_real_parts, squared_moduli, wirtinger_derivatives,
                     write_columns)
from .functionals import (FunctionalSpec, convexity_probe, default_s, df_norm, integrand,
                          monotone_truncation_check, quadrature_sum, weight_values)
from .geometry import Mesh
from .quadrature import mesh_quad_points

ANALYTIC_QUAD_N = 8  # 64 points per triangle
# weak residuals at most this fraction of the limit's ||f||_{L^2} are rounding
# noise: a sequence whose every residual is that small has its weak limit,
# whether or not the noise happens to decay
ROUNDING_REL = 1e-12
PROBE_SAMPLES = 20000  # random points of each convexity and monotonicity probe

VERDICTS = ("StrongConvergence", "EnergyGap", "WeakProbeFail",
            "JacobianDegenerate", "Inconclusive")


@dataclass
class SequenceHandle:
    """Members and their limit, all on one mesh (equal node and triangle
    arrays).  Energies along the sequence are weighted by the functional's
    `weight` alone."""
    mesh: Mesh
    members: List[MappingField]
    limit: MappingField

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError("sequence must be nonempty")
        for m in self.members + [self.limit]:
            if m.mesh is not self.mesh and not (
                    np.array_equal(m.mesh.nodes, self.mesh.nodes)
                    and np.array_equal(m.mesh.triangles, self.mesh.triangles)):
                raise ConfigurationError("all members must share the mesh")

    def __len__(self) -> int:
        return len(self.members)

    @cached_property  # asked once per field and block by the sweep
    def all_analytic(self) -> bool:
        return (self.limit.analytic is not None
                and all(m.analytic is not None for m in self.members))

    @cached_property  # asked once per field and block by the sweep
    def x_only(self) -> bool:
        """Whether the limit and every member are closed forms whose
        derivatives read Re z alone (`AnalyticMap.x_only`)."""
        return self.all_analytic and all(m.analytic.x_only
                                         for m in (self.limit, *self.members))

    @cached_property  # mesh-only, so built once for every nodal field
    def coefficients(self):
        """The mesh's (m, 3) Wirtinger coefficient pair (a, b) of
        `derivative_coefficients`."""
        return derivative_coefficients(self.mesh)

    @property
    def quad_n(self) -> int:
        """The `duffy_rule` size of the sweep: n^2 points per triangle for
        closed-form fields, the centroid for nodal ones."""
        return ANALYTIC_QUAD_N if self.all_analytic else 1


def _derivatives_at(seq: SequenceHandle, index: int, pts: np.ndarray,
                    tris=slice(None)):
    """The jet (f, fz, fzbar) of member/limit on the triangles `tris` (a
    slice or an index array): the closed form's at `pts`, the points of the
    block's rule, or the P1 interpolant's at the centroid (the mean of the
    three nodal values, as `wirtinger_derivatives` forms it) with its
    derivatives, all three from one gather of the values per triangle."""
    m = seq.limit if index == -1 else seq.members[index]
    if seq.all_analytic:
        return m.analytic.jet(pts)
    corners = m.values[seq.mesh.triangles[tris]]
    return (corners.mean(axis=1, keepdims=True),
            *(apply_coefficients(c[tris], corners)[:, None] for c in seq.coefficients))


class _Sample:
    """f, f_z, f_zbar, P = |f_z|^2 and Q = |f_zbar|^2 of one field at the
    points of a block's rule, one entry per weight of `_Block.dw`.  Phi by
    spec, J and mu are computed on first use."""

    def __init__(self, f, fz, fzbar):
        self.f, self.fz, self.fzbar = f, fz, fzbar
        self.P, self.Q = squared_moduli(fz, fzbar)
        self.phis = {}

    def phi(self, spec: FunctionalSpec) -> np.ndarray:
        phi = self.phis.get(spec)
        if phi is None:
            phi = self.phis[spec] = integrand(spec, self.P, self.Q)
        return phi

    # every member's J and mu differences read the limit's, computed once
    @cached_property
    def jac(self) -> np.ndarray:
        return self.P - self.Q

    @cached_property
    def mu(self) -> np.ndarray:
        return _mu(self)


def _shared(a: np.ndarray, shape) -> np.ndarray:
    """`a` as a read-only array of `shape`: the sample every measurement reads."""
    a = np.asarray(a)
    if a.shape != shape:
        return np.broadcast_to(a, shape)  # read-only already
    a.setflags(write=False)
    return a


def _sample(seq: SequenceHandle, index: int, block: _Block, tris) -> _Sample:
    """The one evaluation of member `index` (-1: the limit) on a block."""
    shape = block.dw.shape
    return _Sample(*(_shared(a, shape) for a in _derivatives_at(seq, index, block.z, tris)))


class _Block:
    """A run of whole triangles as a quadrature rule: every field is sampled
    at the points `z` and summed against their weights `dw`, per point the
    triangles' quadrature points `pts` and weights `w`.  Reduced, for a
    sequence of `x_only` closed forms, the rule has one entry per distinct
    real part x_k of `pts`: z_k = x_k + i ybar_k, ybar_k the w-weighted
    mean of Im z over the points of x_k, dw_k the sum of their weights and
    `m2`_k that of w (Im z - ybar_k)^2.  There each field is affine in Im z
    with slope i kappa_k, kappa = f_z - f_zbar, so the L^2 gap of two fields
    over those points is |Delta f(z_k)|^2 dw_k + |Delta kappa_k|^2 m2_k,
    with no cross term, and each quantity of the derivatives is constant."""

    def __init__(self, pts: np.ndarray, w: np.ndarray, reduce: bool = False):
        self.pts, self.w = pts, w
        self.z, self.dw, self.m2, self.inverse = pts, w, None, None
        if reduce:
            distinct, inverse = distinct_real_parts(pts)
            self.inverse = inverse.ravel()
            self.dw = self.per_part(w)
            ybar = self.per_part(w * pts.imag) / self.dw
            dy = pts.imag.ravel() - ybar[self.inverse]
            self.m2 = self.per_part(w.ravel() * dy * dy)
            self.z = np.stack([distinct, ybar], axis=1).view(complex).ravel()

    def per_part(self, a: np.ndarray) -> np.ndarray:
        """Per-point weights `a` in the rule's layout: summed per distinct
        real part when reduced."""
        return a if self.inverse is None else np.bincount(self.inverse, a.ravel())


class _Measurement:
    """A quantity summed block by block over a sweep.  In every block the
    sweep passes the limit first, then each member it samples in order.
    Every sample, the limit's and each member's, is read-only and in arrays
    of its own; a member's is freed after its hooks, so a hook keeps
    nothing of it.  Every quantity sums against the block's `dw`, and the
    values' L^2 gap adds the term of a reduced rule's `m2`."""

    def limit(self, block: _Block, lim: _Sample) -> None:
        pass

    def member(self, block: _Block, j: int, f: _Sample, lim: _Sample) -> None:
        pass


def _sweep(seq: SequenceHandle, measurements: Sequence[_Measurement],
           members: Optional[Sequence[int]] = None) -> None:
    """Feed the measurements one block of whole triangles (about
    `geometry.BLOCK_ROWS` quadrature points) at a time, on the calling
    thread.  The blocks are runs of the triangles in the order of the real
    parts of their centroids, each run taken in mesh order, so that a block
    of a rect mesh is a strip of columns and its points share few real
    parts.  Each block's quadrature is built when the block is reached,
    each field is sampled once per block and the sample is shared by every
    measurement.  When the sequence is `x_only`, the block is the reduced
    rule of `_Block`, so every field is sampled once per distinct real part
    of the block; otherwise at every point.  The limit is sampled, then the
    members of the index sequence `members` in its order (None: every
    member)."""
    n = seq.quad_n
    step = max(1, geometry.BLOCK_ROWS // n ** 2)
    members = range(len(seq)) if members is None else members
    order = np.argsort(seq.mesh.centroids().real, kind="stable")
    for start in range(0, len(order), step):
        tris = np.sort(order[start:start + step])
        if tris[-1] - tris[0] == len(tris) - 1:  # a range: index views, not copies
            tris = slice(tris[0], tris[-1] + 1)
        pts, w = mesh_quad_points(seq.mesh, n, tris)
        block = _Block(pts, w, seq.x_only)
        lim = _sample(seq, -1, block, tris)
        for m in measurements:
            m.limit(block, lim)
        for j in members:
            f = _sample(seq, j, block, tris)
            for m in measurements:
                m.member(block, j, f, lim)
            del f  # the next member's sample takes its room


QUANTITIES = ("df", "fz", "fzbar", "jac", "mu")


def _check_exponent(quantity: str, r) -> None:
    """Refuse a quantity outside QUANTITIES and an exponent that is not a
    positive finite number."""
    if quantity not in QUANTITIES:
        raise ConfigurationError(f"unknown quantity {quantity!r}; one of {QUANTITIES}")
    if isinstance(r, bool) or not (isinstance(r, (int, float)) and 0 < r < np.inf):
        raise ConfigurationError(f"bad exponent for {quantity!r}: {r}")


def _quantity_diff(quantity: str, a: _Sample, b: _Sample,
                   spec: Optional[FunctionalSpec] = None):
    """Pointwise |q(a) - q(b)|.  Each field's mu = f_zbar / f_z is 0 where
    its own f_z = 0, so the mu difference is a distance; b's mu and J are
    `b.mu` and `b.jac`, computed once per sample.  The quantity
    "phi" is the integrand Phi of `spec`; its difference is inf everywhere
    once it is not finite somewhere.  The quantity "f" is the field's
    values, which the weak residual reads."""
    if quantity in ("f", "fz", "fzbar"):
        return np.abs(getattr(a, quantity) - getattr(b, quantity))
    if quantity == "phi":
        with np.errstate(invalid="ignore"):  # inf - inf where both fold
            d = a.phi(spec) - b.phi(spec)
            np.abs(d, out=d)
        if not np.isfinite(d).all():
            d.fill(np.inf)
        return d
    if quantity == "df":
        d = np.abs(a.fz - b.fz)
        d **= 2
        d_bar = np.abs(a.fzbar - b.fzbar)
        d_bar **= 2
        d += d_bar
        return np.sqrt(d, out=d)
    if quantity == "jac":  # (P - Q) - J of b, as a.jac - b.jac
        d = a.P - a.Q
        d -= b.jac
        return np.abs(d, out=d)
    if quantity == "mu":
        return np.abs(_mu(a) - b.mu)
    raise ConfigurationError(f"unknown quantity {quantity!r}")


def _mu(s: _Sample):
    """The Beltrami coefficient f_zbar / f_z of a sample, 0 where f_z = 0."""
    out = np.zeros(np.broadcast(s.fz, s.fzbar).shape, dtype=complex)
    return np.divide(s.fzbar, s.fz, out=out, where=s.fz != 0)


def _lr_sum(d: np.ndarray, w: np.ndarray, r: float) -> float:
    """One block's part of int |d|^r, the power and the weights taken in
    place in `d`; the L^r norm is the r-th root of the total."""
    d **= r
    d *= w
    return np.add.reduce(d, axis=None)  # np.sum's reduction, without its Python layers


class _LrGap(_Measurement):
    """L^r distance of a quantity of `_quantity_diff` to the limit's, per
    member; `spec` is the functional of the quantity "phi"."""

    def __init__(self, quantity: str, r: float, n_members: int,
                 spec: Optional[FunctionalSpec] = None):
        self.quantity, self.r, self.spec = quantity, r, spec
        self.sums = np.zeros(n_members)

    def member(self, block, j, f, lim):
        d = _quantity_diff(self.quantity, f, lim, self.spec)
        self.sums[j] += _lr_sum(d, block.dw, self.r)
        if self.quantity == "f" and block.m2 is not None:
            # the values' spread along each line; "f" is read at r = 2 alone
            kappa = f.fz - f.fzbar
            kappa -= lim.fz - lim.fzbar
            self.sums[j] += _lr_sum(np.abs(kappa), block.m2, 2.0)

    def values(self) -> List[float]:
        return [float(s ** (1.0 / self.r)) for s in self.sums]


# the zero field's jet: one sample, broadcast to every block; |0 - q| keeps
# every bit of |q|
_ZERO = _Sample(0j, 0j, 0j)


class _Scale(_Measurement):
    """L^r size of the limit quantity, its `_LrGap` to the zero field: used
    to normalize gap tolerances."""

    def __init__(self, quantity: str, r: float):
        self.gap = _LrGap(quantity, r, 1)

    def limit(self, block, lim):
        self.gap.member(block, 0, _ZERO, lim)

    def value(self) -> float:
        return self.gap.values()[0]


def lr_gap(seq: SequenceHandle, quantity: str, r: float) -> List[float]:
    """Discrete L^r distance of a derived quantity to the limit, per member."""
    _check_exponent(quantity, r)
    if quantity == "jac" and r >= 1.0:
        warnings.warn("Jacobian convergence is only guaranteed for r < 1", stacklevel=2)
    gap = _LrGap(quantity, r, len(seq))
    _sweep(seq, [gap])
    return gap.values()


def quantity_scale(seq: SequenceHandle, quantity: str, r: float) -> float:
    """L^r size of the limit quantity, used to normalize gap tolerances."""
    _check_exponent(quantity, r)
    scale = _Scale(quantity, r)
    _sweep(seq, [scale], members=())
    return scale.value()


def weak_probe(seq: SequenceHandle) -> List[float]:
    """Weak-convergence residuals: per member, ||f_j - f||_{L^2} at the
    sweep's quadrature points.

    A sequence bounded in W^{1,q}, 1 < q < infinity, converges weakly to the
    limit exactly when these tend to 0, since W^{1,q} embeds compactly in
    L^2 in the plane (Rellich-Kondrachov) and weak limits are unique.  The
    bound is assumed, not measured.
    """
    gap = _LrGap("f", 2.0, len(seq))
    _sweep(seq, [gap])
    return gap.values()


class _Energy(_Measurement):
    """Energy of Phi^power, for the limit and each member.
    Block energies are summed by `quadrature_sum` too, so one inf term
    anywhere makes the energy inf."""

    def __init__(self, spec: FunctionalSpec, n_members: int, power: float = 1.0):
        self.spec, self.power = spec, power
        self.blocks: List[List[float]] = [[] for _ in range(n_members + 1)]  # index j + 1

    def _add(self, j, sample):
        vals = sample.phi(self.spec)
        if self.power != 1.0:
            with np.errstate(over="ignore"):
                vals = vals ** self.power
        self.blocks[j + 1].append(quadrature_sum(vals, self.weights))

    def limit(self, block, lim):
        # the weight reads the quadrature points, so it is summed into the
        # rule's layout, not dropped
        self.weights = block.per_part(block.w * weight_values(self.spec, block.pts))
        self._add(-1, lim)

    def member(self, block, j, f, lim):
        self._add(j, f)

    def values(self) -> List[float]:
        """The limit's energy, then each member's."""
        return [quadrature_sum(np.array(parts), 1.0) for parts in self.blocks]


class _Folded(_Measurement):
    """Where the limit's sample has J <= 0 (or nan): `folded` of the sweep's
    `total` quadrature weight.  J is P - Q, as in `fields.distortions`, so a
    nodal limit folds exactly where `distortions` gives J <= 0."""
    folded = total = 0.0  # the first block's += makes them the instance's

    def limit(self, block, lim):
        self.folded += np.sum(block.dw[~(lim.jac > 0)])
        self.total += np.sum(block.dw)


MEASURE_LEVELS = (1e-1, 1e-2, 1e-3)  # thresholds t of the convergence-in-measure record


class _InMeasure(_Folded):
    """Convergence in measure of the last member: for q in df, jac and mu
    and each t of MEASURE_LEVELS, lambda_q(t), the share of the sweep's
    quadrature weight where |q(last member) - q(limit)| > t.  The difference
    is `_quantity_diff`'s, as the L^r gaps read it (each field's mu counts
    as 0 where its own f_z = 0, inf lies above every t), so on the same measure
    Chebyshev's inequality gives lambda_q(t) * sum(w) <= (gap_q / t)^r.
    The limit's folded weight comes with it, on the same total."""

    def __init__(self, n_members: int):
        self.last = n_members - 1
        self.above = {q: np.zeros(len(MEASURE_LEVELS)) for q in ("df", "jac", "mu")}

    def member(self, block, j, f, lim):
        if j != self.last:
            return
        for qname, above in self.above.items():
            d = _quantity_diff(qname, f, lim)
            for i, t in enumerate(MEASURE_LEVELS):
                # where, not a masked sum: with every point above, the sum is
                # the total's, so the share is exactly 1
                above[i] += np.sum(np.where(d > t, block.dw, 0.0))

    def values(self) -> Dict[str, List[float]]:
        return {"levels": list(MEASURE_LEVELS),
                **{q: [float(a / self.total) for a in above]
                   for q, above in self.above.items()}}


@dataclass(frozen=True)
class LscResult:
    liminf_energy: float
    limit_energy: float
    holds: bool
    member_energies: List[float]
    limit_bad_area: float


def tail_slice(n: int) -> slice:
    """The tail half used as the finite-sequence liminf window."""
    return slice(n // 2, n)


def lsc_checks(specs: Sequence[FunctionalSpec], seq: SequenceHandle) -> List[LscResult]:
    """Lower-semicontinuity measurement per spec: limit energy vs tail-liminf
    of members.  One sweep samples each field once for all the specs."""
    folded, energies = _Folded(), [_Energy(spec, len(seq)) for spec in specs]
    _sweep(seq, [folded, *energies])
    results = []
    for energy in energies:
        limit_energy, *members = energy.values()
        tail = members[tail_slice(len(members))]
        liminf = float(np.min(tail)) if tail else np.inf
        scale = max(1.0, abs(limit_energy)) if np.isfinite(limit_energy) else 1.0
        holds = bool(limit_energy <= liminf + 1e-8 * scale)
        results.append(LscResult(liminf, limit_energy, holds, members, folded.folded))
    return results


def sobolev_norm(mapping: MappingField, q: float = 2.0) -> float:
    """Discrete W^{1,q} norm: node-lumped value part plus per-element |Df| part."""
    if q < 1:
        warnings.warn("q < 1 gives a quasi-norm", stacklevel=2)
    mesh = mapping.mesh
    lumped = np.zeros(mesh.n_nodes)
    np.add.at(lumped, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    value_part = float(np.sum(np.abs(mapping.values) ** q * lumped))
    dnorm = df_norm(wirtinger_derivatives(mapping), "op")
    deriv_part = float(np.sum(dnorm ** q * mesh.areas))
    return (value_part + deriv_part) ** (1.0 / q)


def orlicz_gauge(t: np.ndarray) -> np.ndarray:
    """The Orlicz function t^2 / log(e + t)."""
    t = np.asarray(t, dtype=float)
    return t ** 2 / np.log(np.e + t)


def orlicz_norm(mapping: MappingField) -> float:
    """Luxemburg norm of |Df|: the lambda > 0 with int P(|Df|/lambda) = 1."""
    dnorm = df_norm(wirtinger_derivatives(mapping), "op")
    areas = mapping.mesh.areas
    if np.max(dnorm, initial=0.0) == 0.0:
        return 0.0

    def integral(lam):
        return float(np.sum(orlicz_gauge(dnorm / lam) * areas))

    hi = float(np.max(dnorm) * np.sqrt(np.sum(areas)) + 1.0)
    while integral(hi) > 1.0:
        hi *= 2.0
    lo = hi
    while integral(lo) < 1.0:
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if integral(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-10 * hi:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Tolerances(Section, section="tolerances"):
    hypothesis_rel: float = setting(real, 1e-3)  # energy-convergence gap, relative to scale
    conclusion_rel: float = setting(real, 1e-2)  # strong-convergence tails, relative to scale
    weak_rel: float = setting(real, 2e-2)        # last weak residual, relative to ||f||_{L^2}

    def __post_init__(self):
        for key, value in asdict(self).items():
            if not value >= 0:
                raise ConfigurationError(f"tolerances key {key!r} must be >= 0, got {value}")


@dataclass
class ConvergenceReport:
    """The `diagnose` result document: `to_json` writes the fields as they are.

    `hypotheses` holds the eight hypothesis flags and measurements:
    energy_convergence and energy_gap (the PhiConv gap at exponent p_RR),
    phi_energy_gap (the plain-Phi energy gap, Lemma-1 scale), weak_probe_ok,
    jacobian_ok and jacobian_bad_fraction (the weight share where the
    limit's sample has J <= 0), convexity_ok, monotonicity_ok.
    `conclusions` holds one `_gap_record` per quantity: "phi" at p_RR and
    each quantity of the r_list."""
    verdict: str
    decided_by: str                   # first failed hypothesis, or "all"
    hypotheses: Dict[str, object]
    energy_series: List[float]
    limit_energy: float
    weak_probe_residuals: List[float]
    conclusions: Dict[str, dict]
    pointwise_proxy: Dict[str, List[float]]  # levels, and per quantity the shares
    config: Dict

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ConfigurationError(f"invalid verdict {self.verdict!r}")

    def to_json(self) -> dict:
        return asdict(self)


def gaps_to_csv(report: ConvergenceReport, path) -> None:
    """Gap-vs-j series for plotting."""
    names = sorted(report.conclusions)
    write_columns(path, ["j", "energy", "weak_residual"] + [f"gap_{n}" for n in names],
                  [np.arange(1, len(report.energy_series) + 1), report.energy_series,
                   report.weak_probe_residuals]
                  + [report.conclusions[n]["series"] for n in names])


def radon_riesz_diagnose(spec: FunctionalSpec, seq: SequenceHandle,
                         p_RR: float, s: Optional[float] = None,
                         r_list: Optional[Dict[str, float]] = None,
                         tolerances: Tolerances = Tolerances()) -> ConvergenceReport:
    """Hypothesis verification and conclusion measurement for the strong-
    convergence theorem, on one sequence with one functional family.

    The structural hypotheses on Phi are probed at PROBE_SAMPLES random
    points each, Phi * y^s at `s` (Dirichlet, whose admissible range of s
    is empty, at its `spec.s_value` 0, whatever `s` says; the report's
    config records the s of the probe), the weak limit by the L^2 gap of
    the values, relative to the limit's ||f||_{L^2}.  The mesh is swept
    once, block by block, each block's quadrature built when it is reached,
    so every quadrature point of every member is sampled once and every
    measurement integrates over the whole mesh, while memory holds one
    block.  `pointwise_proxy` is the convergence in measure of the last
    member, `_InMeasure`'s record: for df, jac and mu, the weight share
    above each threshold of `MEASURE_LEVELS`.
    """
    if not p_RR > 1.0:
        raise ConfigurationError("p_RR must exceed 1")
    if spec.family == "dirichlet":
        s = spec.s_value
    else:
        if s is None:
            s = default_s(p_RR)
        if not (0.0 < s < 1.0 - 1.0 / p_RR):
            raise ConfigurationError(f"s must lie in (0, 1 - 1/p_RR), got {s}")
    if r_list is None:
        r_list = {"df": 1.5, "jac": 0.5, "mu": 1.0}
    if not isinstance(r_list, dict):
        raise ConfigurationError("r_list must map quantity names to exponents")
    for qname, r in r_list.items():
        _check_exponent(qname, r)

    # (a) structural conditions on the family: convexity of Phi and Phi*y^s,
    # monotone approach of the truncations to the exponential
    conv = convexity_probe(spec, s, PROBE_SAMPLES, seed=0)
    if spec.family in ("trunc_exp", "exp_p"):
        n_max = max(spec.trunc_n, 1) if spec.family == "trunc_exp" else 20
        monotonicity_ok = monotone_truncation_check(spec.p, n_max, PROBE_SAMPLES, seed=0).ok
    else:
        monotonicity_ok = True  # constant family sequence is trivially monotone

    # Energy convergence is measured for Phi^{p_RR}; p enters every family
    # as the rate, so the exponent substitutes directly, except for the
    # rate-free quadratic family where it acts as an outer power
    if spec.family == "dirichlet":
        rr_spec, rr_power = spec, p_RR
    else:
        rr_spec, rr_power = spec.with_(p=p_RR), 1.0

    # one sweep: each field's sample on a block feeds every measurement
    n = len(seq)
    weak = _LrGap("f", 2.0, n)
    series = _Energy(rr_spec, n, rr_power)
    phi_energies = series if (rr_spec, rr_power) == (spec, 1.0) else _Energy(spec, n)
    exponents = {"phi": p_RR, **r_list}
    gaps = {q: _LrGap(q, r, n, spec) for q, r in exponents.items()}
    scales = {q: _Scale(q, r) for q, r in r_list.items()}
    weak_scale = _Scale("f", 2.0)
    in_measure = _InMeasure(n)
    measurements = [weak, series, in_measure, weak_scale, *gaps.values(), *scales.values()]
    if phi_energies is not series:
        measurements.append(phi_energies)
    _sweep(seq, measurements)

    # (b) weak-limit hypothesis
    residuals = weak.values()
    f_scale = max(weak_scale.value(), 1e-12)
    weak_ok = bool(residuals[-1] <= tolerances.weak_rel * f_scale
                   and (residuals[-1] <= 0.5 * max(residuals)
                        or max(residuals) <= ROUNDING_REL * f_scale))

    # (c) energy convergence
    limit_energy, *energy_series = series.values()
    e_scale = max(1.0, abs(limit_energy)) if np.isfinite(limit_energy) else 1.0
    energy_gap = float(abs(energy_series[-1] - limit_energy)) \
        if np.isfinite(limit_energy) and np.isfinite(energy_series[-1]) else np.inf
    energy_ok = bool(energy_gap <= tolerances.hypothesis_rel * e_scale)

    phi_limit, *phi_series = phi_energies.values()
    phi_energy_gap = float(abs(phi_series[-1] - phi_limit)) \
        if np.isfinite(phi_limit) and np.isfinite(phi_series[-1]) else np.inf

    # (d) limit Jacobian positivity, on the sweep's sample of the limit
    bad_fraction = float(in_measure.folded / in_measure.total)
    jac_ok = bad_fraction == 0.0

    # (e) conclusion measurements
    scale_values = {"phi": max(abs(limit_energy) ** (1.0 / p_RR), 1e-12)
                    if np.isfinite(limit_energy) else 1e-12}
    scale_values.update({q: max(scale.value(), 1e-12) for q, scale in scales.items()})
    conclusions = {q: _gap_record(gaps[q].values(), r, scale_values[q],
                                  tolerances.conclusion_rel)
                   for q, r in exponents.items()}
    tails_ok = all(gap["ok"] for gap in conclusions.values())

    # the first failed hypothesis decides; a folded limit lies outside the
    # theorem whatever its energies, so the Jacobian comes first, and
    # failures past the weak probe are not conclusive
    checks = (("jacobian", jac_ok, "JacobianDegenerate"),
              ("energy_convergence", energy_ok, "EnergyGap"),
              ("weak_probe", weak_ok, "WeakProbeFail"),
              ("convexity", conv.ok, "Inconclusive"),
              ("monotonicity", monotonicity_ok, "Inconclusive"),
              ("conclusion_tails", tails_ok, "Inconclusive"))
    decided_by, verdict = next(((name, v) for name, ok, v in checks if not ok),
                               ("all", "StrongConvergence"))

    return ConvergenceReport(
        verdict=verdict,
        decided_by=decided_by,
        hypotheses={"energy_convergence": energy_ok, "energy_gap": energy_gap,
                    "phi_energy_gap": phi_energy_gap, "weak_probe_ok": weak_ok,
                    "jacobian_ok": jac_ok, "jacobian_bad_fraction": bad_fraction,
                    "convexity_ok": conv.ok, "monotonicity_ok": monotonicity_ok},
        energy_series=energy_series,
        limit_energy=limit_energy,
        weak_probe_residuals=residuals,
        conclusions=conclusions,
        pointwise_proxy=in_measure.values(),
        config={"spec": spec.to_json(), "p_RR": p_RR, "s": s,
                "r_list": dict(r_list), "tolerances": tolerances.to_json(),
                "n_members": n},
    )


def _gap_record(series: Sequence[float], r: float, scale: float, tol_rel: float) -> dict:
    tail = float(series[-1])
    return {"r": float(r), "series": [float(v) for v in series], "tail": tail,
            "scale": float(scale), "ok": bool(tail <= tol_rel * scale)}
