"""Strong-vs-weak convergence diagnostics for sequences of discrete mappings.

Given a sequence with a designated limit on a common mesh, this module
measures energy convergence, weak convergence against a polynomial test
dictionary, lower semicontinuity, and the strong-convergence gaps of the
derivatives, Jacobians and Beltrami coefficients, and combines them into a
single verdict.

Closed-form sequence members carry exact derivative callables; integrals
for those use a high-order per-element quadrature so that oscillatory
members are resolved well below the mesh scale.  Plain nodal members fall
back to the exact per-element-constant (centroid) path, sampled per block
from the mesh's Wirtinger coefficients, which are built once per sequence.

`radon_riesz_diagnose` builds the quadrature once and sweeps it in blocks
of whole triangles, about BLOCK_POINTS quadrature points each.  In each
block the limit and then every member is sampled once, as (f_z, f_zbar,
P, Q, J), and the sample feeds every measurement, which adds the block's
part to its sums: the weak probe (one matrix product pairs the
differences of PROBE_GROUP members with the test dictionary), the energy
series, the Phi-gap, the L^r gaps, the scales and the pointwise proxy.
No full-length per-member array is formed.  The standalone `weak_probe`, `lr_gap`,
`quantity_scale` and `lsc_check` run the same sweep with the measurement
they report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .config import Section, setting
from .errors import ConfigurationError, DomainError
from .fields import (MappingField, derivative_coefficients, squared_moduli,
                     wirtinger_derivatives, write_columns)
from .functionals import (FunctionalSpec, convexity_probe, default_s, df_norm, integrand,
                          monotone_truncation_check, quadrature_sum, weight_values)
from .geometry import Mesh
from .quadrature import mesh_quad_points

ANALYTIC_QUAD_N = 8  # 64 points per triangle
BLOCK_POINTS = 8192  # quadrature points per block of a sweep; blocks hold whole triangles
# members per weak-probe matrix product: the row buffer is 5 * PROBE_GROUP *
# BLOCK_POINTS floats (5.2 MB); 8 members (40 rows) ran at a quarter of the
# GEMM rate of 16-64 members on a 2-core Xeon, and 64 raised peak memory
PROBE_GROUP = 16

VERDICTS = ("StrongConvergence", "EnergyGap", "WeakProbeFail",
            "JacobianDegenerate", "Inconclusive")


@dataclass
class SequenceHandle:
    mesh: Mesh
    members: List[MappingField]
    limit: MappingField
    eta_members: Optional[List[np.ndarray]] = None  # per-triangle weights
    eta_limit: Optional[np.ndarray] = None
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError("sequence must be nonempty")
        for m in self.members + [self.limit]:
            if m.mesh is not self.mesh and m.mesh.n_nodes != self.mesh.n_nodes:
                raise ConfigurationError("all members must share the mesh")
        if self.eta_members is not None and len(self.eta_members) != len(self.members):
            raise ConfigurationError("eta_members length mismatch")

    def __len__(self) -> int:
        return len(self.members)

    @cached_property  # asked once per field and block by the sweep
    def all_analytic(self) -> bool:
        return (self.limit.analytic is not None
                and all(m.analytic is not None for m in self.members))

    @cached_property  # mesh-only, so built once for every nodal field
    def coefficients(self):
        """The mesh's `derivative_coefficients` (a, b)."""
        return derivative_coefficients(self.mesh)


def _quad(seq: SequenceHandle):
    return mesh_quad_points(seq.mesh, ANALYTIC_QUAD_N if seq.all_analytic else 1)


def _derivatives_at(seq: SequenceHandle, index: int, pts: np.ndarray,
                    tris: slice = slice(None)):
    """(fz, fzbar) of member/limit on the triangles `tris` of the (m, K)
    quadrature points, broadcastable to pts[tris].shape."""
    m = seq.limit if index == -1 else seq.members[index]
    if seq.all_analytic:
        return m.analytic.derivatives(pts[tris])
    a, b = seq.coefficients
    w = m.values[seq.mesh.triangles[tris]]
    return np.sum(a[tris] * w, axis=1)[:, None], np.sum(b[tris] * w, axis=1)[:, None]


class _Sample(NamedTuple):
    """f_z, f_zbar, P = |f_z|^2, Q = |f_zbar|^2 and J = P - Q of one field on
    a block of quadrature points, and its Phi values by spec."""
    fz: np.ndarray
    fzbar: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    jac: np.ndarray
    phis: Dict[FunctionalSpec, np.ndarray]

    @staticmethod
    def of(fz: np.ndarray, fzbar: np.ndarray) -> "_Sample":
        P, Q = squared_moduli(fz, fzbar)
        return _Sample(fz, fzbar, P, Q, P - Q, {})

    def restrict(self, sub) -> "_Sample":
        if isinstance(sub, slice):  # the whole block
            return self
        return _Sample(*(a[sub] for a in self[:5]), {})

    def phi(self, spec: FunctionalSpec) -> np.ndarray:
        if spec not in self.phis:
            self.phis[spec] = integrand(spec, self.P, self.Q)
        return self.phis[spec]


def _sample(seq: SequenceHandle, index: int, pts: np.ndarray, tris: slice) -> _Sample:
    """The derivative evaluation of member `index` (-1: the limit) on a block."""
    shape = pts[tris].shape
    return _Sample.of(*(np.broadcast_to(a, shape)
                        for a in _derivatives_at(seq, index, pts, tris)))


def _subdomain_index(mesh: Mesh, subdomain):
    """Triangle index of a subdomain: a full slice (no copies) when None."""
    if subdomain is None:
        return slice(None)
    subdomain = np.asarray(subdomain)
    if subdomain.dtype == bool:
        mask = subdomain
    else:
        mask = np.zeros(mesh.n_triangles, dtype=bool)
        mask[subdomain] = True
    if not np.any(mask):
        raise DomainError("empty subdomain")
    return mask


class _Block(NamedTuple):
    """A run of whole triangles: their quadrature points and weights, the
    subdomain's index into them, and the subdomain's weights."""
    tris: slice
    pts: np.ndarray
    w: np.ndarray
    sub: object
    w_sub: np.ndarray


class _Field(NamedTuple):
    """One field's sample on a block, and its restriction to the subdomain."""
    whole: _Sample
    part: _Sample


class _Measurement:
    """A quantity summed block by block over a sweep.  In every block the
    sweep passes the limit first, then each member in order."""

    def limit(self, block: _Block, lim: _Field) -> None:
        pass

    def member(self, block: _Block, j: int, f: _Field, lim: _Field) -> None:
        pass


def _sweep(seq: SequenceHandle, measurements: Sequence[_Measurement],
           subdomain=None, members: bool = True) -> None:
    """Feed the measurements one block of whole triangles (about BLOCK_POINTS
    quadrature points) at a time.  Each field is sampled once per block and
    the sample is shared by every measurement; with members=False only the
    limit is sampled."""
    sub = _subdomain_index(seq.mesh, subdomain)
    pts, w = _quad(seq)
    step = max(1, BLOCK_POINTS // pts.shape[1])
    for start in range(0, len(pts), step):
        tris = slice(start, start + step)
        block_sub = sub if isinstance(sub, slice) else sub[tris]
        block = _Block(tris, pts[tris], w[tris], block_sub, w[tris][block_sub])
        whole = _sample(seq, -1, pts, tris)
        lim = _Field(whole, whole.restrict(block_sub))
        for m in measurements:
            m.limit(block, lim)
        for j in range(len(seq) if members else 0):
            whole = _sample(seq, j, pts, tris)
            f = _Field(whole, whole.restrict(block_sub))
            for m in measurements:
                m.member(block, j, f, lim)


QUANTITIES = ("df", "fz", "fzbar", "jac", "mu")


def _quantity_diff(quantity: str, a: _Sample, b: _Sample):
    """Pointwise |q(a) - q(b)|, 0 where q is undefined, and a validity mask
    (None: valid everywhere)."""
    if quantity == "df":
        return np.sqrt(np.abs(a.fz - b.fz) ** 2 + np.abs(a.fzbar - b.fzbar) ** 2), None
    if quantity == "fz":
        return np.abs(a.fz - b.fz), None
    if quantity == "fzbar":
        return np.abs(a.fzbar - b.fzbar), None
    if quantity == "jac":
        return np.abs(a.jac - b.jac), None
    if quantity == "mu":
        ok = (a.fz != 0) & (b.fz != 0)
        mu_a = np.where(ok, a.fzbar / np.where(ok, a.fz, 1.0), 0.0)
        mu_b = np.where(ok, b.fzbar / np.where(ok, b.fz, 1.0), 0.0)
        return np.abs(mu_a - mu_b), ok
    raise ConfigurationError(f"unknown quantity {quantity!r}")


def _lr_sum(d: np.ndarray, w: np.ndarray, r: float) -> float:
    """One block's part of int |d|^r; the L^r norm is the r-th root of the total."""
    return np.sum(d ** r * w)


class _LrGap(_Measurement):
    """L^r distance of a derived quantity to the limit's, per member."""

    def __init__(self, quantity: str, r: float, n_members: int):
        self.quantity, self.r = quantity, r
        self.sums = np.zeros(n_members)

    def member(self, block, j, f, lim):
        d, _ = _quantity_diff(self.quantity, f.part, lim.part)
        self.sums[j] += _lr_sum(d, block.w_sub, self.r)

    def values(self) -> List[float]:
        return [float(s ** (1.0 / self.r)) for s in self.sums]


class _Scale(_Measurement):
    """L^r size of the limit quantity, used to normalize gap tolerances."""

    def __init__(self, quantity: str, r: float):
        self.quantity, self.r = quantity, r
        self.sum = 0.0

    def limit(self, block, lim):
        part = lim.part
        if self.quantity == "mu":
            # size of mu itself; comparing against a zero field would empty
            # the fz != 0 mask and floor the scale at nothing
            ok = part.fz != 0
            d = np.zeros(ok.shape)
            np.divide(np.abs(part.fzbar), np.abs(part.fz), out=d, where=ok)
        else:
            zero = _Sample.of(np.zeros_like(part.fz), np.zeros_like(part.fzbar))
            d, _ = _quantity_diff(self.quantity, part, zero)
        self.sum += _lr_sum(d, block.w_sub, self.r)

    def value(self) -> float:
        return float(self.sum ** (1.0 / self.r))


def lr_gap(seq: SequenceHandle, quantity: str, r: float,
           subdomain=None) -> List[float]:
    """Discrete L^r distance of a derived quantity to the limit, per member."""
    if quantity not in QUANTITIES:
        raise ConfigurationError(f"quantity must be one of {QUANTITIES}")
    if r <= 0:
        raise ConfigurationError("r must be positive")
    if quantity == "jac" and r >= 1.0:
        warnings.warn("Jacobian convergence is only guaranteed for r < 1", stacklevel=2)
    gap = _LrGap(quantity, r, len(seq))
    _sweep(seq, [gap], subdomain)
    return gap.values()


def quantity_scale(seq: SequenceHandle, quantity: str, r: float,
                   subdomain=None) -> float:
    """L^r size of the limit quantity, used to normalize gap tolerances."""
    scale = _Scale(quantity, r)
    _sweep(seq, [scale], subdomain, members=False)
    return scale.value()


class _WeakProbe(_Measurement):
    """Tensor Legendre test fields times a boundary cutoff, on the whole mesh.

    Per block, the (degree+1)^2 test fields times w * cutoff form a
    C x (degree+1)^2 Khatri-Rao dictionary.  The members' five difference
    rows each (Re/Im f_z, Re/Im f_zbar and J against the limit) fill a
    (5 PROBE_GROUP) x C buffer, and one matrix product per PROBE_GROUP
    members adds the block to their pairings."""

    def __init__(self, mesh: Mesh, degree: int, n_members: int):
        self.box = (mesh.nodes.real.min(), mesh.nodes.real.max(),
                    mesh.nodes.imag.min(), mesh.nodes.imag.max())
        self.disk = mesh.kind == "disk"
        self.degree, self.n = degree, n_members
        self.pairings = np.zeros((5 * n_members, (degree + 1) ** 2))
        self.norms = np.zeros((degree + 1) ** 2)
        self.rows = np.empty(0)

    def limit(self, block, lim):
        flat = block.pts.ravel()
        x, y = flat.real, flat.imag
        x0, x1, y0, y1 = self.box
        if self.disk:
            cut = np.maximum(0.0, 1.0 - np.abs(flat) ** 2)
        else:
            cut = np.maximum(0.0, (x - x0) * (x1 - x) * (y - y0) * (y1 - y))
        vx = np.polynomial.legendre.legvander(2.0 * (x - x0) / (x1 - x0) - 1.0, self.degree)
        vy = np.polynomial.legendre.legvander(2.0 * (y - y0) / (y1 - y0) - 1.0, self.degree)
        self.kr = (vx[:, :, None] * vy[:, None, :]).reshape(flat.size, -1)
        self.kr *= (block.w.ravel() * cut)[:, None]
        self.norms += np.abs(self.kr).sum(axis=0)  # int |phi|: w and the cutoff are >= 0
        if self.rows.shape[1:] != block.pts.shape:
            self.rows = np.empty((5 * min(self.n, PROBE_GROUP),) + block.pts.shape)

    def member(self, block, j, f, lim):
        a, b = f.whole, lim.whole
        k = j % PROBE_GROUP  # the member's slot in the row buffer
        rows = self.rows[5 * k:5 * k + 5]
        np.subtract(a.fz.real, b.fz.real, out=rows[0])
        np.subtract(a.fz.imag, b.fz.imag, out=rows[1])
        np.subtract(a.fzbar.real, b.fzbar.real, out=rows[2])
        np.subtract(a.fzbar.imag, b.fzbar.imag, out=rows[3])
        np.subtract(a.jac, b.jac, out=rows[4])
        if k == PROBE_GROUP - 1 or j == self.n - 1:
            filled = self.rows[:5 * (k + 1)].reshape(5 * (k + 1), -1)
            self.pairings[5 * (j - k):5 * (j + 1)] += filled @ self.kr

    def residuals(self) -> List[float]:
        """Per member, the largest normalized |integral (q_member - q_limit) phi|
        over the dictionary, q in {Re f_z, Im f_z, Re f_zbar, Im f_zbar, J}."""
        ratios = np.abs(self.pairings) / np.maximum(self.norms, 1e-300)
        row_max = np.max(ratios, axis=1).reshape(self.n, 5)
        return [max([0.0] + row) for row in row_max.tolist()]


def weak_probe(seq: SequenceHandle, dictionary_degree: int = 6) -> List[float]:
    """Weak-convergence proxy against smooth polynomial test fields.

    For each member, the residual is the largest normalized pairing
    |integral (q_j - q_limit) phi| over the dictionary, for q in
    {f_z, f_zbar, J}.  Test fields are tensor Legendre polynomials up to
    the given degree times a boundary cutoff.  The probe always integrates
    over the whole mesh, also under a `radon_riesz_diagnose` subdomain.
    """
    probe = _WeakProbe(seq.mesh, dictionary_degree, len(seq))
    _sweep(seq, [probe])
    return probe.residuals()


class _Energy(_Measurement):
    """Energy of Phi^power (times the per-triangle eta, if any) on the
    subdomain, for the limit and each member.  Block energies are summed by
    `quadrature_sum` too, so one inf term anywhere makes the energy inf."""

    def __init__(self, seq: SequenceHandle, spec: FunctionalSpec, power: float = 1.0):
        self.spec, self.power = spec, power
        self.etas = [seq.eta_limit] + (list(seq.eta_members) if seq.eta_members is not None
                                       else [None] * len(seq))  # index j + 1
        self.blocks: List[List[float]] = [[] for _ in self.etas]

    def _add(self, block, j, part):
        vals = part.phi(self.spec)
        if self.power != 1.0:
            with np.errstate(over="ignore"):
                vals = vals ** self.power
        eta = self.etas[j + 1]
        if eta is not None:
            vals = vals * np.asarray(eta)[block.tris][block.sub][:, None]
        self.blocks[j + 1].append(quadrature_sum(vals, self.weights))

    def limit(self, block, lim):
        self.weights = block.w_sub * weight_values(self.spec, block.pts[block.sub])
        self._add(block, -1, lim.part)

    def member(self, block, j, f, lim):
        self._add(block, j, f.part)

    def values(self) -> List[float]:
        """The limit's energy, then each member's."""
        return [quadrature_sum(np.array(parts), 1.0) for parts in self.blocks]


class _PhiGap(_Measurement):
    """L^p distance of each member's Phi to the limit's; inf once a
    difference is not finite."""

    def __init__(self, spec: FunctionalSpec, p: float, n_members: int):
        self.spec, self.p = spec, p
        self.sums = np.zeros(n_members)

    def member(self, block, j, f, lim):
        diff = np.abs(f.part.phi(self.spec) - lim.part.phi(self.spec))
        self.sums[j] += (_lr_sum(diff, block.w_sub, self.p)
                         if np.all(np.isfinite(diff)) else np.inf)

    def values(self) -> List[float]:
        return [float(s ** (1.0 / self.p)) for s in self.sums]


class _Pointwise(_Measurement):
    """Median and 95th percentile of |q(last member) - q(limit)| over the
    whole mesh, for q in df, jac and mu."""

    def __init__(self, n_members: int):
        self.last = n_members - 1
        self.pieces: Dict[str, List[np.ndarray]] = {q: [] for q in ("df", "jac", "mu")}

    def member(self, block, j, f, lim):
        if j == self.last:
            for qname, pieces in self.pieces.items():
                d, ok = _quantity_diff(qname, f.whole, lim.whole)
                # a copy, like d[ok]: views that keep every block's d alive
                # fragment the heap (peak RSS ~1 MiB higher on 64 blocks)
                pieces.append(d.flatten() if ok is None else d[ok])

    def values(self) -> Dict[str, dict]:
        out = {}
        for qname, pieces in self.pieces.items():
            d = np.concatenate(pieces)
            out[qname] = {"median": float(np.median(d)),
                          "p95": float(np.percentile(d, 95.0))}
        return out


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
    bad_area = float(np.sum(seq.mesh.areas[wirtinger_derivatives(seq.limit).jac <= 0]))
    energies = [_Energy(seq, spec) for spec in specs]
    _sweep(seq, energies)
    results = []
    for energy in energies:
        limit_energy, *members = energy.values()
        tail = members[tail_slice(len(members))]
        liminf = float(np.min(tail)) if tail else np.inf
        scale = max(1.0, abs(limit_energy)) if np.isfinite(limit_energy) else 1.0
        holds = bool(limit_energy <= liminf + 1e-8 * scale)
        results.append(LscResult(liminf, limit_energy, holds, members, bad_area))
    return results


def lsc_check(spec: FunctionalSpec, seq: SequenceHandle) -> LscResult:
    """Lower-semicontinuity measurement: limit energy vs tail-liminf of members."""
    return lsc_checks([spec], seq)[0]


def sobolev_norm(mapping: MappingField, q: float = 2.0, subdomain=None) -> float:
    """Discrete W^{1,q} norm: node-lumped value part plus per-element |Df| part."""
    if q < 1:
        warnings.warn("q < 1 gives a quasi-norm", stacklevel=2)
    mesh = mapping.mesh
    mask = _subdomain_index(mesh, subdomain)
    derived = wirtinger_derivatives(mapping)
    lumped = np.zeros(mesh.n_nodes)
    np.add.at(lumped, mesh.triangles[mask].ravel(),
              np.repeat(mesh.areas[mask] / 3.0, 3))
    value_part = float(np.sum(np.abs(mapping.values) ** q * lumped))
    dnorm = df_norm(derived, "op")
    deriv_part = float(np.sum(dnorm[mask] ** q * mesh.areas[mask]))
    return (value_part + deriv_part) ** (1.0 / q)


def orlicz_gauge(t: np.ndarray) -> np.ndarray:
    """The Orlicz function t^2 / log(e + t)."""
    t = np.asarray(t, dtype=float)
    return t ** 2 / np.log(np.e + t)


def orlicz_norm(mapping: MappingField, subdomain=None) -> float:
    """Luxemburg norm of |Df|: the lambda > 0 with int P(|Df|/lambda) = 1."""
    mesh = mapping.mesh
    mask = _subdomain_index(mesh, subdomain)
    derived = wirtinger_derivatives(mapping)
    dnorm = df_norm(derived, "op")[mask]
    areas = mesh.areas[mask]
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
    hypothesis_rel: float = setting(float, 1e-3)  # energy-convergence gap, relative to scale
    conclusion_rel: float = setting(float, 1e-2)  # strong-convergence tails, relative to scale
    weak_rel: float = setting(float, 2e-2)        # weak-probe last residual, relative to scale


@dataclass
class ConvergenceReport:
    verdict: str
    decided_by: str                   # first failed hypothesis, or "all"
    energy_convergence: bool
    energy_gap: float                 # PhiConv gap at exponent p_RR
    phi_energy_gap: float             # plain-Phi energy gap (Lemma-1 scale)
    energy_series: List[float]
    limit_energy: float
    weak_probe_ok: bool
    weak_probe_residuals: List[float]
    jacobian_ok: bool
    jacobian_bad_fraction: float
    convexity_ok: bool
    monotonicity_ok: bool
    conclusion_gaps: Dict[str, dict]
    pointwise_proxy: Dict[str, dict]
    config: Dict

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ConfigurationError(f"invalid verdict {self.verdict!r}")

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "decided_by": self.decided_by,
            "hypotheses": {
                "energy_convergence": self.energy_convergence,
                "energy_gap": self.energy_gap,
                "phi_energy_gap": self.phi_energy_gap,
                "weak_probe_ok": self.weak_probe_ok,
                "jacobian_ok": self.jacobian_ok,
                "jacobian_bad_fraction": self.jacobian_bad_fraction,
                "convexity_ok": self.convexity_ok,
                "monotonicity_ok": self.monotonicity_ok,
            },
            "energy_series": self.energy_series,
            "limit_energy": self.limit_energy,
            "weak_probe_residuals": self.weak_probe_residuals,
            "conclusions": self.conclusion_gaps,
            "pointwise_proxy": self.pointwise_proxy,
            "config": self.config,
        }


def gaps_to_csv(report: ConvergenceReport, path) -> None:
    """Gap-vs-j series for plotting."""
    names = sorted(report.conclusion_gaps)
    write_columns(path, ["j", "energy", "weak_residual"] + [f"gap_{n}" for n in names],
                  [np.arange(1, len(report.energy_series) + 1), report.energy_series,
                   report.weak_probe_residuals]
                  + [report.conclusion_gaps[n]["series"] for n in names])


def radon_riesz_diagnose(spec: FunctionalSpec, seq: SequenceHandle,
                         p_RR: float, s: Optional[float] = None,
                         r_list: Optional[Dict[str, float]] = None,
                         tolerances: Tolerances = Tolerances(),
                         dictionary_degree: int = 6,
                         probe_samples: int = 20000,
                         subdomain=None) -> ConvergenceReport:
    """Hypothesis verification and conclusion measurement for the strong-
    convergence theorem, on one sequence with one functional family.

    The quadrature is built once and swept block by block, so every
    quadrature point of every member is sampled once; the weak probe and
    the pointwise proxy use the whole mesh, every other measurement the
    subdomain.
    """
    if p_RR <= 1.0:
        raise ConfigurationError("p_RR must exceed 1")
    if s is None:
        s = default_s(p_RR)
    if not (0.0 < s < 1.0 - 1.0 / p_RR):
        raise ConfigurationError(f"s must lie in (0, 1 - 1/p_RR), got {s}")
    if r_list is None:
        r_list = {"df": 1.5, "jac": 0.5, "mu": 1.0}
    if not isinstance(r_list, dict):
        raise ConfigurationError("r_list must map quantity names to exponents")
    for qname, r in r_list.items():
        if qname not in QUANTITIES:
            raise ConfigurationError(f"unknown quantity {qname!r} in r_list")
        if not (isinstance(r, (int, float)) and r > 0):
            raise ConfigurationError(f"bad exponent for {qname!r}: {r}")

    # (a) structural conditions on the family: convexity of Phi and Phi*y^s,
    # monotone approach of the truncations to the exponential
    conv = convexity_probe(spec, s, probe_samples, seed=0)
    if spec.family == "trunc_exp":
        mono = monotone_truncation_check(spec.p, max(spec.trunc_n, 1), probe_samples, seed=0)
        monotonicity_ok = mono.ok
    elif spec.family == "exp_p":
        mono = monotone_truncation_check(spec.p, 20, probe_samples, seed=0)
        monotonicity_ok = mono.ok
    else:
        monotonicity_ok = True  # constant family sequence is trivially monotone

    # Energy convergence is measured for Phi^{p_RR} (weighted when eta fields
    # are present); p enters every family as the rate, so the exponent
    # substitutes directly, except for the rate-free quadratic family where
    # it acts as an outer power
    if spec.family == "dirichlet":
        rr_spec, rr_power = spec, p_RR
    else:
        rr_spec, rr_power = spec.with_(p=p_RR), 1.0

    # one sweep: each field's sample on a block feeds every measurement
    n = len(seq)
    probe = _WeakProbe(seq.mesh, dictionary_degree, n)
    series = _Energy(seq, rr_spec, rr_power)
    phi_energies = series if (rr_spec, rr_power) == (spec, 1.0) else _Energy(seq, spec)
    exponents = {"phi": p_RR, **r_list}
    gaps = {"phi": _PhiGap(spec, p_RR, n),
            **{q: _LrGap(q, r, n) for q, r in r_list.items()}}
    scales = {q: _Scale(q, r) for q, r in r_list.items()}
    weak_scale = _Scale("df", 1.0)
    pointwise = _Pointwise(n)
    measurements = [probe, series, pointwise, weak_scale, *gaps.values(), *scales.values()]
    if phi_energies is not series:
        measurements.append(phi_energies)
    _sweep(seq, measurements, subdomain)

    # (b) weak-limit hypothesis
    residuals = probe.residuals()
    weak_ok = bool(residuals[-1] <= tolerances.weak_rel * max(weak_scale.value(), 1e-12)
                   and residuals[-1] <= 0.5 * max(residuals))

    # (c) energy convergence
    limit_energy, *energy_series = series.values()
    e_scale = max(1.0, abs(limit_energy)) if np.isfinite(limit_energy) else 1.0
    energy_gap = float(abs(energy_series[-1] - limit_energy)) \
        if np.isfinite(limit_energy) and np.isfinite(energy_series[-1]) else np.inf
    energy_ok = bool(energy_gap <= tolerances.hypothesis_rel * e_scale)

    phi_limit, *phi_series = phi_energies.values()
    phi_energy_gap = float(abs(phi_series[-1] - phi_limit)) \
        if np.isfinite(phi_limit) and np.isfinite(phi_series[-1]) else np.inf

    # (d) limit Jacobian positivity
    bad_area = np.sum(seq.mesh.areas[wirtinger_derivatives(seq.limit).jac <= 0])
    bad_fraction = float(bad_area / seq.mesh.total_area)
    jac_ok = bad_fraction == 0.0

    # (e) conclusion measurements
    scale_values = {"phi": max(abs(limit_energy) ** (1.0 / p_RR), 1e-12)
                    if np.isfinite(limit_energy) else 1e-12}
    scale_values.update({q: max(scale.value(), 1e-12) for q, scale in scales.items()})
    conclusion_gaps = {q: _gap_record(gaps[q].values(), r, scale_values[q],
                                      tolerances.conclusion_rel)
                       for q, r in exponents.items()}
    tails_ok = all(gap["ok"] for gap in conclusion_gaps.values())

    # the first failed hypothesis decides; failures past the Jacobian are
    # not conclusive
    hypotheses = (("energy_convergence", energy_ok, "EnergyGap"),
                  ("weak_probe", weak_ok, "WeakProbeFail"),
                  ("jacobian", jac_ok, "JacobianDegenerate"),
                  ("convexity", conv.ok, "Inconclusive"),
                  ("monotonicity", monotonicity_ok, "Inconclusive"),
                  ("conclusion_tails", tails_ok, "Inconclusive"))
    decided_by, verdict = next(((name, v) for name, ok, v in hypotheses if not ok),
                               ("all", "StrongConvergence"))

    return ConvergenceReport(
        verdict=verdict,
        decided_by=decided_by,
        energy_convergence=energy_ok,
        energy_gap=energy_gap,
        phi_energy_gap=phi_energy_gap,
        energy_series=energy_series,
        limit_energy=limit_energy,
        weak_probe_ok=weak_ok,
        weak_probe_residuals=residuals,
        jacobian_ok=jac_ok,
        jacobian_bad_fraction=bad_fraction,
        convexity_ok=conv.ok,
        monotonicity_ok=monotonicity_ok,
        conclusion_gaps=conclusion_gaps,
        pointwise_proxy=pointwise.values(),
        config={"spec": spec.to_json(), "p_RR": p_RR, "s": s,
                "r_list": dict(r_list), "dictionary_degree": dictionary_degree,
                "tolerances": tolerances.to_json(), "n_members": n},
    )


def _gap_record(series: Sequence[float], r: float, scale: float, tol_rel: float) -> dict:
    tail = float(series[-1])
    return {"r": float(r), "series": [float(v) for v in series], "tail": tail,
            "scale": float(scale), "ok": bool(tail <= tol_rel * scale)}
