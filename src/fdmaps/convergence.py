"""Strong-vs-weak convergence diagnostics for sequences of discrete mappings.

Given a sequence with a designated limit on a common mesh, this module
measures energy convergence, weak convergence against a polynomial test
dictionary, lower semicontinuity, and the strong-convergence gaps of the
derivatives, Jacobians and Beltrami coefficients, and combines them into a
single verdict.

Closed-form sequence members carry exact derivative callables; integrals
for those use a high-order per-element quadrature so that oscillatory
members are resolved well below the mesh scale.  Plain nodal members fall
back to the exact per-element-constant (centroid) path.

`radon_riesz_diagnose` builds the quadrature once and makes one pass over
the members: each member's (f_z, f_zbar, J) is sampled once and feeds every
measurement (weak probe, energy series, Phi-gap, L^r gaps, pointwise proxy).
The standalone `weak_probe`, `lr_gap`, `quantity_scale` and `lsc_check`
call the same per-sample helpers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .fields import (DerivedField, MappingField, squared_moduli, wirtinger_derivatives,
                     write_columns)
from .functionals import (FunctionalSpec, convexity_probe, df_norm, integrand,
                          monotone_truncation_check, quadrature_sum, weight_values)
from .geometry import Mesh
from .quadrature import mesh_quad_points

ANALYTIC_QUAD_N = 8  # 64 points per triangle

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
    _derived_cache: Dict[int, DerivedField] = field(default_factory=dict, repr=False)

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

    @property
    def all_analytic(self) -> bool:
        return (self.limit.analytic is not None
                and all(m.analytic is not None for m in self.members))

    def derived(self, index: int) -> DerivedField:
        """P1 derived field of member `index`; index -1 is the limit."""
        if index not in self._derived_cache:
            m = self.limit if index == -1 else self.members[index]
            self._derived_cache[index] = wirtinger_derivatives(m)
        return self._derived_cache[index]


def _quad(seq: SequenceHandle):
    return mesh_quad_points(seq.mesh, ANALYTIC_QUAD_N if seq.all_analytic else 1)


def _derivatives_at(seq: SequenceHandle, index: int, pts: np.ndarray):
    """(fz, fzbar) arrays of shape pts.shape for member/limit."""
    if seq.all_analytic:
        m = seq.limit if index == -1 else seq.members[index]
        return m.analytic.derivatives(pts)
    d = seq.derived(index)
    return d.fz[:, None], d.fzbar[:, None]


class _Sample(NamedTuple):
    """f_z, f_zbar and J of one field, broadcast to the quadrature points."""
    fz: np.ndarray
    fzbar: np.ndarray
    jac: np.ndarray

    def restrict(self, sub) -> "_Sample":
        return _Sample(self.fz[sub], self.fzbar[sub], self.jac[sub])


def _sample(seq: SequenceHandle, index: int, pts: np.ndarray) -> _Sample:
    """The one derivative evaluation of member `index` (-1: the limit)."""
    fz, fzbar = (np.broadcast_to(a, pts.shape) for a in _derivatives_at(seq, index, pts))
    return _Sample(fz, fzbar, np.abs(fz) ** 2 - np.abs(fzbar) ** 2)


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


QUANTITIES = ("df", "fz", "fzbar", "jac", "mu")


def _quantity_diff(quantity: str, a: _Sample, b: _Sample):
    """Pointwise |q(a) - q(b)| and a validity mask."""
    valid = np.ones(a.fz.shape, dtype=bool)
    if quantity == "df":
        return np.sqrt(np.abs(a.fz - b.fz) ** 2 + np.abs(a.fzbar - b.fzbar) ** 2), valid
    if quantity == "fz":
        return np.abs(a.fz - b.fz), valid
    if quantity == "fzbar":
        return np.abs(a.fzbar - b.fzbar), valid
    if quantity == "jac":
        return np.abs(a.jac - b.jac), valid
    if quantity == "mu":
        ok = (a.fz != 0) & (b.fz != 0)
        mu_a = np.where(ok, a.fzbar / np.where(ok, a.fz, 1.0), 0.0)
        mu_b = np.where(ok, b.fzbar / np.where(ok, b.fz, 1.0), 0.0)
        return np.abs(mu_a - mu_b), ok
    raise ConfigurationError(f"unknown quantity {quantity!r}")


def _lr_norm(d: np.ndarray, ok, w: np.ndarray, r: float) -> float:
    return float(np.sum(np.where(ok, d, 0.0) ** r * w) ** (1.0 / r))


def _quantity_scale(quantity: str, r: float, limit: _Sample, w: np.ndarray) -> float:
    if quantity == "mu":
        # size of mu itself; comparing against a zero field would empty the
        # fz != 0 mask and floor the scale at nothing
        ok = limit.fz != 0
        d = np.zeros(ok.shape)
        np.divide(np.abs(limit.fzbar), np.abs(limit.fz), out=d, where=ok)
        return _lr_norm(d, ok, w, r)
    zero = _Sample(*(np.zeros_like(a) for a in limit))
    return _lr_norm(*_quantity_diff(quantity, limit, zero), w, r)


def lr_gap(seq: SequenceHandle, quantity: str, r: float,
           subdomain=None) -> List[float]:
    """Discrete L^r distance of a derived quantity to the limit, per member."""
    if quantity not in QUANTITIES:
        raise ConfigurationError(f"quantity must be one of {QUANTITIES}")
    if r <= 0:
        raise ConfigurationError("r must be positive")
    if quantity == "jac" and r >= 1.0:
        warnings.warn("Jacobian convergence is only guaranteed for r < 1", stacklevel=2)
    sub = _subdomain_index(seq.mesh, subdomain)
    pts, w = _quad(seq)
    limit = _sample(seq, -1, pts).restrict(sub)
    return [_lr_norm(*_quantity_diff(quantity, _sample(seq, j, pts).restrict(sub), limit),
                     w[sub], r)
            for j in range(len(seq))]


def quantity_scale(seq: SequenceHandle, quantity: str, r: float,
                   subdomain=None) -> float:
    """L^r size of the limit quantity, used to normalize gap tolerances."""
    sub = _subdomain_index(seq.mesh, subdomain)
    pts, w = _quad(seq)
    return _quantity_scale(quantity, r, _sample(seq, -1, pts).restrict(sub), w[sub])


class _WeakProbe:
    """Tensor Legendre test fields times a boundary cutoff, on the whole mesh.

    Pairings are summed CHUNK points at a time, one batched matrix product per
    chunk against the (degree+1) x N Vandermondes; the N x (degree+1)^2
    Khatri-Rao dictionary (~205 MB at N = 524,288) is never formed."""

    CHUNK = 4096  # keeps the (k, 7, CHUNK) block in cache; fastest of 2k-16k measured

    def __init__(self, mesh: Mesh, pts: np.ndarray, w: np.ndarray, degree: int):
        flat = pts.ravel()
        x, y = flat.real, flat.imag
        x0, x1 = mesh.nodes.real.min(), mesh.nodes.real.max()
        y0, y1 = mesh.nodes.imag.min(), mesh.nodes.imag.max()
        if mesh.kind == "disk":
            cut = np.maximum(0.0, 1.0 - np.abs(flat) ** 2)
        else:
            cut = np.maximum(0.0, (x - x0) * (x1 - x) * (y - y0) * (y1 - y))
        self.wc = w.ravel() * cut
        xi = 2.0 * (x - x0) / (x1 - x0) - 1.0
        psi = 2.0 * (y - y0) / (y1 - y0) - 1.0
        # legvander fills a (degree+1, N) array and returns its transpose
        self.VxT = np.polynomial.legendre.legvander(xi, degree).T
        self.VyT = np.polynomial.legendre.legvander(psi, degree).T
        self.chunks = [slice(i, i + self.CHUNK) for i in range(0, flat.size, self.CHUNK)]
        # int |phi| per field; w and the cutoff are nonnegative
        norms = sum(np.abs(self.VxT[:, c]) @ (self.wc[c] * np.abs(self.VyT[:, c])).T
                    for c in self.chunks)
        self.norms = np.maximum(norms, 1e-300)

    def residual(self, member: _Sample, limit: _Sample) -> float:
        """Largest normalized |integral (q_member - q_limit) phi| over the
        dictionary, q in {Re f_z, Im f_z, Re f_zbar, Im f_zbar, J}."""
        diffs = (member.fz - limit.fz, member.fzbar - limit.fzbar)
        parts = [p for dv in diffs for p in (dv.real, dv.imag)] + [member.jac - limit.jac]
        # a difference that is exactly zero pairs to exactly zero
        parts = [p for p in parts if np.any(p)]
        if not parts:
            return 0.0
        block = np.stack(parts).reshape(len(parts), -1)
        block *= self.wc
        pairings = sum((block[:, None, c] * self.VxT[:, c]) @ self.VyT[:, c].T
                       for c in self.chunks)
        return max([0.0] + [float(np.max(q)) for q in np.abs(pairings) / self.norms])


def weak_probe(seq: SequenceHandle, dictionary_degree: int = 6) -> List[float]:
    """Weak-convergence proxy against smooth polynomial test fields.

    For each member, the residual is the largest normalized pairing
    |integral (q_j - q_limit) phi| over the dictionary, for q in
    {f_z, f_zbar, J}.  Test fields are tensor Legendre polynomials up to
    the given degree times a boundary cutoff.  The probe always integrates
    over the whole mesh, also under a `radon_riesz_diagnose` subdomain.
    """
    pts, w = _quad(seq)
    probe = _WeakProbe(seq.mesh, pts, w, dictionary_degree)
    limit = _sample(seq, -1, pts)
    return [probe.residual(_sample(seq, j, pts), limit) for j in range(len(seq))]


def _phi(spec: FunctionalSpec, s: _Sample) -> np.ndarray:
    return integrand(spec, *squared_moduli(s.fz, s.fzbar))


def _member_energy(vals: np.ndarray, weights: np.ndarray, power: float = 1.0,
                   eta: Optional[np.ndarray] = None) -> float:
    """Energy from Phi-values at the quadrature points; `weights` include
    `weight_values`, `eta` is an optional per-triangle weight."""
    if power != 1.0:
        with np.errstate(over="ignore"):
            vals = vals ** power
    if eta is not None:
        vals = vals * eta[:, None]
    return quadrature_sum(vals, weights)


def _eta(seq: SequenceHandle, index: int, sub=slice(None)) -> Optional[np.ndarray]:
    eta = seq.eta_limit if index == -1 else (
        None if seq.eta_members is None else seq.eta_members[index])
    return None if eta is None else np.asarray(eta)[sub]


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


def lsc_check(spec: FunctionalSpec, seq: SequenceHandle) -> LscResult:
    """Lower-semicontinuity measurement: limit energy vs tail-liminf of members."""
    d_lim = seq.derived(-1)
    bad_area = float(np.sum(seq.mesh.areas[d_lim.jac <= 0]))
    pts, w = _quad(seq)
    weights = w * weight_values(spec, pts)
    limit_energy, *energies = [  # index -1 is the limit
        _member_energy(_phi(spec, _sample(seq, j, pts)), weights, eta=_eta(seq, j))
        for j in range(-1, len(seq))]
    tail = energies[tail_slice(len(energies))]
    liminf = float(np.min(tail)) if tail else np.inf
    scale = max(1.0, abs(limit_energy)) if np.isfinite(limit_energy) else 1.0
    holds = bool(limit_energy <= liminf + 1e-8 * scale)
    return LscResult(liminf, limit_energy, holds, energies, bad_area)


@dataclass(frozen=True)
class GoodSet:
    indices: np.ndarray
    complement_area: float


def good_set(derived_limit: DerivedField, phi_limit: np.ndarray, eps: float) -> GoodSet:
    """Triangles where eps < J < 1/eps and the integrand stays below 1/eps."""
    if not (0.0 < eps < 1.0):
        raise ConfigurationError("eps must lie in (0, 1)")
    phi_limit = np.asarray(phi_limit, dtype=float)
    ok = (derived_limit.jac > eps) & (derived_limit.jac < 1.0 / eps) & (phi_limit < 1.0 / eps)
    comp = float(np.sum(derived_limit.areas[~ok]))
    return GoodSet(np.where(ok)[0], comp)


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


def jacobian_area_identity(derived: DerivedField):
    """Integral of J over the disk against the target area pi."""
    if derived.mesh.kind != "disk":
        raise ConfigurationError("the area identity is asserted on the disk")
    return float(np.sum(derived.jac * derived.areas)), float(np.pi)


@dataclass(frozen=True)
class Tolerances:
    hypothesis_rel: float = 1e-3   # energy-convergence gap, relative to scale
    conclusion_rel: float = 1e-2   # strong-convergence tails, relative to scale
    weak_rel: float = 2e-2         # weak-probe last residual, relative to scale

    def to_json(self) -> dict:
        return {"hypothesis_rel": self.hypothesis_rel,
                "conclusion_rel": self.conclusion_rel,
                "weak_rel": self.weak_rel}


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

    The quadrature is built once and every member is sampled once; the
    weak probe and the pointwise proxy use the whole mesh, every other
    measurement the subdomain.
    """
    if p_RR <= 1.0:
        raise ConfigurationError("p_RR must exceed 1")
    if s is None:
        s = min(0.01, 0.5 * (1.0 - 1.0 / p_RR))
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

    sub = _subdomain_index(seq.mesh, subdomain)
    pts, w = _quad(seq)
    w_sub = w[sub]
    weights = w_sub * weight_values(spec, pts[sub])
    probe = _WeakProbe(seq.mesh, pts, w, dictionary_degree)
    limit = _sample(seq, -1, pts)
    limit_sub = limit.restrict(sub)
    phi_lim = _phi(spec, limit_sub)
    rr_lim = phi_lim if rr_spec == spec else _phi(rr_spec, limit_sub)

    # one pass: each member's sample feeds every accumulator
    exponents = {"phi": p_RR, **r_list}
    residuals, series = [], []
    gap_series: Dict[str, List[float]] = {q: [] for q in exponents}
    for j in range(len(seq)):
        member = _sample(seq, j, pts)
        member_sub = member.restrict(sub)
        residuals.append(probe.residual(member, limit))
        phi = _phi(spec, member_sub)
        rr = phi if rr_spec == spec else _phi(rr_spec, member_sub)
        series.append(_member_energy(rr, weights, rr_power, _eta(seq, j, sub)))
        diff = np.abs(phi - phi_lim)
        gap_series["phi"].append(_lr_norm(diff, True, w_sub, p_RR)
                                 if np.all(np.isfinite(diff)) else np.inf)
        for qname, r in r_list.items():
            gap_series[qname].append(
                _lr_norm(*_quantity_diff(qname, member_sub, limit_sub), w_sub, r))
    phi_series_last = _member_energy(phi, weights, 1.0, _eta(seq, len(seq) - 1, sub))
    pointwise = {}
    for qname in ("df", "jac", "mu"):  # the last member, on the whole mesh
        d, ok = _quantity_diff(qname, member, limit)
        pointwise[qname] = {"median": float(np.median(d[ok])),
                            "p95": float(np.percentile(d[ok], 95.0))}

    # (b) weak-limit hypothesis
    weak_scale = max(_quantity_scale("df", 1.0, limit_sub, w_sub), 1e-12)
    weak_ok = bool(residuals[-1] <= tolerances.weak_rel * weak_scale
                   and residuals[-1] <= 0.5 * max(residuals))

    # (c) energy convergence
    limit_energy = _member_energy(rr_lim, weights, rr_power, _eta(seq, -1, sub))
    e_scale = max(1.0, abs(limit_energy)) if np.isfinite(limit_energy) else 1.0
    energy_gap = float(abs(series[-1] - limit_energy)) \
        if np.isfinite(limit_energy) and np.isfinite(series[-1]) else np.inf
    energy_ok = bool(energy_gap <= tolerances.hypothesis_rel * e_scale)

    phi_limit = _member_energy(phi_lim, weights, 1.0, _eta(seq, -1, sub))
    phi_energy_gap = float(abs(phi_series_last - phi_limit)) \
        if np.isfinite(phi_limit) and np.isfinite(phi_series_last) else np.inf

    # (d) limit Jacobian positivity
    d_lim = seq.derived(-1)
    bad_fraction = float(np.sum(seq.mesh.areas[d_lim.jac <= 0]) / seq.mesh.total_area)
    jac_ok = bad_fraction == 0.0

    # (e) conclusion measurements
    scales = {"phi": max(abs(limit_energy) ** (1.0 / p_RR), 1e-12)
              if np.isfinite(limit_energy) else 1e-12}
    scales.update({q: max(_quantity_scale(q, r, limit_sub, w_sub), 1e-12)
                   for q, r in r_list.items()})
    conclusion_gaps = {q: _gap_record(gap_series[q], r, scales[q], tolerances.conclusion_rel)
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
        energy_series=series,
        limit_energy=limit_energy,
        weak_probe_ok=weak_ok,
        weak_probe_residuals=residuals,
        jacobian_ok=jac_ok,
        jacobian_bad_fraction=bad_fraction,
        convexity_ok=conv.ok,
        monotonicity_ok=monotonicity_ok,
        conclusion_gaps=conclusion_gaps,
        pointwise_proxy=pointwise,
        config={"spec": spec.to_json(), "p_RR": p_RR, "s": s,
                "r_list": dict(r_list), "dictionary_degree": dictionary_degree,
                "tolerances": tolerances.to_json(), "n_members": len(seq)},
    )


def _gap_record(series: Sequence[float], r: float, scale: float, tol_rel: float) -> dict:
    tail = float(series[-1])
    return {"r": float(r), "series": [float(v) for v in series], "tail": tail,
            "scale": float(scale), "ok": bool(tail <= tol_rel * scale)}
