"""Minimising sequences: Laplacian-preconditioned descent over nodal values.

Boundary values are held fixed.  The descent direction d solves
S_II d_I = g_I, with S_II the interior block of the P1 stiffness matrix and
g the exact energy gradient: the Sobolev (H^1) gradient of Neuberger, or the
Laplacian quadratic proxy of Kovalsky, Galun & Lipman (2016).  Its
iteration count does not grow under mesh refinement, whereas plain steepest
descent needs about four times as many iterations per level.  Steps are
accepted only if the energy strictly decreases and every triangle keeps its
Jacobian above a floor, so iterates stay orientation-preserving all along
the sequence.  The sparse Wirtinger operators and the factorisation of
S_II are built once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import Section, floats, integer, setting
from .errors import ConfigurationError, DomainError, InitializationError
from .fields import MappingField, derivative_coefficients, squared_moduli
from .functionals import FunctionalSpec, integrand, quadrature_sum, weight_values
from .geometry import Mesh

MIN_STEP = 1e-14


@dataclass(frozen=True)
class MinimizeConfig(Section, section="minimize"):
    """Descent settings.

    `initial_step` is the first trial step along the preconditioned
    direction S_II^{-1} g (not along g itself); each accepted step doubles
    the next trial and each rejected one multiplies it by
    `backtracking_factor`.  `gradient_tolerance` bounds the Euclidean norm
    of the unpreconditioned gradient.
    """
    max_iterations: int = setting(integer, 2000)
    gradient_tolerance: float = setting(float, 1e-8)
    initial_step: float = setting(float, 0.1)
    backtracking_factor: float = setting(float, 0.5)
    jacobian_floor: float = setting(float, 1e-8)

    def __post_init__(self):
        if self.max_iterations <= 0 or self.gradient_tolerance <= 0 \
                or self.initial_step <= 0 or self.jacobian_floor <= 0:
            raise ConfigurationError("minimize config fields must be positive")
        if not (0.0 < self.backtracking_factor < 1.0):
            raise ConfigurationError("backtracking_factor must lie in (0, 1)")


@dataclass(frozen=True)
class BoundaryData(Section, section="boundary"):
    kind: str = setting(str, "identity")  # "identity" | "circle_diffeo" | "explicit"
    # a_n, b_n of theta + sum a_n sin(n theta) + b_n cos(n theta)
    sin_coeffs: Sequence[float] = setting(floats, (), kinds=("circle_diffeo",))
    cos_coeffs: Sequence[float] = setting(floats, (), kinds=("circle_diffeo",))
    explicit_values: Optional[np.ndarray] = setting(  # [re, im] per boundary node
        lambda pairs: np.array([complex(x, y) for x, y in pairs]), None, key="values",
        kinds=("explicit",), dump=lambda values: [[v.real, v.imag] for v in values])

    def __post_init__(self):
        if self.kind not in ("identity", "circle_diffeo", "explicit"):
            raise ConfigurationError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "circle_diffeo":
            theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
            deriv = np.ones_like(theta)
            for n, a in enumerate(self.sin_coeffs, start=1):
                deriv += n * a * np.cos(n * theta)
            for n, b in enumerate(self.cos_coeffs, start=1):
                deriv -= n * b * np.sin(n * theta)
            if np.min(deriv) <= 0.0:
                raise ConfigurationError(
                    "circle_diffeo coefficients do not give a boundary homeomorphism")
        if self.kind == "explicit" and self.explicit_values is None:
            raise ConfigurationError("explicit boundary data requires values")

    def boundary_values(self, mesh: Mesh) -> np.ndarray:
        zb = mesh.nodes[mesh.boundary_nodes]
        if self.kind == "identity":
            return zb.copy()
        if self.kind == "circle_diffeo":
            theta = np.angle(zb)
            phi = theta.copy()
            for n, a in enumerate(self.sin_coeffs, start=1):
                phi += a * np.sin(n * theta)
            for n, b in enumerate(self.cos_coeffs, start=1):
                phi += b * np.cos(n * theta)
            return np.exp(1j * phi)
        values = np.asarray(self.explicit_values, dtype=complex)
        if len(values) != len(zb):
            raise ConfigurationError("explicit boundary values length mismatch")
        return values


def stiffness_matrix(mesh: Mesh) -> sp.csr_matrix:
    """P1 Laplace stiffness: S_ij = integral grad phi_i . grad phi_j."""
    tri = mesh.triangles
    z = mesh.nodes[tri]
    areas = mesh.areas
    # grad of barycentric function i is perp of the opposite edge / (2A),
    # represented as a complex number
    g = np.stack([
        1j * (z[:, 2] - z[:, 1]),
        1j * (z[:, 0] - z[:, 2]),
        1j * (z[:, 1] - z[:, 0]),
    ], axis=1) / (2.0 * areas[:, None])
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tri[:, i])
            cols.append(tri[:, j])
            vals.append((g[:, i] * np.conj(g[:, j])).real * areas)
    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_nodes, mesh.n_nodes))
    return S.tocsr()


class _InteriorLaplacian:
    """The interior block S_II of the stiffness matrix, factorised once with `splu`.

    Solves run the real and imaginary parts of a complex right-hand side
    against the one factorisation.
    """

    def __init__(self, mesh: Mesh):
        S = stiffness_matrix(mesh)
        self.mesh = mesh
        self.interior = np.flatnonzero(~mesh.is_boundary())
        self.coupling = S[self.interior][:, mesh.boundary_nodes]
        self._lu = (spla.splu(S[self.interior][:, self.interior].tocsc())
                    if len(self.interior) else None)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is None:
            return np.zeros(0, dtype=complex)
        return self._lu.solve(rhs.real) + 1j * self._lu.solve(rhs.imag)

    def extend(self, boundary_values: np.ndarray) -> np.ndarray:
        """Nodal values of the discrete harmonic extension of boundary values."""
        values = np.zeros(self.mesh.n_nodes, dtype=complex)
        values[self.mesh.boundary_nodes] = boundary_values
        values[self.interior] = self._solve(-(self.coupling @ boundary_values))
        return values

    def precondition(self, grad: np.ndarray) -> np.ndarray:
        """Descent direction d with S_II d_I = g_I and d = 0 on the boundary."""
        direction = np.zeros_like(grad)
        direction[self.interior] = self._solve(grad[self.interior])
        return direction


def harmonic_extension(mesh: Mesh, boundary: BoundaryData) -> MappingField:
    """Discrete harmonic extension of the boundary data (the feasible start)."""
    values = _InteriorLaplacian(mesh).extend(boundary.boundary_values(mesh))
    return MappingField(mesh, values)


class _WirtingerOperators:
    """Mesh-static operators of one solve: fz = Dz @ w and fzbar = Dzbar @ w.

    Dz and Dzbar are sparse (m, n) with three nonzeros per row, the
    per-triangle coefficients of `derivative_coefficients`; the gradient
    applies their conjugate transposes.  Built per solve rather than cached
    on the mesh, so they live no longer than the descent that uses them.
    """

    def __init__(self, spec: FunctionalSpec, mesh: Mesh):
        a, b = derivative_coefficients(mesh)
        rows = np.repeat(np.arange(mesh.n_triangles), 3)
        cols = mesh.triangles.ravel()
        shape = (mesh.n_triangles, mesh.n_nodes)
        self.spec = spec
        self.mesh = mesh
        self.Dz = sp.csr_matrix((a.ravel(), (rows, cols)), shape=shape)
        self.Dzbar = sp.csr_matrix((b.ravel(), (rows, cols)), shape=shape)
        self.Dz_H = self.Dz.conj().T.tocsr()
        self.Dzbar_H = self.Dzbar.conj().T.tocsr()
        self.eta_areas = weight_values(spec, mesh.centroids()) * mesh.areas

    def gradient(self, values: np.ndarray, jacobian_floor: float = 0.0) -> np.ndarray:
        fz = self.Dz @ values
        fzbar = self.Dzbar @ values
        P, Q = squared_moduli(fz, fzbar)
        jac = P - Q
        if np.any(jac <= jacobian_floor):
            worst = int(np.argmin(jac))
            raise DomainError(
                f"gradient undefined: triangle {worst} has J = {jac[worst]:.6e} "
                f"<= floor {jacobian_floor:.3e}")
        _, dP, dQ = integrand(self.spec, P, Q, derivatives=True)
        # dE/d conj(w) summed over elements; the real gradient is twice that
        grad = 2.0 * (self.Dz_H @ (self.eta_areas * dP * fz)
                      + self.Dzbar_H @ (self.eta_areas * dQ * fzbar))
        grad[self.mesh.boundary_nodes] = 0.0
        return grad


def energy_gradient(spec: FunctionalSpec, mapping: MappingField,
                    jacobian_floor: float = 0.0) -> np.ndarray:
    """Exact gradient of the discrete energy wrt nodal values; zero on the boundary.

    Returned as complex numbers: grad_i = dE/du_i + i dE/dv_i for w_i = u_i + i v_i.
    """
    return _WirtingerOperators(spec, mapping.mesh).gradient(mapping.values, jacobian_floor)


def _energy_and_minjac(ops: _WirtingerOperators, values: np.ndarray):
    # module-level so that perfbench/tracing.py can count energy evaluations
    P, Q = squared_moduli(ops.Dz @ values, ops.Dzbar @ values)
    return quadrature_sum(integrand(ops.spec, P, Q), ops.eta_areas), float(np.min(P - Q))


@dataclass
class MinimizeResult:
    mapping: MappingField
    trace: List[dict] = field(default_factory=list)
    converged: bool = False
    stalled: bool = False

    @property
    def final_energy(self) -> float:
        return self.trace[-1]["energy"] if self.trace else np.inf


def minimize_energy(spec: FunctionalSpec, mesh: Mesh, boundary: BoundaryData,
                    config: MinimizeConfig,
                    initial: Optional[MappingField] = None) -> MinimizeResult:
    """Laplacian-preconditioned descent with backtracking; the trace is strictly decreasing."""
    ops = _WirtingerOperators(spec, mesh)
    laplacian = _InteriorLaplacian(mesh)
    if initial is None:
        values = laplacian.extend(boundary.boundary_values(mesh))
    else:
        values = initial.values.copy()
        values[mesh.boundary_nodes] = boundary.boundary_values(mesh)
    energy_val, min_jac = _energy_and_minjac(ops, values)
    if min_jac <= config.jacobian_floor or not np.isfinite(energy_val):
        raise InitializationError(
            f"initial map infeasible: min J = {min_jac:.3e}, energy = {energy_val}")

    result = MinimizeResult(MappingField(mesh, values))
    step = config.initial_step
    for it in range(config.max_iterations):
        grad = ops.gradient(values)
        grad_norm = float(np.linalg.norm(grad))
        result.trace.append({"iteration": it, "energy": energy_val,
                             "grad_norm": grad_norm, "min_J": min_jac, "step": step})
        if grad_norm < config.gradient_tolerance:
            result.converged = True
            break
        direction = laplacian.precondition(grad)
        accepted = False
        while step >= MIN_STEP:
            trial = values - step * direction
            e_trial, mj_trial = _energy_and_minjac(ops, trial)
            if mj_trial >= config.jacobian_floor and e_trial < energy_val:
                values, energy_val, min_jac = trial, e_trial, mj_trial
                accepted = True
                step *= 2.0
                break
            step *= config.backtracking_factor
        if not accepted:
            result.stalled = True
            break
    if result.trace and result.trace[-1]["energy"] != energy_val:
        grad_norm = float(np.linalg.norm(ops.gradient(values)))
        result.trace.append({"iteration": result.trace[-1]["iteration"] + 1,
                             "energy": energy_val, "grad_norm": grad_norm,
                             "min_J": min_jac, "step": step})
        result.converged = grad_norm < config.gradient_tolerance
    result.mapping = MappingField(mesh, values)
    return result


def prolong(mapping: MappingField, fine_mesh: Mesh) -> MappingField:
    """P1 interpolation of a coarse-mesh field onto its quadrisection."""
    nc = mapping.mesh.n_nodes
    if fine_mesh.n_nodes != nc + len(fine_mesh.parent_edges):
        raise ConfigurationError("fine mesh is not a refinement of the coarse mesh")
    values = np.empty(fine_mesh.n_nodes, dtype=complex)
    values[:nc] = mapping.values
    pe = fine_mesh.parent_edges
    values[nc:] = 0.5 * (mapping.values[pe[:, 0]] + mapping.values[pe[:, 1]])
    return MappingField(fine_mesh, values)


@dataclass(frozen=True)
class SweepEntry:
    trunc_n: int
    mapping: MappingField
    energy: float
    converged: bool
    stalled: bool


def truncation_sweep(p: float, n_list: Sequence[int], mesh: Mesh,
                     boundary: BoundaryData, config: MinimizeConfig,
                     jac_exp: float = 0.0, weight: str = "none") -> List[SweepEntry]:
    """Minimize the truncated-exponential family for each N, warm-starting in N."""
    if list(n_list) != sorted(set(int(n) for n in n_list)):
        raise ConfigurationError("N_list must be strictly increasing")
    entries: List[SweepEntry] = []
    warm: Optional[MappingField] = None
    for n in n_list:
        spec = FunctionalSpec(family="trunc_exp", p=p, trunc_n=int(n),
                              jac_exp=jac_exp, weight=weight)
        res = minimize_energy(spec, mesh, boundary, config, initial=warm)
        entries.append(SweepEntry(int(n), res.mapping, res.final_energy,
                                  res.converged, res.stalled))
        warm = res.mapping
    return entries
