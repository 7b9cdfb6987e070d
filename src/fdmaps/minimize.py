"""Minimising sequences: L-BFGS over nodal values, seeded by the Laplacian.

Boundary values are held fixed.  The descent is limited-memory BFGS in the
real inner product Re<a, b> on complex nodal vectors, with initial inverse
Hessian gamma * S_II^{-1}: S_II is the interior block of the P1 stiffness
matrix, the Sobolev (H^1) metric of Neuberger and the Laplacian quadratic
proxy of Kovalsky, Galun & Lipman (2016), and gamma = s^T y / y^T S_II^{-1} y
from the newest pair, as in the blended quasi-Newton method of Zhu, Bridson
& Kaufman (2018).  With an empty memory the direction is S_II^{-1} g, the
Sobolev gradient.  The iteration count does not grow under mesh
refinement.  Steps are accepted only if the energy strictly decreases and
every triangle keeps its Jacobian above a floor, so iterates stay
orientation-preserving all along the sequence.

Each iteration does one S_II solve, u = S_II^{-1} g for the new gradient:
as S_II^{-1} is linear, S_II^{-1} y = u_new - u_old, so each pair keeps
z = S_II^{-1} y for gamma and the two-loop recursion (Nocedal 1980)
applies S_II^{-1} to q = g - sum alpha_i y_i as u - sum alpha_i z_i.  The
accepted trial's one forward product gives (f_z, f_zbar) to both its
energy and its gradient, and the gradient is one adjoint product.  The
operators that depend only on the mesh -- the stacked sparse Wirtinger
matrix D = [Dz; Dzbar] built from `fields.derivative_coefficients` (the
pair behind every nodal f_z and f_zbar in the package), its conjugate
transpose, the stiffness matrix S and the factorisation of S_II -- are
built once per mesh of a solve or of a truncation sweep; the functional
enters only the energy and gradient evaluations.  This is the one module
that imports scipy.

The descent has one convergence test, on the L-BFGS decrement g^T d / 2,
an estimate of E - E* (Boyd & Vandenberghe 2004, 9.5.1).  With an empty
memory it is half the squared Sobolev-dual norm g^T S_II^{-1} g, which
does not shrink under refinement, so a tolerance decides alike on every
mesh.  A descent ends with one `stop_reason`: `gradient_tolerance` (the
decrement is at most max(tol^2 / 2, PRECISION_FLOOR * |E|), the floor
being the rounding of E), `max_iterations`, or `line_search_failure` (no
admissible step down to MIN_STEP while the decrement is above that).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import Section, floats, integer, one_of, real, setting
from .errors import ConfigurationError, DomainError, InitializationError
from .fields import MappingField, derivative_coefficients, squared_moduli
from .functionals import FunctionalSpec, integrand, quadrature_sum, weight_values
from .geometry import Mesh

INITIAL_STEP = 0.1  # first trial step while the memory is empty
BACKTRACKING = 0.5  # step factor per rejected trial
MIN_STEP = 1e-14
PRECISION_FLOOR = 1e-14  # stop once the decrement is below this fraction of |E|
JACOBIAN_FLOOR = 1e-8  # every accepted iterate keeps J above this on each triangle
MEMORY = 8  # (s, y) pairs kept by the L-BFGS descent


@dataclass(frozen=True)
class MinimizeConfig(Section, section="minimize"):
    """Descent settings.

    The step schedule is fixed: the first trial step is INITIAL_STEP while
    the L-BFGS memory is empty, along the preconditioned direction
    S_II^{-1} g (not along g itself), and 1 with pairs in memory; each
    rejected trial multiplies the step by BACKTRACKING.
    `gradient_tolerance` bounds sqrt(g^T d), the gradient's norm in the
    metric of the L-BFGS model, which is S_II^{-1} while the memory is
    empty; PRECISION_FLOOR * |E| bounds the decrement from below.
    """
    max_iterations: int = setting(integer, 2000)
    gradient_tolerance: float = setting(real, 1e-8)

    def __post_init__(self):
        if not (self.max_iterations > 0 and self.gradient_tolerance > 0):
            raise ConfigurationError("minimize config fields must be positive")


BOUNDARY_KINDS = ("identity", "circle_diffeo", "explicit")


@dataclass(frozen=True)
class BoundaryData(Section, section="boundary"):
    kind: str = setting(one_of(*BOUNDARY_KINDS), "identity")
    # a_n, b_n of theta + sum a_n sin(n theta) + b_n cos(n theta)
    sin_coeffs: Sequence[float] = setting(floats, (), kinds=("circle_diffeo",))
    cos_coeffs: Sequence[float] = setting(floats, (), kinds=("circle_diffeo",))
    explicit_values: Optional[np.ndarray] = setting(  # [re, im] per boundary node
        lambda pairs: np.array([complex(real(x), real(y)) for x, y in pairs]), None, key="values",
        kinds=("explicit",), dump=lambda values: [[v.real, v.imag] for v in values])

    def __post_init__(self):
        if self.kind not in BOUNDARY_KINDS:
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


class _MeshOperators:
    """The functional-free operators of one mesh: the stacked Wirtinger matrix
    D = [Dz; Dzbar] and its conjugate transpose D_H, the stiffness matrix S
    and the `splu` factor of its interior block S_II.

    D is a CSR matrix whose rows t and m + t (m triangles) hold triangle
    t's coefficients of `fields.derivative_coefficients` in local node
    order, so one product sums the same three terms in the same order as
    `wirtinger_derivatives` and gives the same bits of f_z and f_zbar; the
    gradient is one product with D_H.  For real u, |grad u|^2 = 4 |u_z|^2,
    so S = 4 Re(Dz^H diag(areas) Dz).  S and the factor are built on first
    use.  Built per solve or sweep rather than cached on the mesh, so they
    live no longer than the descents that use them.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.interior = np.flatnonzero(~mesh.is_boundary())
        # CSR straight from the triangles keeps each row in local node order;
        # a COO build would sort it by node and change the sums' last bits
        m = mesh.n_triangles
        self.D = sp.csr_matrix(
            (np.concatenate([c.ravel() for c in derivative_coefficients(mesh)]),
             np.tile(mesh.triangles.ravel(), 2), np.arange(0, 6 * m + 1, 3)),
            shape=(2 * m, mesh.n_nodes))
        self.D_H = self.D.conj().T.tocsr()

    def fields(self, values: np.ndarray):
        """(f_z, f_zbar, P, Q) per triangle of nodal values, from one product with D."""
        f = self.D @ values
        fz, fzbar = f[:self.mesh.n_triangles], f[self.mesh.n_triangles:]
        return (fz, fzbar, *squared_moduli(fz, fzbar))

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        Dz = self.D[:self.mesh.n_triangles]
        return 4.0 * (Dz.conj().T.tocsr() @ sp.diags(self.mesh.areas) @ Dz).real

    @cached_property
    def _lu(self):
        return spla.splu(self.stiffness[self.interior][:, self.interior].tocsc())

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """S_II^{-1} rhs for a complex interior vector, as one two-column solve."""
        if not len(self.interior):
            return np.zeros(0, dtype=complex)
        x = self._lu.solve(np.column_stack([rhs.real, rhs.imag]))
        return x[:, 0] + 1j * x[:, 1]

    def extend(self, boundary_values: np.ndarray) -> np.ndarray:
        """Nodal values of the discrete harmonic extension, w_B - S_II^{-1} (S w_B)_I."""
        values = np.zeros(self.mesh.n_nodes, dtype=complex)
        values[self.mesh.boundary_nodes] = boundary_values
        values[self.interior] = -self._solve((self.stiffness @ values)[self.interior])
        return values

    def precondition(self, grad: np.ndarray) -> np.ndarray:
        """Descent direction d with S_II d_I = g_I and d = 0 on the boundary."""
        direction = np.zeros_like(grad)
        direction[self.interior] = self._solve(grad[self.interior])
        return direction


def harmonic_extension(mesh: Mesh, boundary: BoundaryData) -> MappingField:
    """Discrete harmonic extension of the boundary data (the feasible start)."""
    return MappingField(mesh, _MeshOperators(mesh).extend(boundary.boundary_values(mesh)))


def _eta_areas(spec: FunctionalSpec, mesh: Mesh) -> np.ndarray:
    """Quadrature weights of the energy: the weight at each centroid times the area."""
    return weight_values(spec, mesh.centroids()) * mesh.areas


def _gradient(ops: _MeshOperators, spec: FunctionalSpec, eta_areas: np.ndarray,
              fields) -> np.ndarray:
    """The gradient at the nodal values whose `ops.fields` are `fields`."""
    fz, fzbar, P, Q = fields
    jac = P - Q
    if np.any(jac <= 0.0):
        worst = int(np.argmin(jac))
        raise DomainError(f"gradient undefined: triangle {worst} has J = {jac[worst]:.6e} <= 0")
    _, dP, dQ = integrand(spec, P, Q, derivatives=True)
    # dE/d conj(w) summed over elements; the real gradient is twice that
    grad = 2.0 * (ops.D_H @ np.concatenate((eta_areas * dP * fz, eta_areas * dQ * fzbar)))
    grad[ops.mesh.boundary_nodes] = 0.0
    return grad


def energy_gradient(spec: FunctionalSpec, mapping: MappingField) -> np.ndarray:
    """Exact gradient of the discrete energy wrt nodal values; zero on the boundary;
    a DomainError where some J <= 0.

    Returned as complex numbers: grad_i = dE/du_i + i dE/dv_i for w_i = u_i + i v_i.
    """
    mesh = mapping.mesh
    ops = _MeshOperators(mesh)
    return _gradient(ops, spec, _eta_areas(spec, mesh), ops.fields(mapping.values))


def _energy_and_minjac(ops: _MeshOperators, spec: FunctionalSpec, eta_areas: np.ndarray,
                       values: np.ndarray):
    """(energy, min J, fields) at nodal values; the fields serve the gradient."""
    # module-level so that perfbench/tracing.py can count energy evaluations
    fields = ops.fields(values)
    P, Q = fields[2:]
    return quadrature_sum(integrand(spec, P, Q), eta_areas), float(np.min(P - Q)), fields


@dataclass
class MinimizeResult:
    mapping: MappingField
    trace: List[dict]
    stop_reason: str  # gradient_tolerance | max_iterations | line_search_failure

    @property
    def stalled(self) -> bool:  # read by the perfbench ladder workload and tracer
        return self.stop_reason == "line_search_failure"

    @property
    def final_energy(self) -> float:
        return self.trace[-1]["energy"] if self.trace else np.inf


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re<a, b>: the Euclidean inner product of the real and imaginary parts.

    Summed pairwise by numpy rather than by a BLAS dot, whose threads can
    cost a millisecond per call to wake and whose bits depend on their
    number; this sum gives the same bits at any BLAS thread count."""
    return float(np.add.reduce(a.view(float) * b.view(float)))


def _lbfgs_direction(grad: np.ndarray, sobolev: np.ndarray, memory) -> np.ndarray:
    """Two-loop recursion over pairs (s, y, 1/s^T y, gamma, z = S_II^{-1} y),
    oldest first, given sobolev = S_II^{-1} grad.

    The initial inverse Hessian is gamma * S_II^{-1} with the newest gamma;
    it maps q = grad - sum alpha_i y_i to gamma (sobolev - sum alpha_i z_i),
    so the recursion makes no solve and an empty memory gives S_II^{-1} g.
    """
    q = grad.copy()
    direction = sobolev.copy()
    alphas = []
    for s, y, rho, _, z in reversed(memory):
        alphas.append(rho * _dot(s, q))
        q -= alphas[-1] * y
        direction -= alphas[-1] * z
    if memory:
        direction *= memory[-1][3]  # gamma of the newest pair
    for (s, y, rho, _, _), alpha in zip(memory, reversed(alphas)):
        direction += (alpha - rho * _dot(y, direction)) * s
    return direction


def minimize_energy(spec: FunctionalSpec, mesh: Mesh, boundary: BoundaryData,
                    config: MinimizeConfig,
                    initial: Optional[MappingField] = None) -> MinimizeResult:
    """Laplacian-seeded L-BFGS with backtracking; the trace is strictly decreasing."""
    return _minimize(_MeshOperators(mesh), spec, boundary, config, initial)


def _minimize(ops: _MeshOperators, spec: FunctionalSpec, boundary: BoundaryData,
              config: MinimizeConfig, initial: Optional[MappingField]) -> MinimizeResult:
    """`minimize_energy` on the operators of its mesh, which may be shared."""
    mesh = ops.mesh
    eta_areas = _eta_areas(spec, mesh)
    if initial is None:
        values = ops.extend(boundary.boundary_values(mesh))
    else:
        values = initial.values.copy()
        values[mesh.boundary_nodes] = boundary.boundary_values(mesh)
    energy_val, min_jac, fields = _energy_and_minjac(ops, spec, eta_areas, values)
    if min_jac <= JACOBIAN_FLOOR or not np.isfinite(energy_val):
        raise InitializationError(
            f"initial map infeasible: min J = {min_jac:.3e}, energy = {energy_val}")

    trace = []
    memory = deque(maxlen=MEMORY)
    grad = _gradient(ops, spec, eta_areas, fields)
    sobolev = ops.precondition(grad)  # the one S_II solve per gradient
    for it in range(config.max_iterations + 1):
        direction = _lbfgs_direction(grad, sobolev, memory)
        gd = _dot(grad, direction)
        if gd <= 0.0:  # not a descent direction: restart
            memory.clear()
            direction = _lbfgs_direction(grad, sobolev, memory)
            gd = _dot(grad, direction)
        step = 1.0 if memory else INITIAL_STEP
        trace.append({"iteration": it, "energy": energy_val,
                      "grad_norm": float(np.sqrt(max(gd, 0.0))), "min_J": min_jac,
                      "step": step})
        if 0.5 * gd <= max(0.5 * config.gradient_tolerance ** 2,
                           PRECISION_FLOOR * abs(energy_val)):
            stop_reason = "gradient_tolerance"
        elif it == config.max_iterations:
            stop_reason = "max_iterations"
        elif (accepted := _line_search(ops, spec, eta_areas, values, direction,
                                       energy_val, step)) is None:
            stop_reason = "line_search_failure"
        else:
            trial, energy_trial, min_jac, fields = accepted
            new_grad = _gradient(ops, spec, eta_areas, fields)
            new_sobolev = ops.precondition(new_grad)
            s, y = trial - values, new_grad - grad
            sy = _dot(s, y)
            if sy > 0.0:  # curvature pair; otherwise the memory keeps its old pairs
                z = new_sobolev - sobolev  # S_II^{-1} y, by linearity
                memory.append((s, y, 1.0 / sy, sy / _dot(y, z), z))
            values, energy_val, grad, sobolev = trial, energy_trial, new_grad, new_sobolev
            continue
        break
    return MinimizeResult(MappingField(mesh, values), trace, stop_reason)


def _line_search(ops, spec, eta_areas, values, direction, energy_val, step):
    """Backtrack from `step` to the first trial that lowers the energy and keeps
    J above the floor: (trial, energy, min J, fields), or None below MIN_STEP."""
    while step >= MIN_STEP:
        trial = values - step * direction
        energy_trial, min_jac, fields = _energy_and_minjac(ops, spec, eta_areas, trial)
        if min_jac >= JACOBIAN_FLOOR and energy_trial < energy_val:
            return trial, energy_trial, min_jac, fields
        step *= BACKTRACKING
    return None


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


def truncation_sweep(spec: FunctionalSpec, n_list: Sequence[int], mesh: Mesh,
                     boundary: BoundaryData, config: MinimizeConfig) -> List[MinimizeResult]:
    """Minimize `spec.with_(trunc_n=N)` for each N, warm-starting in N: one
    result per N; every N shares the operators of the mesh and one
    factorisation of S_II.  `spec` must be of the `trunc_exp` family."""
    if spec.family != "trunc_exp":
        raise ConfigurationError(f"a sweep varies N of 'trunc_exp', not of {spec.family!r}")
    if not len(n_list) or list(n_list) != sorted(set(int(n) for n in n_list)):
        raise ConfigurationError("'N_list' must be non-empty and strictly increasing")
    ops = _MeshOperators(mesh)
    results: List[MinimizeResult] = []
    for n in n_list:
        warm = results[-1].mapping if results else None
        results.append(_minimize(ops, spec.with_(trunc_n=int(n)), boundary, config, warm))
    return results
