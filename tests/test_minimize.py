import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from fdmaps import minimize
from fdmaps.cli import result_schema, run
from fdmaps.errors import ConfigurationError
from fdmaps.fields import MappingField, distortions, sample_analytic, wirtinger_derivatives
from fdmaps.functionals import FunctionalSpec, energy
from fdmaps.geometry import build_disk_mesh, build_rect_mesh
from fdmaps.minimize import (JACOBIAN_FLOOR, MEMORY, BoundaryData, MinimizeConfig, _dot,
                             _eta_areas, _energy_and_minjac, _lbfgs_direction,
                             _MeshOperators, energy_gradient, harmonic_extension,
                             minimize_energy, prolong, truncation_sweep)


# criterion 08: trunc_exp p=1 N=8 under a circle diffeomorphism, and its
# minimal energies on disk levels 3, 4 and 5
CRITERION_08 = {
    "functional": {"family": "trunc_exp", "p": 1.0, "N": 8},
    "boundary": {"kind": "circle_diffeo", "sin_coeffs": [0.0, 0.3]},
}
CRITERION_08_ENERGIES = (25.809475642848255, 25.776824822226658, 25.768182447014084)


def _jacobian(mapping):
    d = wirtinger_derivatives(mapping)
    return distortions(d.fz, d.fzbar)[0]


def _fd_gradient(spec, mapping, h=1e-6):
    base = mapping.values
    g = np.zeros(2 * len(base))
    for i in range(len(base)):
        for k, delta in enumerate((h, 1j * h)):
            vp = base.copy(); vp[i] += delta
            vm = base.copy(); vm[i] -= delta
            ep = energy(spec, wirtinger_derivatives(MappingField(mapping.mesh, vp, None)))
            em = energy(spec, wirtinger_derivatives(MappingField(mapping.mesh, vm, None)))
            g[2 * i + k] = (ep - em) / (2 * h)
    return g


@pytest.mark.parametrize("spec", [
    FunctionalSpec(family="lp_mean", p=2.0),
    FunctionalSpec(family="exp_p", p=1.0),
    FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=6),
    FunctionalSpec(family="dirichlet"),
    FunctionalSpec(family="lp_mean", p=2.0, norm="op", jac_exp=0.5),
])
def test_gradient_matches_finite_differences(disk3, rng, spec):
    values = disk3.nodes + 0.01 * (rng.standard_normal(disk3.n_nodes)
                                   + 1j * rng.standard_normal(disk3.n_nodes))
    values[disk3.boundary_nodes] = disk3.nodes[disk3.boundary_nodes]
    mapping = MappingField(disk3, values, None)
    assert _jacobian(mapping).min() > 0.1
    g = energy_gradient(spec, mapping)
    g_ri = np.column_stack([g.real, g.imag]).ravel()
    g_fd = _fd_gradient(spec, mapping)
    # boundary entries are projected out of the analytic gradient
    free = np.ones(disk3.n_nodes, bool)
    free[disk3.boundary_nodes] = False
    idx = np.repeat(free, 2)
    rel = np.linalg.norm(g_ri[idx] - g_fd[idx]) / max(np.linalg.norm(g_fd[idx]), 1e-30)
    assert rel < 1e-6
    assert np.all(g_ri[~idx] == 0.0)


def test_sparse_operators_match_per_triangle_derivatives(disk3, rng):
    # the descent evaluates energies through one product with the stacked
    # D = [Dz; Dzbar]; its blocks are the operators behind
    # wirtinger_derivatives, so the bits agree
    spec = FunctionalSpec(family="exp_p", p=1.0, weight="hyperbolic")
    values = disk3.nodes + 0.01 * (rng.standard_normal(disk3.n_nodes)
                                   + 1j * rng.standard_normal(disk3.n_nodes))
    ref = wirtinger_derivatives(MappingField(disk3, values, None))
    ops = _MeshOperators(disk3)
    fz, fzbar, P, Q = ops.fields(values)
    assert np.array_equal(fz, ref.fz)
    assert np.array_equal(fzbar, ref.fzbar)
    assert np.array_equal(P - Q, distortions(ref.fz, ref.fzbar)[0])
    e_ops = _energy_and_minjac(ops, spec, _eta_areas(spec, disk3), values)[0]
    assert e_ops == energy(spec, ref)


def _barycentric_stiffness(mesh):
    # reference assembly: grad of barycentric function i is perp of the
    # opposite edge / (2A), represented as a complex number
    tri = mesh.triangles
    z = mesh.nodes[tri]
    areas = mesh.areas
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


@pytest.mark.parametrize("mesh", ["disk3", "disk5", "rect"])
def test_stiffness_matrix_matches_barycentric_assembly(request, mesh):
    # S = 4 Re(Dz^H diag(areas) Dz) is the barycentric-gradient assembly;
    # compared on the pattern of nonzero values, as the reference also
    # stores the exact zeros of right-angled triangles
    mesh = build_rect_mesh(8, 5, 0, 2 + 1j) if mesh == "rect" else request.getfixturevalue(mesh)
    S, ref = _MeshOperators(mesh).stiffness, _barycentric_stiffness(mesh)
    assert ((S != 0) != (ref != 0)).nnz == 0
    assert abs(S - ref).max() <= 1e-14 * abs(ref).max()


def test_stiffness_matrix_annihilates_constants(disk3):
    K = _MeshOperators(disk3).stiffness
    assert K.shape == (disk3.n_nodes, disk3.n_nodes)
    assert np.allclose(K @ np.ones(disk3.n_nodes), 0.0, atol=1e-12)
    # symmetric positive semidefinite
    dense = K.toarray()
    assert np.allclose(dense, dense.T)
    eig = np.linalg.eigvalsh(dense)
    assert eig.min() > -1e-10


def test_harmonic_extension_reproduces_identity(disk4):
    m = harmonic_extension(disk4, BoundaryData(kind="identity"))
    assert np.allclose(m.values, disk4.nodes, atol=1e-12)


def test_harmonic_extension_maximum_principle(disk4):
    m = harmonic_extension(disk4, BoundaryData(kind="circle_diffeo",
                                               sin_coeffs=(0.0, 0.3)))
    assert np.abs(m.values).max() <= 1.0 + 1e-12


def test_mesh_without_interior_nodes_needs_no_solve():
    # a 1x1 rectangle has four boundary nodes and nothing to solve for
    mesh = build_rect_mesh(1, 1, 0, 1 + 1j)
    boundary = BoundaryData(kind="explicit", explicit_values=1.5 * mesh.nodes[mesh.boundary_nodes])
    assert np.array_equal(harmonic_extension(mesh, boundary).values, 1.5 * mesh.nodes)
    res = minimize_energy(FunctionalSpec(family="lp_mean", p=2.0), mesh, boundary,
                          MinimizeConfig())
    assert (res.stop_reason, len(res.trace)) == ("gradient_tolerance", 1)


def test_boundary_data_validation():
    with pytest.raises(ConfigurationError):
        BoundaryData(kind="weird")
    with pytest.raises(ConfigurationError):
        # derivative of theta + 2 sin(theta) vanishes
        BoundaryData(kind="circle_diffeo", sin_coeffs=(2.0,))
    with pytest.raises(ConfigurationError):
        BoundaryData(kind="explicit")


def test_minimize_recovers_identity(disk3):
    # perturbed interior start with *identity* boundary must return to identity
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    rng = np.random.default_rng(0)
    values = disk3.nodes + 0.02 * (rng.standard_normal(disk3.n_nodes)
                                   + 1j * rng.standard_normal(disk3.n_nodes))
    values[disk3.boundary_nodes] = disk3.nodes[disk3.boundary_nodes]
    init = MappingField(disk3, values, None)
    res = minimize_energy(spec, disk3, BoundaryData(kind="identity"),
                          MinimizeConfig(max_iterations=5000), initial=init)
    assert np.abs(res.mapping.values - disk3.nodes).max() < 1e-4
    energies = [row["energy"] for row in res.trace]
    assert all(a >= b for a, b in zip(energies, energies[1:]))


def test_minimize_keeps_jacobian_floor(disk3):
    spec = FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8)
    res = minimize_energy(spec, disk3,
                          BoundaryData(kind="circle_diffeo", sin_coeffs=(0.0, 0.3)),
                          MinimizeConfig(max_iterations=300))
    assert _jacobian(res.mapping).min() >= JACOBIAN_FLOOR


def test_descent_is_mesh_independent_on_refinement_ladder(disk3, disk4, disk5):
    # criterion-08 problem at levels 3 to 5, warm-started by prolongation;
    # plain steepest descent needs 939 and 3218 trace rows at levels 3 and 4,
    # the Laplacian-preconditioned descent 68 / 107 / 159 and the L-BFGS one
    # 25 / 29 / 33 with the decrement stopped at PRECISION_FLOOR * |E|
    # (28 / 35 / 37 without that floor)
    spec = FunctionalSpec.from_json(CRITERION_08["functional"])
    boundary = BoundaryData.from_json(CRITERION_08["boundary"])
    prev = None
    for mesh, cap, ref in zip((disk3, disk4, disk5), (20000, 60000, 200000),
                              CRITERION_08_ENERGIES):
        init = prolong(prev.mapping, mesh) if prev is not None else None
        res = minimize_energy(spec, mesh, boundary,
                              MinimizeConfig(max_iterations=cap, gradient_tolerance=1e-9),
                              initial=init)
        assert abs(res.final_energy - ref) <= 1e-10 * ref
        assert len(res.trace) <= 60
        assert res.stop_reason == "gradient_tolerance"
        prev = res


@pytest.mark.parametrize("level", [3, 4, 5])
def test_cli_minimize_converges_at_the_gradient_tolerance(tmp_path, level):
    # the descent ends where no step lowers E by more than its rounding;
    # that is a converged solve, which used to exit 3 as a stalled line search
    config = {"command": "minimize", "domain": {"kind": "disk", "level": level},
              "minimize": {"gradient_tolerance": 1e-9}, **CRITERION_08}
    assert run(config, tmp_path) == 0
    results = json.loads((tmp_path / "result.json").read_text())["results"]
    assert results["stop_reason"] == "gradient_tolerance"
    ref = CRITERION_08_ENERGIES[level - 3]
    assert abs(results["final_energy"] - ref) <= 1e-10 * ref


def test_stopping_norm_is_mesh_independent():
    # at the harmonic start of the criterion-08 problem the trace's norm
    # sqrt(g^T S_II^{-1} g) reads 3.84 / 3.81 / 3.80 / 3.80 on levels 3-6,
    # where the Euclidean |g| halves per level: 2.63 / 1.51 / 0.82 / 0.43
    spec = FunctionalSpec.from_json(CRITERION_08["functional"])
    boundary = BoundaryData.from_json(CRITERION_08["boundary"])
    norms = [minimize_energy(spec, build_disk_mesh(level), boundary,
                             MinimizeConfig(max_iterations=1)).trace[0]["grad_norm"]
             for level in (3, 4, 5, 6)]
    assert max(norms) <= 1.02 * min(norms)


def test_gradient_tolerance_decides_alike_on_every_mesh(tmp_path):
    # a tolerance well above the float floor stops each level by
    # gradient_tolerance after about as many rows (8 / 9 / 10 on levels 3-5)
    # and as close to the minimum: E - E* is 0.50 / 0.59 / 0.48 tol^2, the
    # decrement tol^2 / 2 that the test reads; the Euclidean test stopped at
    # 0.0043 / 0.0049 / 0.013 tol^2
    tol, rows, gaps = 1e-2, [], []
    for level, ref in zip((3, 4, 5), CRITERION_08_ENERGIES):
        config = {"command": "minimize", "domain": {"kind": "disk", "level": level},
                  "minimize": {"gradient_tolerance": tol}, **CRITERION_08}
        out = tmp_path / str(level)
        assert run(config, out) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["results"]["stop_reason"] == "gradient_tolerance"
        assert result["results"]["grad_norm"] <= tol
        rows.append(result["results"]["iterations"] + 1)
        gaps.append(result["results"]["final_energy"] - ref)
        if jsonschema is not None:
            jsonschema.validate(result, result_schema())
    assert max(rows) - min(rows) <= 3
    assert 0.0 < min(gaps) and max(gaps) <= min(2.0 * min(gaps), tol ** 2)
    assert set(result_schema()["$defs"]["stop_reason"]["enum"]) == \
        {"gradient_tolerance", "max_iterations", "line_search_failure"}


@pytest.mark.parametrize("command", ["minimize", "sweep"])
def test_line_search_failure_exits_3(disk3, tmp_path, monkeypatch, command):
    # a Jacobian floor just under the harmonic start's min J rejects every
    # step that lowers min J, long before the decrement reaches the floor
    boundary = BoundaryData.from_json(CRITERION_08["boundary"])
    min_jac = _jacobian(harmonic_extension(disk3, boundary)).min()
    monkeypatch.setattr("fdmaps.minimize.JACOBIAN_FLOOR", float(min_jac) * (1.0 - 1e-13))
    config = {"command": command, "domain": {"kind": "disk", "level": 3},
              "minimize": {"gradient_tolerance": 1e-9},
              "sweep": {"N_list": [1]}, **CRITERION_08}
    assert run(config, tmp_path) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["status"], manifest["failure_reason"]) == \
        ("numerical_failure", "line_search_failure")
    results = json.loads((tmp_path / "result.json").read_text())["results"]
    outcome = results["entries"][0] if command == "sweep" else results
    assert outcome["stop_reason"] == "line_search_failure"


def test_dirichlet_minimiser_is_the_harmonic_extension(disk4):
    # the Dirichlet Hessian is a multiple of the stiffness matrix, so one
    # Laplacian-scaled quasi-Newton step after the first lands on the
    # discrete harmonic extension
    boundary = BoundaryData(kind="circle_diffeo", sin_coeffs=(0.0, 0.3))
    harmonic = harmonic_extension(disk4, boundary).values
    z = disk4.nodes
    start = harmonic + 0.1 * (1.0 - np.abs(z) ** 2) * (1.0 + 1j * z)
    res = minimize_energy(FunctionalSpec(family="dirichlet"), disk4, boundary,
                          MinimizeConfig(), initial=MappingField(disk4, start, None))
    assert res.stop_reason == "gradient_tolerance"
    assert len(res.trace) <= 3
    assert np.abs(res.mapping.values - harmonic).max() < 1e-12


def test_lbfgs_direction_matches_dense_bfgs_updates(disk3, rng):
    # reference: the inverse-Hessian model built densely over the real and
    # imaginary parts, H_0 = gamma_newest * S_II^{-1} and then one BFGS
    # update per pair, oldest first; the recursion applies H_0 through the
    # stored z = S_II^{-1} y and S_II^{-1} g, without a solve of its own
    ops = _MeshOperators(disk3)
    interior = ops.interior

    def nodal():
        v = np.zeros(disk3.n_nodes, dtype=complex)
        v[interior] = rng.standard_normal(len(interior)) + 1j * rng.standard_normal(len(interior))
        return v

    def real(v):
        return np.concatenate([v[interior].real, v[interior].imag])

    grad = nodal()
    sobolev = ops.precondition(grad)
    assert np.array_equal(_lbfgs_direction(grad, sobolev, []), sobolev)
    memory = []
    for k in range(MEMORY):
        s = nodal()
        y = (1.0 + k) * s + 0.3 * nodal()  # s^T y > 0, and gamma differs per pair
        sy, z = _dot(s, y), ops.precondition(y)
        memory.append((s, y, 1.0 / sy, sy / _dot(y, z), z))
    S_II = ops.stiffness[interior][:, interior].toarray()
    H = memory[-1][3] * np.kron(np.eye(2), np.linalg.inv(S_II))
    for s, y, rho, _, _ in memory:
        V = np.eye(len(H)) - rho * np.outer(real(y), real(s))
        H = V.T @ H @ V + rho * np.outer(real(s), real(s))
    direction = _lbfgs_direction(grad, sobolev, memory)
    assert np.all(direction[disk3.boundary_nodes] == 0.0)
    expected = H @ real(grad)
    assert np.abs(real(direction) - expected).max() < 1e-10 * np.abs(expected).max()
    # the model maps the newest y onto the newest s
    s, y, _, _, z = memory[-1]
    assert np.abs(_lbfgs_direction(y, z, memory) - s).max() < 1e-10 * np.abs(s).max()


@pytest.mark.parametrize("restart", [False, True])
def test_descent_solves_once_per_trace_row(disk4, monkeypatch, restart):
    # each row needs S_II^{-1} g of its gradient and nothing more: the
    # scale gamma and the recursion reuse it, a cold start adds the solve
    # of the harmonic extension, and a restart (here forced once, on a
    # direction with pairs in memory, by reversing it) makes none
    solve, solves = _MeshOperators._solve, []
    monkeypatch.setattr(_MeshOperators, "_solve",
                        lambda self, rhs: solves.append(1) or solve(self, rhs))
    lbfgs_direction, restarts = minimize._lbfgs_direction, []

    def reversed_once(grad, sobolev, memory):
        direction = lbfgs_direction(grad, sobolev, memory)
        if restart and len(memory) >= 3 and not restarts:
            restarts.append(1)
            return -direction
        return direction

    monkeypatch.setattr(minimize, "_lbfgs_direction", reversed_once)
    spec = FunctionalSpec.from_json(CRITERION_08["functional"])
    boundary = BoundaryData.from_json(CRITERION_08["boundary"])
    res = minimize_energy(spec, disk4, boundary, MinimizeConfig(gradient_tolerance=1e-9))
    assert res.stop_reason == "gradient_tolerance"
    assert len(restarts) == restart
    assert len(solves) == len(res.trace) + 1
    assert abs(res.final_energy - CRITERION_08_ENERGIES[1]) <= 1e-10 * CRITERION_08_ENERGIES[1]


def test_prolong_reproduces_nodal_interpolation(disk3):
    import fdmaps
    fine = fdmaps.build_disk_mesh(4)
    m = sample_analytic(disk3, "affine", 1.0, 0.25)
    p = prolong(m, fine)
    # affine in z and conj(z) is preserved by edge-midpoint interpolation
    expected = 1.0 * fine.nodes + 0.25 * np.conj(fine.nodes)
    interior = np.ones(fine.n_nodes, bool)
    interior[fine.boundary_nodes] = False
    assert np.allclose(p.values[:disk3.n_nodes], m.values)
    assert np.allclose(p.values[interior], expected[interior])


def test_sweep_factorises_the_mesh_once(disk4, monkeypatch):
    # every N of a sweep shares one splu factor of S_II; the gradient and
    # the stiffness matrix need none
    splu, calls = spla.splu, []
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: calls.append(1) or splu(*args, **kwargs))
    boundary = BoundaryData(kind="circle_diffeo", sin_coeffs=(0.0, 0.3))
    entries = truncation_sweep(1.0, [1, 2, 4, 8], disk4, boundary,
                               MinimizeConfig(gradient_tolerance=1e-9))
    assert len(calls) == 1
    assert [e.stop_reason for e in entries] == ["gradient_tolerance"] * 4
    # N = 8 is the criterion-08 problem at level 4
    for entry, ref in zip(entries, (9.748915545760502, 16.70814939622371,
                                    24.16697104650499, CRITERION_08_ENERGIES[1])):
        assert abs(entry.energy - ref) <= 1e-12 * ref
    energy_gradient(FunctionalSpec(family="exp_p", p=1.0), entries[0].mapping)
    _MeshOperators(disk4).stiffness
    assert len(calls) == 1


def test_truncation_sweep_energies_monotone(disk3):
    entries = truncation_sweep(1.0, [1, 2, 4], disk3, BoundaryData(kind="identity"),
                               MinimizeConfig(max_iterations=100))
    assert [e.trunc_n for e in entries] == [1, 2, 4]
    assert entries[0].energy < entries[1].energy < entries[2].energy
