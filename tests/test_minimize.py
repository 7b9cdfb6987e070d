import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fdmaps.cli import run
from fdmaps.errors import ConfigurationError
from fdmaps.fields import MappingField, sample_analytic, wirtinger_derivatives
from fdmaps.functionals import FunctionalSpec, energy
from fdmaps.geometry import build_rect_mesh
from fdmaps.minimize import (MEMORY, BoundaryData, MinimizeConfig, _dot, _eta_areas,
                             _energy_and_minjac, _lbfgs_direction, _MeshOperators,
                             energy_gradient, harmonic_extension, minimize_energy,
                             prolong, stiffness_matrix, truncation_sweep)


# criterion 08: trunc_exp p=1 N=8 under a circle diffeomorphism, and its
# minimal energies on disk levels 3, 4 and 5
CRITERION_08 = {
    "functional": {"family": "trunc_exp", "p": 1.0, "N": 8},
    "boundary": {"kind": "circle_diffeo", "sin_coeffs": [0.0, 0.3]},
}
CRITERION_08_ENERGIES = (25.809475642848255, 25.776824822226658, 25.768182447014084)


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
    assert wirtinger_derivatives(mapping).jac.min() > 0.1
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
    # the descent evaluates energies through sparse Dz / Dzbar; they must
    # agree with wirtinger_derivatives up to summation-order rounding
    spec = FunctionalSpec(family="exp_p", p=1.0, weight="hyperbolic")
    values = disk3.nodes + 0.01 * (rng.standard_normal(disk3.n_nodes)
                                   + 1j * rng.standard_normal(disk3.n_nodes))
    ref = wirtinger_derivatives(MappingField(disk3, values, None))
    ops = _MeshOperators(disk3)
    assert np.abs(ops.Dz @ values - ref.fz).max() < 1e-13
    assert np.abs(ops.Dzbar @ values - ref.fzbar).max() < 1e-13
    e_ref = energy(spec, ref)
    e_ops = _energy_and_minjac(ops, spec, _eta_areas(spec, disk3), values)[0]
    assert abs(e_ops - e_ref) < 1e-13 * e_ref


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
    S, ref = stiffness_matrix(mesh), _barycentric_stiffness(mesh)
    assert ((S != 0) != (ref != 0)).nnz == 0
    assert abs(S - ref).max() <= 1e-14 * abs(ref).max()


def test_stiffness_matrix_annihilates_constants(disk3):
    K = stiffness_matrix(disk3)
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
    cfg = MinimizeConfig(max_iterations=300, jacobian_floor=1e-8)
    res = minimize_energy(spec, disk3,
                          BoundaryData(kind="circle_diffeo", sin_coeffs=(0.0, 0.3)),
                          cfg)
    assert wirtinger_derivatives(res.mapping).jac.min() >= cfg.jacobian_floor


def test_descent_is_mesh_independent_on_refinement_ladder(disk3, disk4, disk5):
    # criterion-08 problem at levels 3 to 5, warm-started by prolongation;
    # plain steepest descent needs 939 and 3218 trace rows at levels 3 and 4,
    # the Laplacian-preconditioned descent 68 / 107 / 159 and the L-BFGS one
    # 25 / 29 / 33 with the precision-floor stop (28 / 35 / 37 without it)
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
        assert res.stop_reason == "precision_floor"
        prev = res


@pytest.mark.parametrize("level", [3, 4, 5])
def test_cli_minimize_converges_at_the_precision_floor(tmp_path, level):
    # the descent ends where no step lowers E by more than its rounding;
    # that is a converged solve, which used to exit 3 as a stalled line search
    config = {"command": "minimize", "domain": {"kind": "disk", "level": level},
              "minimize": {"gradient_tolerance": 1e-9}, **CRITERION_08}
    assert run(config, tmp_path) == 0
    results = json.loads((tmp_path / "result.json").read_text())["results"]
    assert results["stop_reason"] == "precision_floor"
    ref = CRITERION_08_ENERGIES[level - 3]
    assert abs(results["final_energy"] - ref) <= 1e-10 * ref


@pytest.mark.parametrize("command", ["minimize", "sweep"])
def test_line_search_failure_exits_3(disk3, tmp_path, command):
    # a Jacobian floor just under the harmonic start's min J rejects every
    # step that lowers min J, long before the decrement reaches the floor
    boundary = BoundaryData.from_json(CRITERION_08["boundary"])
    min_jac = wirtinger_derivatives(harmonic_extension(disk3, boundary)).jac.min()
    config = {"command": command, "domain": {"kind": "disk", "level": 3},
              "minimize": {"gradient_tolerance": 1e-9,
                           "jacobian_floor": float(min_jac) * (1.0 - 1e-13)},
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
    # update per pair, oldest first
    ops = _MeshOperators(disk3)
    interior = ops.interior

    def nodal():
        v = np.zeros(disk3.n_nodes, dtype=complex)
        v[interior] = rng.standard_normal(len(interior)) + 1j * rng.standard_normal(len(interior))
        return v

    def real(v):
        return np.concatenate([v[interior].real, v[interior].imag])

    grad = nodal()
    assert np.array_equal(_lbfgs_direction(grad, [], ops), ops.precondition(grad))
    memory = []
    for k in range(MEMORY):
        s = nodal()
        y = (1.0 + k) * s + 0.3 * nodal()  # s^T y > 0, and gamma differs per pair
        sy = _dot(s, y)
        memory.append((s, y, 1.0 / sy, sy / _dot(y, ops.precondition(y))))
    S_II = stiffness_matrix(disk3)[interior][:, interior].toarray()
    H = memory[-1][3] * np.kron(np.eye(2), np.linalg.inv(S_II))
    for s, y, rho, _ in memory:
        V = np.eye(len(H)) - rho * np.outer(real(y), real(s))
        H = V.T @ H @ V + rho * np.outer(real(s), real(s))
    direction = _lbfgs_direction(grad, memory, ops)
    assert np.all(direction[disk3.boundary_nodes] == 0.0)
    expected = H @ real(grad)
    assert np.abs(real(direction) - expected).max() < 1e-10 * np.abs(expected).max()
    # the model maps the newest y onto the newest s
    s, y = memory[-1][:2]
    assert np.abs(_lbfgs_direction(y, memory, ops) - s).max() < 1e-10 * np.abs(s).max()


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
    assert [e.stop_reason for e in entries] == ["precision_floor"] * 4
    # N = 8 is the criterion-08 problem at level 4
    for entry, ref in zip(entries, (9.748915545760502, 16.70814939622371,
                                    24.16697104650499, CRITERION_08_ENERGIES[1])):
        assert abs(entry.energy - ref) <= 1e-12 * ref
    energy_gradient(FunctionalSpec(family="exp_p", p=1.0), entries[0].mapping)
    stiffness_matrix(disk4)
    assert len(calls) == 1


def test_truncation_sweep_energies_monotone(disk3):
    entries = truncation_sweep(1.0, [1, 2, 4], disk3, BoundaryData(kind="identity"),
                               MinimizeConfig(max_iterations=100))
    assert [e.trunc_n for e in entries] == [1, 2, 4]
    assert entries[0].energy < entries[1].energy < entries[2].energy
