import numpy as np
import pytest

from fdmaps.errors import ConfigurationError
from fdmaps.fields import MappingField, sample_analytic, wirtinger_derivatives
from fdmaps.functionals import FunctionalSpec, energy
from fdmaps.minimize import (BoundaryData, MinimizeConfig, _energy_and_minjac,
                             _WirtingerOperators, energy_gradient, harmonic_extension,
                             minimize_energy, prolong, stiffness_matrix, truncation_sweep)


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
    ops = _WirtingerOperators(spec, disk3)
    assert np.abs(ops.Dz @ values - ref.fz).max() < 1e-13
    assert np.abs(ops.Dzbar @ values - ref.fzbar).max() < 1e-13
    e_ref = energy(spec, ref)
    assert abs(_energy_and_minjac(ops, values)[0] - e_ref) < 1e-13 * e_ref


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


def test_descent_is_mesh_independent_on_refinement_ladder(disk3, disk4):
    # criterion-08 problem at levels 3 and 4, warm-started by prolongation;
    # plain steepest descent needs 939 and 3218 trace rows here
    spec = FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8)
    boundary = BoundaryData(kind="circle_diffeo", sin_coeffs=(0.0, 0.3))
    references = (25.809475642848255, 25.776824822226658)
    prev = None
    for mesh, cap, ref in zip((disk3, disk4), (20000, 60000), references):
        init = prolong(prev.mapping, mesh) if prev is not None else None
        res = minimize_energy(spec, mesh, boundary,
                              MinimizeConfig(max_iterations=cap, gradient_tolerance=1e-9),
                              initial=init)
        assert abs(res.final_energy - ref) <= 1e-6 * ref
        assert len(res.trace) < 500
        prev = res


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


def test_truncation_sweep_energies_monotone(disk3):
    entries = truncation_sweep(1.0, [1, 2, 4], disk3, BoundaryData(kind="identity"),
                               MinimizeConfig(max_iterations=100))
    assert [e.trunc_n for e in entries] == [1, 2, 4]
    assert entries[0].energy < entries[1].energy < entries[2].energy
