import numpy as np
import pytest

from fdmaps.errors import DomainError
from fdmaps.fields import sample_analytic, wirtinger_derivatives
from fdmaps.functionals import FunctionalSpec, hyperbolic_density, weight_values
from fdmaps.hopf import (HopfField, ahlfors_hopf, holomorphy_residual,
                         hopf_differential, hopf_to_csv, inverse_ahlfors_hopf)


def test_hyperbolic_weight_values():
    assert hyperbolic_density(0.0) == pytest.approx(1.0)
    assert hyperbolic_density(1.0 / np.sqrt(2.0)) == pytest.approx(4.0)
    assert hyperbolic_density(0.9) == pytest.approx(1.0 / 0.19 ** 2)
    with pytest.raises(DomainError):
        hyperbolic_density(1.0)


def test_hopf_differential_vanishes_for_conformal(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "identity"))
    assert np.allclose(hopf_differential(d, 2.0).values, 0.0)
    assert np.allclose(ahlfors_hopf(d, 1.0, 8).values, 0.0)


def test_hopf_differential_affine_oracle(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "affine", 1.0, 1.0 / 3.0))
    phi = hopf_differential(d, 2.0)
    assert np.allclose(phi.values, 2.5 * (1.0 / 3.0))
    psi = ahlfors_hopf(d, 1.0, 2)
    # S_2(2.5) = 6.625
    assert np.allclose(psi.values, 6.625 / 3.0)


def test_ahlfors_hopf_exponential_form(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "affine", 1.0, 1.0 / 3.0))
    psi = ahlfors_hopf(d, 1.0, None)
    assert np.allclose(psi.values, np.exp(2.5) / 3.0)


def test_ahlfors_hopf_modulus_nondecreasing_in_n(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "affine", 1.0, 1.0 / 3.0))
    mags = [np.abs(ahlfors_hopf(d, 1.0, n).values).max() for n in (1, 2, 4, 8)]
    assert all(a <= b + 1e-14 for a, b in zip(mags, mags[1:]))


def test_hyperbolic_weight_requires_image_in_disk(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "affine", 2.0, 0.0))
    with pytest.raises(DomainError):
        ahlfors_hopf(d, 1.0, 4, weight="hyperbolic")
    shrunk = wirtinger_derivatives(sample_analytic(disk3, "affine", 0.5, 0.1))
    psi = ahlfors_hopf(shrunk, 1.0, 4, weight="hyperbolic")
    assert np.isfinite(psi.values).all()


def test_holomorphy_residual_constant_field(disk4):
    f = HopfField(disk4, np.full(disk4.n_triangles, 1.0 + 2.0j),
                  np.zeros(disk4.n_triangles, bool))
    res = holomorphy_residual(f)
    assert res.l1_residual == pytest.approx(0.0, abs=1e-12)
    assert res.l2_residual == pytest.approx(0.0, abs=1e-12)


def test_holomorphy_residual_recovers_antiholomorphic(disk4):
    c = disk4.centroids()
    f = HopfField(disk4, np.conj(c), np.zeros(disk4.n_triangles, bool))
    res = holomorphy_residual(f)
    # c2 = 1 at every interior vertex, so L1 = interior lumped area
    assert res.l1_residual == pytest.approx(res.interior_area, rel=1e-10)


def test_holomorphy_residual_first_order_for_smooth_fields():
    import fdmaps
    resids = []
    for level in (3, 4, 5):
        mesh = fdmaps.build_disk_mesh(level)
        c = mesh.centroids()
        f = HopfField(mesh, c ** 2, np.zeros(mesh.n_triangles, bool))
        resids.append(holomorphy_residual(f).l1_residual)
    assert resids[0] > 2.0 * resids[1] > 4.0 * resids[2]


def test_holomorphy_residual_affine_invariance(disk4):
    c = disk4.centroids()
    base = np.conj(c) * np.abs(c)
    flags = np.zeros(disk4.n_triangles, bool)
    r0 = holomorphy_residual(HopfField(disk4, base, flags)).l1_residual
    r1 = holomorphy_residual(HopfField(disk4, base + (3.0 - 2.0j) + 5.0j * c,
                                       flags)).l1_residual
    assert r1 == pytest.approx(r0, rel=1e-9)


def test_inverse_ahlfors_hopf_identity_is_zero(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "identity"))
    psi = inverse_ahlfors_hopf(d, 1.0, 8)
    assert np.allclose(psi.values, 0.0)
    assert np.allclose(psi.chart, disk3.centroids())


def test_inverse_ahlfors_hopf_pullback_oracle(disk3):
    # affine(1, 1/3): J = 8/9, S_2(2.5) = 6.625,
    # h_w conj(h_wbar) = -conj(fz fzbar)/J^2
    d = wirtinger_derivatives(sample_analytic(disk3, "affine", 1.0, 1.0 / 3.0))
    psi = inverse_ahlfors_hopf(d, 1.0, 2)
    expected = -6.625 * (1.0 / 3.0) / (8.0 / 9.0) ** 2
    assert np.allclose(psi.values, expected)


def test_flagged_triangles_are_nan(disk3):
    m = sample_analytic(disk3, "identity")
    folded = type(m)(disk3, np.conj(m.values), None)
    d = wirtinger_derivatives(folded)
    phi = hopf_differential(d, 2.0)
    assert phi.flagged.all()
    assert np.isnan(phi.values.real).all()


def test_hopf_to_csv(tmp_path, part_folded, csv_reference):
    psi = ahlfors_hopf(wirtinger_derivatives(part_folded), 1.0, 4)
    assert np.isnan(psi.values).any() and np.isfinite(psi.values).any()
    path = tmp_path / "hopf.csv"
    hopf_to_csv(psi, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == psi.mesh.n_triangles + 1
    expected = [[t, psi.values[t].real, psi.values[t].imag, psi.mesh.areas[t]]
                for t in range(psi.mesh.n_triangles)]
    assert path.read_bytes() == csv_reference(["tri_id", "re", "im", "area"], expected)


def test_hyperbolic_weight_is_the_functional_weight():
    z = np.array([0.0, 0.3 - 0.4j, 0.9j, -0.99 + 0.0j, 0.6 + 0.6j])
    spec = FunctionalSpec(family="lp_mean", p=2.0, weight="hyperbolic")
    assert np.array_equal(hyperbolic_density(z), weight_values(spec, z))
    for edge in (1.0, -1j, 0.9 + 0.9j):
        with pytest.raises(DomainError):
            weight_values(spec, np.array([0.0, edge]))


def _lstsq_residual(field):
    """Reference: one least-squares fit of c0 + c1 w + c2 conj(w) per vertex star."""
    mesh = field.mesh
    chart = field.chart_points()
    boundary = mesh.is_boundary()
    stars = [[] for _ in range(mesh.n_nodes)]
    for t, tri in enumerate(mesh.triangles):
        for v in tri:
            stars[v].append(t)
    l1 = l2 = area = 0.0
    skipped = 0
    for v in range(mesh.n_nodes):
        if boundary[v]:
            continue
        tris = stars[v]
        if len(tris) < 3 or not np.isfinite(field.values[tris]).all():
            skipped += 1
            continue
        w = chart[tris]
        A = np.column_stack([np.ones_like(w), w, np.conj(w)])
        coeffs, *_ = np.linalg.lstsq(A, field.values[tris], rcond=None)
        lumped = np.sum(mesh.areas[tris]) / 3.0
        area += lumped
        l1 += lumped * abs(coeffs[2])
        l2 += lumped * abs(coeffs[2]) ** 2
    return l1, np.sqrt(l2), skipped, area


@pytest.mark.parametrize("mesh_name", ["disk4", "unit_square_16"])
@pytest.mark.parametrize("kind", ["random", "smooth", "image_chart"])
def test_holomorphy_residual_matches_per_vertex_lstsq(request, rng, mesh_name, kind):
    mesh = request.getfixturevalue(mesh_name)
    m = mesh.n_triangles
    c = mesh.centroids()
    flags = np.zeros(m, bool)
    chart = None
    if kind == "random":
        values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        flags = rng.random(m) < 0.05
        values[flags] = np.nan
    elif kind == "smooth":
        values = c ** 2 + np.conj(c) * np.abs(c)
    else:
        values = np.exp(c) + 0.5 * np.conj(c) ** 2
        chart = 1.3 * c + 0.2j * np.conj(c) + 0.1
    field = HopfField(mesh, values, flags, chart=chart)
    l1, l2, skipped, area = _lstsq_residual(field)
    res = holomorphy_residual(field)
    assert type(res.l1_residual) is float and type(res.l2_residual) is float
    assert res.l1_residual == pytest.approx(l1, rel=1e-12)
    assert res.l2_residual == pytest.approx(l2, rel=1e-12)
    assert res.skipped_vertices == skipped
    assert res.interior_area == pytest.approx(area, rel=1e-12)
    if kind == "random":
        assert 0 < skipped < mesh.n_nodes - len(mesh.boundary_nodes)


def test_holomorphy_residual_skips_collinear_stars(disk4, rng):
    c = disk4.centroids()
    values = rng.standard_normal(disk4.n_triangles) + 0j
    field = HopfField(disk4, values, np.zeros(disk4.n_triangles, bool),
                      chart=c.real + 0j)
    res = holomorphy_residual(field)
    assert res.skipped_vertices == disk4.n_nodes - len(disk4.boundary_nodes)
    assert res.l1_residual == 0.0 and res.interior_area == 0.0
