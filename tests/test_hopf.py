import numpy as np
import pytest

from fdmaps.errors import DomainError
from fdmaps.fields import distortions, sample_analytic, wirtinger_derivatives
from fdmaps.functionals import (FunctionalSpec, hyperbolic_density, integrand,
                                weight_values)
from fdmaps.hopf import (HolomorphyResidual, HopfField, ahlfors_hopf,
                         holomorphy_residual, hopf_to_csv, inverse_ahlfors_hopf)


def test_hyperbolic_weight_values():
    assert hyperbolic_density(0.0) == pytest.approx(1.0)
    assert hyperbolic_density(1.0 / np.sqrt(2.0)) == pytest.approx(4.0)
    assert hyperbolic_density(0.9) == pytest.approx(1.0 / 0.19 ** 2)
    with pytest.raises(DomainError):
        hyperbolic_density(1.0)


def test_hopf_differential_vanishes_for_conformal(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "identity"))
    assert np.allclose(ahlfors_hopf(d, 1.0, 8).values, 0.0)


def test_hopf_differential_affine_oracle(disk3):
    d = wirtinger_derivatives(sample_analytic(disk3, "affine", 1.0, 1.0 / 3.0))
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
    for phi in (ahlfors_hopf(d, 1.0, 8), inverse_ahlfors_hopf(d, 1.0, 8)):
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


def _residual_field(mesh, kind, rng):
    """A test field of the given kind: random with NaN rows, smooth in the
    centroid chart, smooth in an affine image chart, or in a collinear chart."""
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
    elif kind == "image_chart":
        values = np.exp(c) + 0.5 * np.conj(c) ** 2
        chart = 1.3 * c + 0.2j * np.conj(c) + 0.1
    else:
        values = rng.standard_normal(m) + 0j
        chart = c.real + 0j
    return HopfField(mesh, values, flags, chart=chart)


@pytest.mark.parametrize("mesh_name", ["disk4", "unit_square_16"])
@pytest.mark.parametrize("kind", ["random", "smooth", "image_chart"])
def test_holomorphy_residual_matches_per_vertex_lstsq(request, rng, mesh_name, kind):
    mesh = request.getfixturevalue(mesh_name)
    field = _residual_field(mesh, kind, rng)
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


def _bincount_residual(field):
    """The residual's closed-form fit with the whole-array star sums of one
    np.bincount per triangle corner."""
    mesh = field.mesh
    tri, n = mesh.triangles, mesh.n_nodes
    w, y = field.chart_points(), field.values
    finite = np.isfinite(y) & np.isfinite(w)
    w, y = np.where(finite, w, 0.0), np.where(finite, y, 0.0)

    def gather(corner, x):
        out = np.bincount(corner, weights=x.real, minlength=n)
        if np.iscomplexobj(x):
            out = out + 1j * np.bincount(corner, weights=x.imag, minlength=n)
        return out

    def star_sum(x):
        return sum(gather(tri[:, k], x) for k in range(3))

    count = star_sum(np.ones(len(tri)))
    bad = star_sum((~finite).astype(float)) > 0
    centre = star_sum(w) / np.maximum(count, 1.0)
    mean = star_sum(y) / np.maximum(count, 1.0)
    s, t, r_minus, r_plus = 0.0, 0.0, 0.0, 0.0
    for k in range(3):
        corner = tri[:, k]
        d, e = w - centre[corner], y - mean[corner]
        s = s + gather(corner, d.real ** 2 + d.imag ** 2)
        t = t + gather(corner, d * d)
        r_minus = r_minus + gather(corner, np.conj(d) * e)
        r_plus = r_plus + gather(corner, d * e)
    det = s * s - (t.real ** 2 + t.imag ** 2)
    interior = ~mesh.is_boundary()
    fitted = interior & (count >= 3) & ~bad & (det > 0)
    c2 = np.abs(s * r_plus - t * r_minus)[fitted] / det[fitted]
    lumped = star_sum(mesh.areas)[fitted] / 3.0
    return HolomorphyResidual(float(np.sum(lumped * c2)),
                              float(np.sqrt(np.sum(lumped * c2 ** 2))),
                              int(np.count_nonzero(interior & ~fitted)),
                              float(np.sum(lumped)))


@pytest.mark.parametrize("mesh_name, kind", [
    ("disk4", "random"), ("disk4", "smooth"), ("disk4", "image_chart"),
    ("disk4", "collinear"), ("unit_square_16", "random"), ("unit_square_16", "image_chart")])
def test_holomorphy_residual_does_not_depend_on_the_block(request, rng, mesh_name, kind,
                                                          triangle_block):
    field = _residual_field(request.getfixturevalue(mesh_name), kind, rng)
    assert holomorphy_residual(field) == _bincount_residual(field)


def _hopf_reference(d, p, n_trunc, weight, inverse):
    """Flags and values of a Hopf builder by the whole-array formulas."""
    spec = FunctionalSpec(family="exp_p" if n_trunc is None else "trunc_exp", p=p,
                          trunc_n=n_trunc or 0, weight=weight)
    jac = distortions(d.fz, d.fzbar)[0]
    flagged = jac <= 0
    factor = np.where(flagged, np.nan,
                      integrand(spec, np.abs(d.fz) ** 2, np.abs(d.fzbar) ** 2))
    if weight != "none":
        mesh = d.mesh
        factor = factor * weight_values(
            spec, mesh.nodes[mesh.triangles].mean(axis=1) if inverse else d.f_centroid)
    if inverse:
        return flagged, -factor / jac ** 2 * np.conj(d.fz * d.fzbar)
    return flagged, factor * d.fz * np.conj(d.fzbar)


@pytest.mark.parametrize("weight", ["none", "hyperbolic"])
@pytest.mark.parametrize("n_trunc", [4, None])
def test_hopf_builders_do_not_depend_on_the_block(part_folded, weight, n_trunc,
                                                  triangle_block):
    d = wirtinger_derivatives(part_folded)
    fields = [(builder(d, 1.0, n_trunc, weight), inverse)
              for builder, inverse in ((ahlfors_hopf, False), (inverse_ahlfors_hopf, True))]
    for psi, inverse in fields:
        flagged, values = _hopf_reference(d, 1.0, n_trunc, weight, inverse)
        # the flagged (nan) rows lie next to finite ones
        assert flagged.any() and not flagged.all()
        assert np.array_equal(psi.flagged, flagged)
        assert np.array_equal(psi.values, values, equal_nan=True)


def test_certificate_memory_is_bounded():
    # level-7 disk, 98,304 triangles and 49,537 vertices.  The Hopf values
    # are built block by block; the residual holds its per-vertex star sums
    # and one block (7.5 MiB; 14.4 MiB with whole-mesh temporaries)
    import tracemalloc

    import fdmaps
    mesh = fdmaps.build_disk_mesh(7)
    derived = wirtinger_derivatives(sample_analytic(mesh, "affine", 1.0, 0.3))
    mib = 2.0 ** 20
    tracemalloc.start()
    try:
        psi = inverse_ahlfors_hopf(derived, 1.0, 8)
        held, peak = tracemalloc.get_traced_memory()
        assert peak <= held + 2 * mib
        tracemalloc.reset_peak()
        holomorphy_residual(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= held + 8 * mib
