import json

import numpy as np
import pytest

from fdmaps import convergence
from fdmaps.convergence import (SequenceHandle, Tolerances, lr_gap, lsc_checks,
                                orlicz_gauge, orlicz_norm, quantity_scale,
                                radon_riesz_diagnose, sobolev_norm, tail_slice,
                                weak_probe)
from fdmaps.errors import ConfigurationError, DomainError
from fdmaps.fields import (AnalyticMap, MappingField, analytic_affine,
                           sample_analytic, wirtinger_derivatives)
from fdmaps.functionals import FunctionalSpec, phi_eval
from fdmaps.quadrature import mesh_quad_points
from fdmaps.sequences import SequenceRecipe, generate


@pytest.fixture(scope="module")
def drift_seq(disk3):
    return generate(SequenceRecipe(kind="affine_drift",
                                   params={"a": 1.0, "b": 0.2, "da": 0.4, "db": 0.1},
                                   j_max=16), disk3)


@pytest.fixture(scope="module")
def osc_seq():
    import fdmaps
    mesh = fdmaps.build_rect_mesh(32, 32, 0.0, 1.0 + 1.0j)
    return generate(SequenceRecipe(kind="oscillation", params={}, j_max=16), mesh)


@pytest.fixture(scope="module")
def moll_seq(disk3):
    # nodal members: the centroid (1-point) path
    return generate(SequenceRecipe(kind="mollified",
                                   params={"target": "radial_stretch", "alpha": 2.0},
                                   j_max=4), disk3)


def test_tail_slice_is_second_half():
    assert tail_slice(8) == slice(4, 8)
    assert tail_slice(9) == slice(4, 9)


def test_lr_gap_affine_drift_closed_form(drift_seq):
    # |Df_j - Df| = |da| + |db| scaled by 1/j, constant over the mesh
    gaps = lr_gap(drift_seq, "df", 1.5)
    area = drift_seq.mesh.total_area
    for j, g in enumerate(gaps, start=1):
        expected = (np.sqrt(0.4 ** 2 + 0.1 ** 2) / j) * area ** (1 / 1.5)
        assert g == pytest.approx(expected, rel=1e-12)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_lr_gap_jacobian_warns_out_of_scope(drift_seq):
    with pytest.warns(UserWarning):
        lr_gap(drift_seq, "jac", 1.5)


def test_lr_gap_unknown_quantity(drift_seq):
    with pytest.raises(ConfigurationError):
        lr_gap(drift_seq, "bogus", 1.0)


def test_quantity_scale_mu_uses_limit_beltrami(drift_seq):
    # limit is affine(1, 0.2): |mu| = 0.2 everywhere
    scale = quantity_scale(drift_seq, "mu", 1.0)
    assert scale == pytest.approx(0.2 * drift_seq.mesh.total_area, rel=1e-12)


def test_oscillation_fzbar_gap_matches_oracle(osc_seq):
    gaps = lr_gap(osc_seq, "fzbar", 2.0)
    # ||cos(2 pi j x)/2||_{L^2}^2 = area/8
    assert gaps[-1] == pytest.approx(np.sqrt(osc_seq.mesh.total_area / 8.0), rel=1e-3)


def test_weak_probe_decays_for_oscillation(osc_seq):
    res = weak_probe(osc_seq)
    assert res[0] / res[-1] > 4.0


def test_weak_probe_is_tiny_for_strong_convergence(drift_seq):
    res = weak_probe(drift_seq)
    assert res[-1] < res[0]
    assert res[-1] < 0.1


def test_lsc_on_oscillation_dirichlet(osc_seq):
    res = lsc_checks([FunctionalSpec(family="dirichlet")], osc_seq)[0]
    assert res.holds
    area = osc_seq.mesh.total_area
    assert res.limit_energy == pytest.approx(2.0 * area, rel=1e-6)
    assert res.liminf_energy == pytest.approx(2.5 * area, rel=1e-3)


def test_lsc_on_drift(drift_seq):
    res = lsc_checks([FunctionalSpec(family="lp_mean", p=2.0)], drift_seq)[0]
    assert res.holds
    assert res.limit_bad_area == 0.0


def test_mesh_mismatch_is_rejected_even_with_equal_node_counts():
    # the nodal path applies the handle mesh's operators to every member's values
    import fdmaps
    small = fdmaps.build_rect_mesh(4, 4, 0.0, 1.0 + 1.0j)
    large = fdmaps.build_rect_mesh(4, 4, 0.0, 3.0 + 3.0j)
    members = [MappingField(large, large.nodes.copy()) for _ in range(2)]
    with pytest.raises(ConfigurationError):
        SequenceHandle(small, members, MappingField(small, small.nodes.copy()))
    # an equal mesh under another object is the same mesh
    twin = fdmaps.build_rect_mesh(4, 4, 0.0, 1.0 + 1.0j)
    SequenceHandle(small, [MappingField(twin, twin.nodes.copy())],
                   MappingField(small, small.nodes.copy()))


def test_folded_limit_area_rule(disk3, part_folded):
    # the limit's J <= 0 area, from one oracle built on the signed image areas
    from fdmaps.geometry import signed_areas
    bad = signed_areas(part_folded.values, disk3.triangles) <= 0
    oracle = float(np.sum(disk3.areas[bad]))
    assert 0 < oracle < disk3.total_area
    seq = SequenceHandle(disk3, [part_folded] * 4, part_folded)
    spec = FunctionalSpec(family="dirichlet")
    rep = radon_riesz_diagnose(spec, seq, p_RR=2.0)
    assert rep.verdict == "JacobianDegenerate" and rep.decided_by == "jacobian"
    assert rep.hypotheses["jacobian_bad_fraction"] == oracle / disk3.total_area
    assert lsc_checks([spec], seq)[0].limit_bad_area == oracle


def test_lsc_checks_match_one_spec_checks(moll_seq, osc_seq):
    # several families in one sweep give each family's own check exactly
    specs = [FunctionalSpec(family="lp_mean", p=2.0), FunctionalSpec(family="exp_p", p=1.0),
             FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8),
             FunctionalSpec(family="dirichlet")]
    for seq in (moll_seq, osc_seq):
        assert lsc_checks(specs, seq) == [lsc_checks([spec], seq)[0] for spec in specs]


def test_sobolev_norm_scales(disk4):
    m = sample_analytic(disk4, "identity")
    double = MappingField(disk4, 2.0 * m.values, None)
    assert sobolev_norm(double) == pytest.approx(2.0 * sobolev_norm(m), rel=1e-12)
    with pytest.warns(UserWarning):
        sobolev_norm(m, q=0.5)


def test_orlicz_norm_identity_oracle(disk5):
    # lambda solves P(1/lambda) * area = 1 for |Df| = 1
    m = sample_analytic(disk5, "identity")
    lam = orlicz_norm(m)
    area = disk5.total_area
    assert orlicz_gauge(np.array([1.0 / lam]))[0] * area == pytest.approx(1.0, rel=1e-8)


def test_orlicz_norm_homogeneous_and_monotone(disk4):
    m = sample_analytic(disk4, "identity")
    double = MappingField(disk4, 2.0 * m.values, None)
    assert orlicz_norm(double) == pytest.approx(2.0 * orlicz_norm(m), rel=1e-6)
    bigger = MappingField(disk4, m.values + 0.3 * np.conj(m.values), None)
    assert orlicz_norm(bigger) > orlicz_norm(m)


def test_diagnose_verdict_on_drift(drift_seq):
    # the drift closes its gaps at rate 1/j, so grant commensurate tolerances
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq,
                               p_RR=2.0, s=0.01,
                               r_list={"df": 1.5, "jac": 0.5, "mu": 1.0},
                               tolerances=Tolerances(hypothesis_rel=0.2,
                                                     conclusion_rel=0.2,
                                                     weak_rel=0.2))
    assert rep.verdict == "StrongConvergence"
    assert rep.hypotheses["energy_convergence"]
    doc = json.loads(json.dumps(rep.to_json()))
    assert doc["verdict"] == "StrongConvergence"


def test_diagnose_validates_parameters(drift_seq):
    with pytest.raises(ConfigurationError):
        radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq,
                             p_RR=1.0)
    with pytest.raises(ConfigurationError):
        radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq,
                             p_RR=2.0, s=0.9)
    with pytest.raises(ConfigurationError):
        radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq,
                             p_RR=2.0, r_list={"df": -1.0})


def test_gaps_to_csv(tmp_path, drift_seq, csv_reference):
    from fdmaps.convergence import gaps_to_csv
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq,
                               p_RR=2.0, r_list={"df": 1.5, "jac": 0.5})
    path = tmp_path / "gaps.csv"
    gaps_to_csv(rep, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == len(drift_seq) + 1
    names = sorted(rep.conclusions)
    expected = [[j + 1, rep.energy_series[j], rep.weak_probe_residuals[j]]
                + [rep.conclusions[n]["series"][j] for n in names]
                for j in range(len(rep.energy_series))]
    assert path.read_bytes() == csv_reference(
        ["j", "energy", "weak_residual"] + [f"gap_{n}" for n in names], expected)


def test_lsc_hyperbolic_weight_on_disk_matches_direct_sum(drift_seq):
    # drift members are affine, so Phi is constant and the energy is
    # Phi * sum(w / (1 - |z|^2)^2) over the quadrature points
    spec = FunctionalSpec(family="lp_mean", p=2.0, weight="hyperbolic")
    res = lsc_checks([spec], drift_seq)[0]
    pts, w = mesh_quad_points(drift_seq.mesh, convergence.ANALYTIC_QUAD_N)
    weighted_area = np.sum(w / (1.0 - np.abs(pts) ** 2) ** 2)
    for j, energy in enumerate(res.member_energies, start=1):
        a, b = 1.0 + 0.4 / j, 0.2 + 0.1 / j
        phi = phi_eval(spec, np.sqrt(2.0 * (a ** 2 + b ** 2)), a ** 2 - b ** 2)
        assert energy == pytest.approx(phi * weighted_area, rel=1e-13)
    phi = phi_eval(spec, np.sqrt(2.0 * 1.04), 0.96)
    assert res.limit_energy == pytest.approx(phi * weighted_area, rel=1e-13)


def test_hyperbolic_weight_rejects_points_outside_disk(osc_seq):
    # the unit square reaches |z| = sqrt(2); the weight is undefined there
    spec = FunctionalSpec(family="lp_mean", p=2.0, weight="hyperbolic")
    with pytest.raises(DomainError):
        lsc_checks([spec], osc_seq)[0]
    with pytest.raises(DomainError):
        radon_riesz_diagnose(spec, osc_seq, p_RR=2.0)


def test_diagnose_samples_each_field_once(monkeypatch, unit_square_16):
    # fields are sampled block by block; together the blocks cover every
    # quadrature point of every field exactly once, and each block's
    # quadrature is built once, when the block is reached
    seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=8), unit_square_16)
    k = convergence.ANALYTIC_QUAD_N ** 2
    covered = np.zeros((len(seq) + 1, unit_square_16.n_triangles, k), dtype=int)
    quad_covered = np.zeros(unit_square_16.n_triangles, dtype=int)
    calls = {"blocks": 0, "quadrature": 0}
    derivatives_at, quad_points = convergence._derivatives_at, convergence.mesh_quad_points

    def recorded(seq_, index, pts, tris=slice(None)):
        covered[index + 1][tris] += 1  # row 0 is the limit
        calls["blocks"] += 1
        return derivatives_at(seq_, index, pts, tris)

    def counted(mesh, n, tris=slice(None)):
        quad_covered[tris] += 1
        calls["quadrature"] += 1
        return quad_points(mesh, n, tris)

    monkeypatch.setattr(convergence, "_derivatives_at", recorded)
    monkeypatch.setattr(convergence, "mesh_quad_points", counted)
    radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0,
                         r_list={"df": 1.5, "jac": 0.5, "mu": 1.0, "fzbar": 2.0})
    blocks = -(-unit_square_16.n_triangles * k // convergence.BLOCK_POINTS)
    assert blocks > 1
    assert calls["quadrature"] == blocks
    assert np.all(quad_covered == 1)
    assert np.all(covered == 1)
    assert calls["blocks"] == (len(seq) + 1) * blocks


def test_diagnose_memory_is_bounded():
    # the sweep holds one block and one buffer per pointwise quantity (df,
    # jac, mu) of the N quadrature points: not the whole mesh's quadrature,
    # nor copies of the proxy's points (20.9 MiB here; 32.6 MiB with both)
    import tracemalloc

    import fdmaps
    mib = 2.0 ** 20
    mesh = fdmaps.build_rect_mesh(64, 64, 0.0, 1.0 + 1.0j)
    seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=2), mesh)
    n_points = mesh.n_triangles * convergence.ANALYTIC_QUAD_N ** 2
    assert n_points == 524288
    tracemalloc.start()
    try:
        radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0,
                             r_list={"fzbar": 2.0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * n_points * 8 + 12 * mib


@pytest.mark.parametrize("fixture", ["drift_seq", "osc_seq", "moll_seq"])
def test_diagnose_matches_standalone_measurements(request, fixture):
    seq = request.getfixturevalue(fixture)
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    r_list = {"df": 1.5, "jac": 0.5, "mu": 1.0, "fz": 2.0, "fzbar": 2.0}
    rep = radon_riesz_diagnose(spec, seq, p_RR=2.0, r_list=r_list)

    def close(a, b):
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    close(rep.weak_probe_residuals, weak_probe(seq))
    for qname, r in r_list.items():
        close(rep.conclusions[qname]["series"], lr_gap(seq, qname, r))
        close(rep.conclusions[qname]["scale"], max(quantity_scale(seq, qname, r), 1e-12))
    # p_RR equals the family's p, so the energy series is the plain energy
    lsc = lsc_checks([spec], seq)[0]
    close(rep.energy_series, lsc.member_energies)
    close(rep.limit_energy, lsc.limit_energy)


def _assert_numbers_close(a, b, rtol, path="report"):
    """Walk two JSON documents: equal structure, numbers within rtol."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_numbers_close(a[key], b[key], rtol, f"{path}/{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_numbers_close(x, y, rtol, f"{path}[{i}]")
    elif isinstance(a, float) and np.isfinite(a):
        assert b == pytest.approx(a, rel=rtol, abs=0.0), path
    else:
        assert a == b, path


@pytest.fixture(scope="module")
def osc16(unit_square_16):
    return generate(SequenceRecipe(kind="oscillation", params={}, j_max=4), unit_square_16)


@pytest.mark.parametrize("tris_per_block", [1, 7, None])
@pytest.mark.parametrize("fixture", ["osc16", "moll_seq"])
def test_diagnose_is_block_size_invariant(monkeypatch, request, fixture, tris_per_block):
    # one triangle per block, blocks of 7 (which divides neither mesh), and
    # the whole mesh as one block all give the default sweep's report
    seq = request.getfixturevalue(fixture)
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    r_list = {"df": 1.5, "jac": 0.5, "mu": 1.0, "fz": 2.0, "fzbar": 2.0}

    def report():
        # p_RR != p, so the energy series and the plain-Phi energies differ
        return radon_riesz_diagnose(spec, seq, p_RR=3.0, r_list=r_list).to_json()

    default = report()
    k = convergence.ANALYTIC_QUAD_N ** 2 if seq.all_analytic else 1
    m = seq.mesh.n_triangles
    assert m % 7 != 0
    monkeypatch.setattr(convergence, "BLOCK_POINTS", k * (tris_per_block or m))
    _assert_numbers_close(default, report(), rtol=1e-12)


def _reference_weak_residuals(seq, degree=6):
    """The per-member weak-probe formula before the block sweep: full-length
    Legendre Vandermondes and one (5, degree+1, N) @ (N, degree+1) product
    per member."""
    mesh = seq.mesh
    pts, w = mesh_quad_points(mesh, convergence.ANALYTIC_QUAD_N if seq.all_analytic else 1)
    flat = pts.ravel()
    x, y = flat.real, flat.imag
    x0, x1 = mesh.nodes.real.min(), mesh.nodes.real.max()
    y0, y1 = mesh.nodes.imag.min(), mesh.nodes.imag.max()
    if mesh.kind == "disk":
        cut = np.maximum(0.0, 1.0 - np.abs(flat) ** 2)
    else:
        cut = np.maximum(0.0, (x - x0) * (x1 - x) * (y - y0) * (y1 - y))
    wc = w.ravel() * cut
    VxT = np.polynomial.legendre.legvander(2.0 * (x - x0) / (x1 - x0) - 1.0, degree).T
    VyT = np.polynomial.legendre.legvander(2.0 * (y - y0) / (y1 - y0) - 1.0, degree).T
    norms = np.maximum(np.abs(VxT) @ (wc * np.abs(VyT)).T, 1e-300)

    def sample(field):
        if seq.all_analytic:
            fz, fzbar = field.analytic.derivatives(pts)
        else:
            d = wirtinger_derivatives(field)
            fz, fzbar = d.fz[:, None], d.fzbar[:, None]
        fz, fzbar = np.broadcast_to(fz, pts.shape), np.broadcast_to(fzbar, pts.shape)
        return fz, fzbar, np.abs(fz) ** 2 - np.abs(fzbar) ** 2

    lim = sample(seq.limit)
    residuals = []
    for member in seq.members:
        fz, fzbar, jac = sample(member)
        dfz, dfzbar = fz - lim[0], fzbar - lim[1]
        block = np.stack([dfz.real, dfz.imag, dfzbar.real, dfzbar.imag, jac - lim[2]])
        block = block.reshape(5, -1) * wc
        pairings = (block[:, None, :] * VxT) @ VyT.T
        residuals.append(max([0.0] + [float(np.max(q)) for q in np.abs(pairings) / norms]))
    return residuals


@pytest.fixture(scope="module")
def weak_reference():
    """Reference residuals per sequence fixture, computed once."""
    return {}


@pytest.mark.parametrize("fixture", ["drift_seq", "osc_seq", "moll_seq"])
def test_weak_probe_matches_per_member_reference(request, weak_reference, fixture):
    seq = request.getfixturevalue(fixture)
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0)
    if fixture not in weak_reference:
        weak_reference[fixture] = _reference_weak_residuals(seq)
    assert np.allclose(rep.weak_probe_residuals, weak_reference[fixture],
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("group", [1, 5, 100])
def test_weak_probe_is_member_group_invariant(monkeypatch, weak_reference, osc_seq, group):
    # 16 members: one per product, groups of 5 (the last one partial), all in one
    monkeypatch.setattr(convergence, "PROBE_GROUP", group)
    if "osc_seq" not in weak_reference:
        weak_reference["osc_seq"] = _reference_weak_residuals(osc_seq)
    assert np.allclose(weak_probe(osc_seq), weak_reference["osc_seq"], rtol=1e-12, atol=0.0)


def test_nonpositive_jacobian_in_one_block_gives_inf(unit_square_16):
    # member 1 folds (J = -3) below Im z = 0.05: the first row of cells,
    # inside the first block only; its other blocks are finite
    mesh = unit_square_16

    def folded(z):
        bad = np.asarray(z).imag < 0.05
        return np.ones(np.shape(z), dtype=complex), np.where(bad, 2.0, 0.0) + 0j

    members = [MappingField(mesh, mesh.nodes.copy(), analytic=analytic_affine(1.1, 0.0)),
               MappingField(mesh, mesh.nodes.copy(),
                            analytic=AnalyticMap(lambda z: z, folded)),
               MappingField(mesh, mesh.nodes.copy(), analytic=analytic_affine(1.05, 0.0))]
    limit = MappingField(mesh, mesh.nodes.copy(), analytic=analytic_affine(1.0, 0.0))
    seq = SequenceHandle(mesh, members, limit)

    pts, _ = mesh_quad_points(mesh, convergence.ANALYTIC_QUAD_N)
    step = convergence.BLOCK_POINTS // pts.shape[1]
    folded_tris = np.flatnonzero(np.any(pts.imag < 0.05, axis=1))
    assert folded_tris.max() // step == folded_tris.min() // step < (mesh.n_triangles - 1) // step

    spec = FunctionalSpec(family="lp_mean", p=2.0)
    rep = radon_riesz_diagnose(spec, seq, p_RR=2.0, r_list={"df": 1.5})
    for series in (rep.energy_series, rep.conclusions["phi"]["series"]):
        assert np.isfinite(series[0]) and np.isfinite(series[2])
        assert series[1] == np.inf
    assert lsc_checks([spec], seq)[0].member_energies[1] == np.inf


def test_pointwise_proxy_drift_closed_form(drift_seq):
    # the last member differs from the limit by constant derivatives
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq, p_RR=2.0)
    n = len(drift_seq)
    a, b = 1.0 + 0.4 / n, 0.2 + 0.1 / n
    expected = {"df": np.hypot(0.4 / n, 0.1 / n),
                "jac": abs((a ** 2 - b ** 2) - (1.0 - 0.2 ** 2)),
                "mu": abs(b / a - 0.2)}
    for qname, value in expected.items():
        assert rep.pointwise_proxy[qname]["median"] == pytest.approx(value, rel=1e-12)
        assert rep.pointwise_proxy[qname]["p95"] == pytest.approx(value, rel=1e-12)


def test_diagnose_energies_closed_form(drift_seq):
    # affine members have constant Phi, so each energy is Phi times the
    # mesh's area
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    rep = radon_riesz_diagnose(spec, drift_seq, p_RR=2.0)
    area = drift_seq.mesh.total_area
    for j, energy in enumerate(rep.energy_series, start=1):
        a, b = 1.0 + 0.4 / j, 0.2 + 0.1 / j
        phi = phi_eval(spec, np.sqrt(2.0 * (a ** 2 + b ** 2)), a ** 2 - b ** 2)
        assert energy == pytest.approx(phi * area, rel=1e-12)
    phi = phi_eval(spec, np.sqrt(2.0 * 1.04), 0.96)
    assert rep.limit_energy == pytest.approx(phi * area, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_folded_limit_phi_distance_is_inf_without_warnings(disk3):
    # a = 0.5, b = 1 folds members and limit alike: Phi is inf on both, and
    # inf - inf must neither warn nor turn the distance into nan
    seq = generate(SequenceRecipe(kind="affine_drift", params={"a": 0.5, "b": 1.0},
                                  j_max=4), disk3)
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0)
    assert rep.conclusions["phi"]["series"] == [np.inf] * 4


def test_nodal_derivatives_match_wirtinger_derivatives(moll_seq):
    # a triangle range of a nodal member samples the same sums as the
    # member's P1 derived field
    pts, _ = mesh_quad_points(moll_seq.mesh, 1)
    tris = slice(5, 5 + moll_seq.mesh.n_triangles // 3)
    for index, field in ((-1, moll_seq.limit), (2, moll_seq.members[2])):
        fz, fzbar = convergence._derivatives_at(moll_seq, index, pts, tris)
        d = wirtinger_derivatives(field)
        assert fz.shape == fzbar.shape == pts[tris].shape
        assert np.array_equal(fz[:, 0], d.fz[tris])
        assert np.array_equal(fzbar[:, 0], d.fzbar[tris])


def test_nodal_diagnose_builds_derivatives_once(monkeypatch, moll_seq):
    # the mesh's Wirtinger coefficients serve every member; only the
    # limit's Jacobian sign takes a derived field
    from fdmaps import fields
    calls = {"wirtinger": 0, "coefficients": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    coefficients = counting("coefficients", fields.derivative_coefficients)
    monkeypatch.setattr(fields, "derivative_coefficients", coefficients)
    monkeypatch.setattr(convergence, "derivative_coefficients", coefficients)
    monkeypatch.setattr(convergence, "wirtinger_derivatives",
                        counting("wirtinger", fields.wirtinger_derivatives))
    seq = SequenceHandle(moll_seq.mesh, moll_seq.members, moll_seq.limit)
    radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0)
    assert calls["wirtinger"] == 1
    assert 1 <= calls["coefficients"] <= 2


def test_nodal_diagnose_memory_is_bounded():
    # tracemalloc sees numpy's buffers: the chunked mollifier, the sweep's
    # temporaries and what the handle keeps after a diagnose stay small on a
    # level-5 mollified sequence of 64 members
    import tracemalloc

    import fdmaps
    mib = 2.0 ** 20
    mesh = fdmaps.build_disk_mesh(5)
    recipe = SequenceRecipe(kind="mollified",
                            params={"target": "radial_stretch", "alpha": 2.0}, j_max=64)
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    tracemalloc.start()
    try:
        seq = generate(recipe, mesh)
        _, generate_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        report = radon_riesz_diagnose(spec, seq, p_RR=2.0,
                                      r_list={"df": 1.5, "jac": 0.5, "mu": 1.0})
        after, diagnose_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "StrongConvergence"
    assert generate_peak < 8 * mib
    assert diagnose_peak - before < 16 * mib
    assert after - before < 4 * mib
