import itertools
import json
import sys
import threading
import warnings

import numpy as np
import pytest

from fdmaps import convergence, geometry
from fdmaps.convergence import (SequenceHandle, Tolerances, lr_gap, lsc_checks,
                                orlicz_gauge, orlicz_norm, quantity_scale,
                                radon_riesz_diagnose, sobolev_norm, tail_slice,
                                weak_probe)
from fdmaps.errors import ConfigurationError, DomainError
from fdmaps.fields import (AnalyticMap, MappingField, analytic_affine, analytic_oscillation,
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


def test_weak_residuals_at_rounding_level_pass(disk5):
    # the mollifier reproduces an affine map, so every residual is rounding
    # noise (at most 3.5e-16 of ||f|| ~ 1) and need not decay
    seq = generate(SequenceRecipe(kind="mollified",
                                  params={"target": "affine", "a": 1.0, "b": 0.3},
                                  j_max=16), disk5)
    report = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0)
    residuals = report.weak_probe_residuals
    assert max(residuals) <= 1e-15 and residuals[-1] > 0.5 * max(residuals)
    assert report.hypotheses["weak_probe_ok"]
    assert (report.verdict, report.decided_by) == ("StrongConvergence", "all")


def test_weak_probe_oscillation_closed_form(osc_seq):
    # f_j - f = sin(2 pi j x) / (2 pi j), whose squared L^2 norm on the unit
    # square is (1/2) / (2 pi j)^2
    area = osc_seq.mesh.total_area
    for j, res in enumerate(weak_probe(osc_seq), start=1):
        assert res == pytest.approx(np.sqrt(area / 2.0) / (2.0 * np.pi * j), rel=1e-3)


@pytest.mark.parametrize("measure, quantity, r", [
    (quantity_scale, "df", 0), (quantity_scale, "df", -1), (quantity_scale, "phi", 1),
    (lr_gap, "df", float("nan")), (lr_gap, "df", float("inf")), (lr_gap, "f", 2.0),
    (lr_gap, "df", True)])
def test_measurements_refuse_bad_quantities_and_exponents(drift_seq, measure, quantity, r):
    # one check for the standalone measurements and the r_list of a diagnose
    with pytest.raises(ConfigurationError):
        measure(drift_seq, quantity, r)
    with pytest.raises(ConfigurationError):
        radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq,
                             p_RR=2.0, r_list={quantity: r})


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


def test_closed_form_limit_folds_on_its_closed_form(unit_square_16):
    # f = z + 2 sin(2 pi x) / (2 pi): f_z = 1 + c, f_zbar = c with
    # c = cos(2 pi x), so J = 1 + 2c <= 0 on 1/3 <= x <= 2/3, a third of the
    # square.  The P1 interpolant at the 16 x 16 nodes folds 3/8 of it
    def value(z):
        return z + np.sin(2.0 * np.pi * np.asarray(z).real) / np.pi

    def jet(z, x=None):
        c = np.cos(2.0 * np.pi * np.asarray(z).real) + 0j
        return value(z), 1.0 + c, c

    limit = MappingField(unit_square_16, analytic=AnalyticMap(value, jet))
    seq = SequenceHandle(unit_square_16, [limit] * 2, limit)
    spec = FunctionalSpec(family="dirichlet")
    rep = radon_riesz_diagnose(spec, seq, p_RR=2.0)
    assert rep.hypotheses["jacobian_bad_fraction"] == pytest.approx(1 / 3, abs=2e-3)
    bad_area = lsc_checks([spec], seq)[0].limit_bad_area
    assert bad_area / unit_square_16.total_area == pytest.approx(1 / 3, abs=2e-3)


@pytest.mark.parametrize("kind, mesh", [("affine_drift", "disk3"),
                                        ("oscillation", "unit_square_16")])
def test_closed_form_diagnose_and_lsc_sample_no_nodes(request, kind, mesh):
    # the limit's folded area comes from the sweep's samples as well, so no
    # field of a closed-form sequence, the limit included, samples its nodes
    seq = generate(SequenceRecipe(kind=kind, params={}, j_max=4),
                   request.getfixturevalue(mesh))
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    radon_riesz_diagnose(spec, seq, p_RR=2.0)
    lsc_checks([spec], seq)
    assert all(field._values is None for field in [*seq.members, seq.limit])


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
    # the diagnose makes one sweep, at any block size and thread count: it
    # samples every field block by block, the blocks covering every
    # quadrature point of every field exactly once, and builds each block's
    # quadrature once, when the block is reached.  Each field's values come
    # with its derivatives, one evaluation per block.  Blocks of 8,192
    # points and of 256 points (4 triangles) both split the mesh, and the
    # members are sampled on one thread and on two
    seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=8), unit_square_16)
    k = convergence.ANALYTIC_QUAD_N ** 2
    m = unit_square_16.n_triangles
    sweep = convergence._sweep
    derivatives_at, quad_points = convergence._derivatives_at, convergence.mesh_quad_points
    lock = threading.Lock()  # the members' threads share the counts
    for block_points, threads in itertools.product((geometry.BLOCK_ROWS, 4 * k), (1, 2)):
        monkeypatch.setattr(geometry, "BLOCK_ROWS", block_points)
        monkeypatch.setattr(convergence, "available_cpus", lambda n=threads: n)
        sweeps = []  # per sweep: samples of each (field, triangle, point), row 0 the limit
        quad_covered = np.zeros(m, dtype=int)
        calls = {"blocks": 0, "quadrature": 0}

        def recorded_sweep(seq_, measurements, members=None):
            sweeps.append(np.zeros((len(seq) + 1, m, k), dtype=int))
            sweep(seq_, measurements, members)

        def recorded(seq_, index, pts, tris=slice(None), x=None):
            with lock:
                sweeps[-1][index + 1][tris] += 1
                calls["blocks"] += 1
            f, fz, fzbar = jet = derivatives_at(seq_, index, pts, tris, x)
            assert np.shape(f) == np.shape(pts)  # the values come with the derivatives
            return jet

        def counted(mesh, n, tris=slice(None)):
            quad_covered[tris] += 1
            calls["quadrature"] += 1
            return quad_points(mesh, n, tris)

        monkeypatch.setattr(convergence, "_sweep", recorded_sweep)
        monkeypatch.setattr(convergence, "_derivatives_at", recorded)
        monkeypatch.setattr(convergence, "mesh_quad_points", counted)
        radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0,
                             r_list={"df": 1.5, "jac": 0.5, "mu": 1.0, "fzbar": 2.0})
        blocks = -(-m * k // block_points)
        assert blocks > 1
        assert len(sweeps) == 1
        assert np.all(sweeps[0] == 1)
        assert calls["quadrature"] == blocks
        assert np.all(quad_covered == 1)
        assert calls["blocks"] == (len(seq) + 1) * blocks


def test_diagnose_memory_is_bounded():
    # the sweep holds one block and a few sums, so its traced peak does not
    # grow with the mesh: 64x64 has four times the 131,072 quadrature points
    # of 32x32.  Neither the whole mesh's quadrature nor a buffer of the
    # differences of the convergence in measure is held (2.2 and 2.3 MiB;
    # 11.9 and 20.9 MiB with one buffer of the points per quantity)
    import tracemalloc

    import fdmaps
    mib = 2.0 ** 20
    peaks = {}
    for nx in (32, 64):
        mesh = fdmaps.build_rect_mesh(nx, nx, 0.0, 1.0 + 1.0j)
        seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=2), mesh)
        tracemalloc.start()
        try:
            radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0,
                                 r_list={"fzbar": 2.0})
            _, peaks[nx] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[64] <= peaks[32] + mib
    assert peaks[64] < 4 * mib


def test_diagnose_memory_does_not_grow_with_the_cpus(monkeypatch):
    # the sweep's threads are capped (MAX_THREADS = 4), so on 64 CPUs it
    # holds one block and at most four member samples, not one per CPU, on
    # the closed-form path (the 32 x 32 oscillation) and on the nodal one
    # (the level-5 mollified disk).  After a first run has filled the lazy
    # caches, the traced peaks on 1, 4 and 64 CPUs are 2.0, 4.1 and 4.1 MiB
    # on the oscillation and 2.0, 2.7-3.1 and 2.9-3.1 MiB on the disk
    import tracemalloc

    import fdmaps
    mib = 2.0 ** 20
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    runs = [(generate(SequenceRecipe(kind="oscillation", params={}, j_max=64),
                      fdmaps.build_rect_mesh(32, 32, 0.0, 1.0 + 1.0j)), {"fzbar": 2.0}),
            (generate(SequenceRecipe(kind="mollified",
                                     params={"target": "radial_stretch", "alpha": 2.0},
                                     j_max=64), fdmaps.build_disk_mesh(5)),
             {"df": 1.5, "jac": 0.5, "mu": 1.0})]
    for seq, r_list in runs:
        radon_riesz_diagnose(spec, seq, p_RR=2.0, r_list=r_list)
        peaks = {}
        for cpus in (1, 4, 64):
            monkeypatch.setattr(convergence, "available_cpus", lambda n=cpus: n)
            tracemalloc.start()
            try:
                radon_riesz_diagnose(spec, seq, p_RR=2.0, r_list=r_list)
                _, peaks[cpus] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[64] <= peaks[4] + 0.25 * mib
        assert peaks[64] <= peaks[1] + 3 * mib


def test_closed_form_sequences_hold_no_nodal_arrays():
    # generate keeps the closed forms, not one nodal array per member
    # (64 x 4,225 nodes x 16 B = 4.2 MiB at j_max 64); the oscillation limit
    # keeps its copy of the nodes
    import tracemalloc

    import fdmaps
    mib = 2.0 ** 20
    mesh = fdmaps.build_rect_mesh(64, 64, 0.0, 1.0 + 1.0j)
    held = {}
    for j_max in (16, 64):
        tracemalloc.start()
        try:
            seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=j_max), mesh)
            held[j_max], _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del seq
    assert held[64] < mib
    assert held[64] <= held[16] + 0.5 * mib


def test_closed_form_diagnose_reads_no_member_values(monkeypatch, unit_square_16):
    # the weak residual evaluates each member's closed form at the quadrature
    # points; no member's nodes are sampled until its values are read
    from fdmaps import sequences
    sampled = []  # (j, shape of the points) per evaluation of a member's closed form

    def recorded(j):
        amap = analytic_oscillation(j)
        return AnalyticMap(lambda z: sampled.append((j, np.shape(z))) or amap.value(z),
                           lambda z, x=None: sampled.append((j, np.shape(z))) or amap.jet(z, x))

    monkeypatch.setattr(sequences, "analytic_oscillation", recorded)
    seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=4), unit_square_16)
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0)
    assert rep.verdict == "EnergyGap"
    nodes = seq.mesh.nodes.shape
    assert sorted({j for j, _ in sampled}) == [1, 2, 3, 4]
    assert all(shape != nodes for _, shape in sampled)
    del sampled[:]
    assert np.array_equal(seq.members[2].values, analytic_oscillation(3).value(seq.mesh.nodes))
    assert sampled == [(3, nodes)]


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


def test_mu_gap_counts_the_other_fields_mu_where_one_fz_is_zero(unit_square_16):
    # the member's f_z is 0 left of x = 1/2, where its mu is 0 and the
    # limit's is 1/2; right of it the two agree.  The gap and the
    # convergence in measure count the left half
    def left(z):
        return np.asarray(z).real < 0.5

    def jet(z, x=None):
        return (np.where(left(z), 0.5 * np.conj(z), z + 0.5 * np.conj(z)),
                np.where(left(z), 0.0, 1.0) + 0j, np.full(np.shape(z), 0.5 + 0j))

    member = MappingField(unit_square_16, analytic=AnalyticMap(lambda z: jet(z)[0], jet))
    limit = MappingField(unit_square_16, analytic=analytic_affine(1.0, 0.5))
    seq = SequenceHandle(unit_square_16, [member], limit)
    pts, w = mesh_quad_points(unit_square_16, seq.quad_n)
    assert lr_gap(seq, "mu", 1.0) == [pytest.approx(0.5 * w[left(pts)].sum(), rel=1e-12)]
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0)
    share = w[left(pts)].sum() / w.sum()
    assert rep.pointwise_proxy["mu"] == pytest.approx([share] * 3, rel=1e-12)


@pytest.mark.parametrize("fixture", ["drift_seq", "moll_seq"])
def test_mu_scale_is_the_limits_gap_to_the_zero_field(request, fixture):
    seq = request.getfixturevalue(fixture)
    mesh = seq.mesh
    zero = MappingField(mesh, np.zeros(mesh.n_nodes, dtype=complex),
                        analytic=analytic_affine(0.0, 0.0) if seq.all_analytic else None)
    to_zero = SequenceHandle(mesh, [zero], seq.limit)
    for r in (0.5, 1.0, 2.0):
        scale = quantity_scale(seq, "mu", r)
        assert scale > 0.0
        assert scale == lr_gap(to_zero, "mu", r)[0]


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
    monkeypatch.setattr(geometry, "BLOCK_ROWS", k * (tris_per_block or m))
    blocked = report()
    _assert_numbers_close(default, blocked, rtol=1e-12)


@pytest.mark.parametrize("fixture", ["osc_seq", "moll_seq", "drift_seq"])
def test_sweep_thread_count_keeps_the_bits(monkeypatch, request, fixture):
    # each member's sums are written by its own thread and receive the blocks
    # in order, so 1, 2 and 5 threads give equal reports and LSC results, bit
    # for bit, on blocks of 7 triangles.  The threads trade the interpreter
    # every microsecond, so a lost or reordered update would show
    seq = request.getfixturevalue(fixture)
    k = convergence.ANALYTIC_QUAD_N ** 2 if seq.all_analytic else 1
    monkeypatch.setattr(geometry, "BLOCK_ROWS", 7 * k)
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    specs = [spec, FunctionalSpec(family="exp_p", p=1.0)]
    r_list = {"df": 1.5, "jac": 0.5, "mu": 1.0, "fz": 2.0, "fzbar": 2.0}

    def results(threads):
        monkeypatch.setattr(convergence, "available_cpus", lambda: threads)
        # p_RR != p, so the energy series and the plain-Phi energies differ
        return (radon_riesz_diagnose(spec, seq, p_RR=3.0, r_list=r_list).to_json(),
                lsc_checks(specs, seq))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        one, two, five = results(1), results(2), results(5)
    finally:
        sys.setswitchinterval(interval)
    assert one == two
    assert one == five


def test_partial_last_block_keeps_the_bits(monkeypatch):
    # 15 x 16 cells make 480 triangles, three blocks of 128 and a last one
    # of 96, which each thread samples into the leading rows of its block:
    # 1, 2 and 5 threads give equal reports, bit for bit
    import fdmaps
    mesh = fdmaps.build_rect_mesh(15, 16, 0.0, 1.0 + 1.0j)
    seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=8), mesh)
    step = geometry.BLOCK_ROWS // convergence.ANALYTIC_QUAD_N ** 2
    assert (mesh.n_triangles // step, mesh.n_triangles % step) == (3, 96)
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    r_list = {"df": 1.5, "jac": 0.5, "mu": 1.0, "fz": 2.0, "fzbar": 2.0}

    def report(threads):
        monkeypatch.setattr(convergence, "available_cpus", lambda: threads)
        return radon_riesz_diagnose(spec, seq, p_RR=3.0, r_list=r_list).to_json()

    one = report(1)
    assert report(2) == one
    assert report(5) == one


class _Failing(convergence._Measurement):
    """Calls `fail` in the second block that it sees of member 1, or of the
    limit when `at_limit`."""

    def __init__(self, fail, at_limit):
        self.fail, self.at_limit, self.seen = fail, at_limit, 0

    def _count(self):
        self.seen += 1
        if self.seen == 2:
            self.fail()

    def limit(self, block, lim):
        if self.at_limit:
            self._count()

    def member(self, block, j, f, lim):
        if j == 1 and not self.at_limit:
            self._count()


def _leave_the_domain():
    raise DomainError("member 1 left the domain")


def _divide_by_zero():
    np.divide(1.0, np.zeros(1))  # numpy warns; the filter below makes that an error


@pytest.mark.parametrize("threads", [1, 2, 5])
def test_sweep_hooks_keep_the_callers_error_state(monkeypatch, drift_seq, threads):
    # every thread samples in a copy of the caller's context, whichever of
    # them builds a block, so the caller's np.errstate reaches a member hook
    # and a limit hook, and the floating-point error reaches the caller
    monkeypatch.setattr(convergence, "available_cpus", lambda: threads)
    outcome = []

    def sweep(at_limit):
        try:
            with np.errstate(divide="raise"):
                convergence._sweep(drift_seq, [_Failing(_divide_by_zero, at_limit)])
        except BaseException as exc:
            outcome.append(exc)

    for at_limit in (False, True):
        runner = threading.Thread(target=sweep, args=(at_limit,), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the sweep did not return"
    assert [type(exc) for exc in outcome] == [FloatingPointError] * 2


@pytest.mark.parametrize("threads", [1, 2, 5])
@pytest.mark.parametrize("fail, at_limit, error, message", [
    (_leave_the_domain, False, DomainError, "member 1 left the domain"),
    (_divide_by_zero, False, RuntimeWarning, "divide by zero encountered in divide"),
    (_leave_the_domain, True, DomainError, "member 1 left the domain"),
])
def test_sweep_failure_reaches_the_caller(monkeypatch, drift_seq, threads, fail,
                                           at_limit, error, message):
    # a failure in a member's thread, or in the limit's part of a block,
    # is raised to the caller with its type and message, and no thread
    # outlives the sweep.  The sweep runs on a thread of its own, so a
    # deadlock fails the test instead of hanging it
    monkeypatch.setattr(convergence, "available_cpus", lambda: threads)
    assert drift_seq.mesh.n_triangles * convergence.ANALYTIC_QUAD_N ** 2 > geometry.BLOCK_ROWS
    before = threading.active_count()
    outcome = []

    def sweep():
        try:
            convergence._sweep(drift_seq, [_Failing(fail, at_limit)])
        except BaseException as exc:
            outcome.append(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runner = threading.Thread(target=sweep, daemon=True)
        runner.start()
        runner.join(timeout=60)
    assert not runner.is_alive(), "the sweep did not return"
    assert threading.active_count() == before
    assert len(outcome) == 1
    assert type(outcome[0]) is error
    assert str(outcome[0]) == message


@pytest.mark.parametrize("n", [1, convergence.ANALYTIC_QUAD_N])
def test_quadrature_does_not_depend_on_the_block(unit_square_16, n):
    # a lone triangle's points are formed by the same matrix product as a
    # block's, so one triangle at a time, blocks of 7 and the whole mesh
    # give the same bits
    m = unit_square_16.n_triangles
    pts, w = mesh_quad_points(unit_square_16, n)
    for step in (1, 7):
        parts = [mesh_quad_points(unit_square_16, n, slice(s, s + step))
                 for s in range(0, m, step)]
        assert np.array_equal(np.concatenate([p for p, _ in parts]), pts)
        assert np.array_equal(np.concatenate([v for _, v in parts]), w)


def _reference_weak_residuals(seq):
    """||f_j - f||_{L^2} per member over the whole mesh's quadrature in one
    piece: closed-form values at the points, or the centroid values of each
    member's derived field."""
    pts, w = mesh_quad_points(seq.mesh, convergence.ANALYTIC_QUAD_N if seq.all_analytic else 1)

    def values(field):
        if seq.all_analytic:
            return field.analytic.value(pts)
        return wirtinger_derivatives(field).f_centroid[:, None]

    lim = values(seq.limit)
    return [float(np.sqrt(np.sum(np.abs(values(member) - lim) ** 2 * w)))
            for member in seq.members]


@pytest.mark.parametrize("fixture", ["drift_seq", "osc_seq", "moll_seq"])
def test_weak_probe_matches_per_member_reference(request, fixture):
    seq = request.getfixturevalue(fixture)
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0)
    assert np.allclose(rep.weak_probe_residuals, _reference_weak_residuals(seq),
                       rtol=1e-12, atol=0.0)


def test_nonpositive_jacobian_in_one_block_gives_inf(unit_square_16):
    # member 1 folds (J = -3) below Im z = 0.05: the first row of cells,
    # inside the first block only; its other blocks are finite
    mesh = unit_square_16

    def folded(z, x=None):
        bad = np.asarray(z).imag < 0.05
        return z, np.ones(np.shape(z), dtype=complex), np.where(bad, 2.0, 0.0) + 0j

    members = [MappingField(mesh, mesh.nodes.copy(), analytic=analytic_affine(1.1, 0.0)),
               MappingField(mesh, mesh.nodes.copy(),
                            analytic=AnalyticMap(lambda z: z, folded)),
               MappingField(mesh, mesh.nodes.copy(), analytic=analytic_affine(1.05, 0.0))]
    limit = MappingField(mesh, mesh.nodes.copy(), analytic=analytic_affine(1.0, 0.0))
    seq = SequenceHandle(mesh, members, limit)

    pts, _ = mesh_quad_points(mesh, convergence.ANALYTIC_QUAD_N)
    step = geometry.BLOCK_ROWS // pts.shape[1]
    folded_tris = np.flatnonzero(np.any(pts.imag < 0.05, axis=1))
    assert folded_tris.max() // step == folded_tris.min() // step < (mesh.n_triangles - 1) // step

    spec = FunctionalSpec(family="lp_mean", p=2.0)
    rep = radon_riesz_diagnose(spec, seq, p_RR=2.0, r_list={"df": 1.5})
    for series in (rep.energy_series, rep.conclusions["phi"]["series"]):
        assert np.isfinite(series[0]) and np.isfinite(series[2])
        assert series[1] == np.inf
    assert lsc_checks([spec], seq)[0].member_energies[1] == np.inf


def test_pointwise_proxy_drift_closed_form(drift_seq):
    # the last member differs from the limit by constant derivatives, so
    # each quantity's difference is one number and lies above a level at
    # every point or at none
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq, p_RR=2.0)
    n = len(drift_seq)
    a, b = 1.0 + 0.4 / n, 0.2 + 0.1 / n
    # 0.0258, 0.0481 and 0.00122: shares [0, 1, 1] for df and jac, [0, 0, 1] for mu
    diffs = {"df": np.hypot(0.4 / n, 0.1 / n),
             "jac": abs((a ** 2 - b ** 2) - (1.0 - 0.2 ** 2)),
             "mu": abs(b / a - 0.2)}
    proxy = rep.pointwise_proxy
    assert proxy["levels"] == [0.1, 0.01, 0.001]
    for qname, d in diffs.items():
        assert proxy[qname] == [float(d > t) for t in proxy["levels"]]


@pytest.mark.parametrize("fixture", ["drift_seq", "osc_seq", "moll_seq"])
def test_convergence_in_measure_obeys_chebyshev(request, fixture):
    # lambda_q(t) * sum(w) <= (gap_q / t)^r for every quantity of r_list
    # and every level: the shares are taken on the measure the gaps use
    seq = request.getfixturevalue(fixture)
    r_list = {"df": 1.5, "jac": 0.5, "mu": 1.0}
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0,
                               r_list=r_list)
    total = mesh_quad_points(seq.mesh, seq.quad_n)[1].sum()
    proxy = rep.pointwise_proxy
    assert proxy.keys() == {"levels", *r_list}
    for qname, r in r_list.items():
        tail = rep.conclusions[qname]["tail"]
        for t, share in zip(proxy["levels"], proxy[qname]):
            assert 0.0 <= share <= 1.0
            assert share * total <= (tail / t) ** r, (qname, t)


@pytest.mark.filterwarnings("error")
def test_convergence_in_measure_counts_inf_above_every_level(unit_square_16):
    # one block of 40 triangles where the last member's f_z is inf on the
    # first 10 triangles: df and jac are inf there, above every level, and
    # elsewhere their finite differences decide; mu = f_zbar / f_z is 0
    # where f_z is inf, so only its finite differences count
    pts, w = mesh_quad_points(unit_square_16, 1, slice(0, 40))
    bad = np.zeros(w.shape, dtype=bool)
    bad[:10] = True
    ramp = np.linspace(0.0, 0.3, w.size).reshape(w.shape)  # crosses every level
    fz = np.where(bad, np.inf, 1.0 + ramp) + 0j
    fzbar = 0.5 * ramp + 0j
    lim = convergence._Sample(0j, np.ones(w.shape, dtype=complex),
                              np.zeros(w.shape, dtype=complex))
    measure = convergence._InMeasure(2)
    block = convergence._Block(pts, w)
    measure.limit(block, lim)  # the sweep passes the limit first
    measure.member(block, 0, convergence._Sample(0j, fz + 5.0, fzbar), lim)  # not the last
    measure.member(block, 1, convergence._Sample(0j, fz, fzbar), lim)
    proxy = measure.values()
    finite = {"df": np.hypot(ramp, 0.5 * ramp),
              "jac": np.abs((1.0 + ramp) ** 2 - (0.5 * ramp) ** 2 - 1.0),
              "mu": np.where(bad, 0.0, 0.5 * ramp / (1.0 + ramp))}
    for qname, d in finite.items():
        inf_share = 0.0 if qname == "mu" else w[bad].sum()
        for t, share in zip(proxy["levels"], proxy[qname]):
            expected = (inf_share + w[~bad & (d > t)].sum()) / w.sum()
            assert share == pytest.approx(expected, rel=1e-12, abs=0.0), (qname, t)
            assert 0.0 < share <= 1.0


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
    # a triangle range of a nodal member samples the same sums and centroid
    # values as the member's P1 derived field
    pts, _ = mesh_quad_points(moll_seq.mesh, 1)
    tris = slice(5, 5 + moll_seq.mesh.n_triangles // 3)
    for index, field in ((-1, moll_seq.limit), (2, moll_seq.members[2])):
        f, fz, fzbar = convergence._derivatives_at(moll_seq, index, pts, tris)
        d = wirtinger_derivatives(field)
        assert f.shape == fz.shape == fzbar.shape == pts[tris].shape
        assert np.array_equal(f[:, 0], d.f_centroid[tris])
        assert np.array_equal(fz[:, 0], d.fz[tris])
        assert np.array_equal(fzbar[:, 0], d.fzbar[tris])


def test_nodal_diagnose_builds_derivatives_once(monkeypatch, moll_seq):
    # the mesh's Wirtinger coefficients serve every member and the limit,
    # whose Jacobian sign is read from the sweep's sample: no derived field
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
    assert calls["wirtinger"] == 0
    assert calls["coefficients"] == 1


def test_nodal_diagnose_memory_is_bounded(monkeypatch):
    # tracemalloc sees numpy's buffers: the chunked mollifier, the sweep's
    # temporaries and what the handle keeps after a diagnose stay small on a
    # level-5 mollified sequence of 64 members.  The generation is measured
    # again on 5 and on 64 CPUs, whose threads each keep their own mollifier
    # blocks: the thread cap keeps those blocks from growing with the CPUs
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
        del seq
        threaded_peaks = []
        for cpus in (5, 64):
            monkeypatch.setattr(convergence, "available_cpus", lambda n=cpus: n)
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            generate(recipe, mesh)
            threaded_peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert report.verdict == "StrongConvergence"
    assert generate_peak < 8 * mib
    assert max(threaded_peaks) < 8 * mib
    assert diagnose_peak - before < 16 * mib
    assert after - before < 4 * mib
