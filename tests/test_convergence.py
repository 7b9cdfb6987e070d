import json

import numpy as np
import pytest

from fdmaps import convergence
from fdmaps.convergence import (Tolerances, good_set, jacobian_area_identity,
                                lr_gap, lsc_check, orlicz_gauge, orlicz_norm,
                                quantity_scale, radon_riesz_diagnose,
                                sobolev_norm, tail_slice, weak_probe)
from fdmaps.errors import ConfigurationError, DomainError
from fdmaps.fields import (MappingField, sample_analytic,
                           wirtinger_derivatives)
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
    res = lsc_check(FunctionalSpec(family="dirichlet"), osc_seq)
    assert res.holds
    area = osc_seq.mesh.total_area
    assert res.limit_energy == pytest.approx(2.0 * area, rel=1e-6)
    assert res.liminf_energy == pytest.approx(2.5 * area, rel=1e-3)


def test_lsc_on_drift(drift_seq):
    res = lsc_check(FunctionalSpec(family="lp_mean", p=2.0), drift_seq)
    assert res.holds
    assert res.limit_bad_area == 0.0


def test_good_set_radial_stretch(disk5):
    d = wirtinger_derivatives(sample_analytic(disk5, "radial_stretch", 2.0))
    gs = good_set(d, np.zeros(disk5.n_triangles), 0.01)
    # J = 2|z|^2 < 0.01 on |z|^2 < 0.005, an area of pi * 0.005
    assert gs.complement_area == pytest.approx(np.pi * 0.005, abs=2e-3)


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


def test_jacobian_area_identity(disk5):
    d = wirtinger_derivatives(sample_analytic(disk5, "identity"))
    total, target = jacobian_area_identity(d)
    assert target == pytest.approx(np.pi)
    assert total == pytest.approx(np.pi, rel=1e-3)


def test_diagnose_verdict_on_drift(drift_seq):
    # the drift closes its gaps at rate 1/j, so grant commensurate tolerances
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq,
                               p_RR=2.0, s=0.01,
                               r_list={"df": 1.5, "jac": 0.5, "mu": 1.0},
                               tolerances=Tolerances(hypothesis_rel=0.2,
                                                     conclusion_rel=0.2,
                                                     weak_rel=0.2))
    assert rep.verdict == "StrongConvergence"
    assert rep.energy_convergence
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


def test_gaps_to_csv(tmp_path, drift_seq):
    from fdmaps.convergence import gaps_to_csv
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), drift_seq,
                               p_RR=2.0)
    path = tmp_path / "gaps.csv"
    gaps_to_csv(rep, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == len(drift_seq) + 1


def test_lsc_hyperbolic_weight_on_disk_matches_direct_sum(drift_seq):
    # drift members are affine, so Phi is constant and the energy is
    # Phi * sum(w / (1 - |z|^2)^2) over the quadrature points
    spec = FunctionalSpec(family="lp_mean", p=2.0, weight="hyperbolic")
    res = lsc_check(spec, drift_seq)
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
        lsc_check(spec, osc_seq)
    with pytest.raises(DomainError):
        radon_riesz_diagnose(spec, osc_seq, p_RR=2.0)


def test_diagnose_samples_each_field_once(monkeypatch, unit_square_16):
    seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=8), unit_square_16)
    calls = {"derivatives": 0, "quadrature": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(convergence, "_derivatives_at",
                        counted("derivatives", convergence._derivatives_at))
    monkeypatch.setattr(convergence, "mesh_quad_points",
                        counted("quadrature", convergence.mesh_quad_points))
    radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq, p_RR=2.0,
                         r_list={"df": 1.5, "jac": 0.5, "mu": 1.0, "fzbar": 2.0})
    assert calls == {"derivatives": len(seq) + 1, "quadrature": 1}


def _subdomain(kind, mesh):
    if kind == "mask":
        return np.arange(mesh.n_triangles) % 2 == 0
    if kind == "index":
        return np.arange(0, mesh.n_triangles, 3)
    return None


@pytest.mark.parametrize("sub_kind", [None, "mask", "index"])
@pytest.mark.parametrize("fixture", ["drift_seq", "osc_seq", "moll_seq"])
def test_diagnose_matches_standalone_measurements(request, fixture, sub_kind):
    seq = request.getfixturevalue(fixture)
    subdomain = _subdomain(sub_kind, seq.mesh)
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    r_list = {"df": 1.5, "jac": 0.5, "mu": 1.0, "fz": 2.0, "fzbar": 2.0}
    rep = radon_riesz_diagnose(spec, seq, p_RR=2.0, r_list=r_list, subdomain=subdomain)

    def close(a, b):
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    # the weak probe always integrates over the whole mesh
    close(rep.weak_probe_residuals, weak_probe(seq))
    for qname, r in r_list.items():
        close(rep.conclusion_gaps[qname]["series"], lr_gap(seq, qname, r, subdomain))
        scale = max(quantity_scale(seq, qname, r, subdomain), 1e-12)
        close(rep.conclusion_gaps[qname]["scale"], scale)
    if subdomain is None:
        # p_RR equals the family's p, so the energy series is the plain energy
        lsc = lsc_check(spec, seq)
        close(rep.energy_series, lsc.member_energies)
        close(rep.limit_energy, lsc.limit_energy)
