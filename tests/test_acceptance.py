"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line;
tolerances are stated inline next to the assertions they guard.
"""

import json
import math
import time

import numpy as np
import pytest

import fdmaps
from fdmaps.convergence import lsc_checks, radon_riesz_diagnose
from fdmaps.fields import (DerivedField, MappingField, apply_coefficients,
                           derivative_coefficients, distortions, sample_analytic,
                           wirtinger_derivatives)
from fdmaps.functionals import FunctionalSpec, energy, inverse_energy, weight_values
from fdmaps.hopf import holomorphy_residual, inverse_ahlfors_hopf
from fdmaps.minimize import (BoundaryData, MinimizeConfig, energy_gradient,
                             minimize_energy, prolong, truncation_sweep)
from fdmaps.sequences import SequenceRecipe, generate

FAMILIES = (
    FunctionalSpec(family="lp_mean", p=2.0),
    FunctionalSpec(family="exp_p", p=1.0),
    FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8),
    FunctionalSpec(family="dirichlet"),
)


def _report(num, label, ok):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {label} failed"


def _fd_gradient(spec, mapping, free, h=3e-7):
    # what wirtinger_derivatives and energy would rebuild from the mesh on
    # each of the 4 x 20 x 169 x 4 evaluations is built once; the energies
    # are the same bits
    mesh = mapping.mesh
    a, b = derivative_coefficients(mesh)
    eta = weight_values(spec, mesh.centroids())

    def field_energy(values):
        # the forward energy reads no centroid image
        corners = values[mesh.triangles]
        derived = DerivedField(mesh, apply_coefficients(a, corners),
                               apply_coefficients(b, corners), None)
        return energy(spec, derived, eta)

    base = mapping.values
    g = np.zeros(2 * len(base))
    for i in np.where(free)[0]:
        for k, delta in enumerate((h, 1j * h)):
            vp = base.copy(); vp[i] += delta
            vm = base.copy(); vm[i] -= delta
            g[2 * i + k] = (field_energy(vp) - field_energy(vm)) / (2 * h)
    return g


def test_criterion_01_gradient_correctness(disk3):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    free = np.ones(disk3.n_nodes, bool)
    free[disk3.boundary_nodes] = False
    idx = np.repeat(free, 2)
    worst = 0.0
    maps = []
    while len(maps) < 20:
        values = disk3.nodes + 0.03 * (rng.standard_normal(disk3.n_nodes)
                                       + 1j * rng.standard_normal(disk3.n_nodes))
        values[disk3.boundary_nodes] = disk3.nodes[disk3.boundary_nodes]
        m = MappingField(disk3, values, None)
        d = wirtinger_derivatives(m)
        if distortions(d.fz, d.fzbar)[0].min() > 0.1:  # feasibility gate
            maps.append(m)
    for spec in FAMILIES:
        for m in maps:
            g = energy_gradient(spec, m)
            g = np.column_stack([g.real, g.imag]).ravel()
            g_fd = _fd_gradient(spec, m, free)
            rel = (np.linalg.norm(g[idx] - g_fd[idx])
                   / max(np.linalg.norm(g_fd[idx]), 1e-30))
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    _report(1, "gradient-vs-finite-differences",
            worst < 1e-6 and elapsed < 30.0)


def test_criterion_02_closed_form_distortion():
    t0 = time.monotonic()
    medians = []
    for level in (3, 4, 5, 6):
        mesh = fdmaps.build_disk_mesh(level)
        d = wirtinger_derivatives(sample_analytic(mesh, "radial_stretch", 2.0))
        keep = np.abs(mesh.centroids()) > 2.0 ** (-level)  # one mesh size
        khs = distortions(d.fz, d.fzbar)[1]
        medians.append(float(np.median(np.abs(khs - 2.5)[keep])))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    elapsed = time.monotonic() - t0
    _report(2, "sampled-stretch-distortion",
            decreasing and medians[2] < 0.02 * 2.5 and elapsed < 10.0)


def test_criterion_03_minimum_recovery(disk4):
    t0 = time.monotonic()
    ok = True
    for spec, target in ((FunctionalSpec(family="lp_mean", p=2.0), 4.0 * math.pi),
                         (FunctionalSpec(family="exp_p", p=1.0), math.pi * math.e ** 2)):
        res = minimize_energy(spec, disk4, BoundaryData(kind="identity"),
                              MinimizeConfig(max_iterations=2000))
        ok &= abs(res.final_energy - target) / target < 0.01
        ok &= np.abs(res.mapping.values - disk4.nodes).max() < 1e-4
    elapsed = time.monotonic() - t0
    _report(3, "minimum-recovery", ok and elapsed < 240.0)


def test_criterion_04_lower_semicontinuity(disk3):
    t0 = time.monotonic()
    square = fdmaps.build_rect_mesh(64, 64, 0.0, 1.0 + 1.0j)
    sequences = {
        "constant": generate(SequenceRecipe(kind="constant", params={}, j_max=8), disk3),
        "mollified": generate(SequenceRecipe(
            kind="mollified", params={"target": "radial_stretch", "alpha": 2.0},
            j_max=8), disk3),
        "oscillation": generate(SequenceRecipe(kind="oscillation", params={},
                                               j_max=64), square),
        "affine_drift": generate(SequenceRecipe(
            kind="affine_drift", params={"a": 1.0, "b": 0.2, "da": 0.4, "db": 0.1},
            j_max=8), disk3),
    }
    ok = True
    results = {}
    for name, seq in sequences.items():
        # one sweep per sequence measures every family
        results[name] = lsc_checks(FAMILIES, seq)
        for res in results[name]:
            if not np.isfinite(res.limit_energy):
                continue
            if name == "mollified":
                # smoothing pushes member energies slightly below the limit;
                # the deficit must be small and vanish along the sequence
                scale = max(1.0, abs(res.limit_energy))
                deficit = res.limit_energy - res.liminf_energy
                first = res.limit_energy - res.member_energies[0]
                ok &= res.holds or (deficit < 2e-2 * scale and deficit < first)
            else:
                ok &= res.holds
    osc = results["oscillation"][FAMILIES.index(FunctionalSpec(family="dirichlet"))]
    gap = osc.liminf_energy - osc.limit_energy
    ok &= abs(gap - 0.5) < 0.05 * 0.5  # strict Dirichlet gap = area/2
    elapsed = time.monotonic() - t0
    _report(4, "lower-semicontinuity", ok and elapsed < 60.0)


def test_criterion_05_diagnose_positive_case(disk5):
    t0 = time.monotonic()
    seq = generate(SequenceRecipe(kind="mollified",
                                  params={"target": "radial_stretch", "alpha": 2.0},
                                  j_max=32), disk5)
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq,
                               p_RR=2.0, s=0.01,
                               r_list={"df": 1.5, "jac": 0.5, "mu": 1.0})
    ok = rep.verdict == "StrongConvergence"
    for gap in rep.conclusions.values():
        ok &= gap["ok"] and gap["tail"] < 1e-2 * max(gap["scale"], 1.0)
    elapsed = time.monotonic() - t0
    _report(5, "radon-riesz-positive", ok and elapsed < 120.0)


def test_criterion_06_diagnose_negative_case():
    t0 = time.monotonic()
    square = fdmaps.build_rect_mesh(64, 64, 0.0, 1.0 + 1.0j)
    seq = generate(SequenceRecipe(kind="oscillation", params={}, j_max=64), square)
    rep = radon_riesz_diagnose(FunctionalSpec(family="lp_mean", p=2.0), seq,
                               p_RR=2.0, s=0.01, r_list={"fzbar": 2.0})
    ok = rep.verdict == "EnergyGap"
    tail = rep.conclusions["fzbar"]["tail"]
    ok &= abs(tail - math.sqrt(1.0 / 8.0)) < 0.05 * math.sqrt(1.0 / 8.0)
    res = rep.weak_probe_residuals
    ok &= res[3] / res[-1] >= 10.0  # j = 4 to j = 64
    elapsed = time.monotonic() - t0
    _report(6, "radon-riesz-negative", ok and elapsed < 60.0)


def test_criterion_07_truncation_sweep(disk4):
    t0 = time.monotonic()
    n_list = [1, 2, 4, 8, 16]
    results = truncation_sweep(FunctionalSpec(family="trunc_exp", p=1.0), n_list, disk4,
                               BoundaryData(kind="identity"),
                               MinimizeConfig(max_iterations=500))
    ok = True
    for n, r in zip(n_list, results):
        target = math.pi * sum(2.0 ** k / math.factorial(k) for k in range(n + 1))
        ok &= abs(r.final_energy - target) / target < 0.01
    energies = [r.final_energy for r in results]
    ok &= all(a < b for a, b in zip(energies, energies[1:]))
    psis = [inverse_ahlfors_hopf(wirtinger_derivatives(r.mapping), 1.0, n)
            for n, r in zip(n_list, results)]
    gaps = [float(np.nanmax(np.abs(b.values - a.values)))
            for a, b in zip(psis, psis[1:])]
    ok &= all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    elapsed = time.monotonic() - t0
    _report(7, "truncation-sweep", ok and elapsed < 300.0)


def test_criterion_08_hopf_holomorphy():
    t0 = time.monotonic()
    spec = FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8)
    boundary = BoundaryData(kind="circle_diffeo", sin_coeffs=(0.0, 0.3))
    prev = None
    residuals = []
    for level, iters in zip((3, 4, 5), (20000, 60000, 200000)):
        mesh = fdmaps.build_disk_mesh(level)
        init = prolong(prev.mapping, mesh) if prev is not None else None
        res = minimize_energy(spec, mesh, boundary,
                              MinimizeConfig(max_iterations=iters,
                                             gradient_tolerance=1e-9),
                              initial=init)
        psi = inverse_ahlfors_hopf(wirtinger_derivatives(res.mapping), 1.0, 8)
        residuals.append(holomorphy_residual(psi).l1_residual)
        prev = res
    ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
    elapsed = time.monotonic() - t0
    _report(8, "hopf-holomorphy-refinement",
            all(r >= 1.5 for r in ratios) and elapsed < 600.0)


def test_criterion_09_change_of_variables(disk3, disk5):
    t0 = time.monotonic()
    spec = FunctionalSpec(family="exp_p", p=1.0)
    ispec = spec.with_(jac_exp=1.0)
    d_aff = wirtinger_derivatives(sample_analytic(disk3, "affine", 1.0, 1.0 / 3.0))
    rel_aff = abs(inverse_energy(ispec, d_aff) - energy(spec, d_aff)) / energy(spec, d_aff)
    d_str = wirtinger_derivatives(sample_analytic(disk5, "radial_stretch", 2.0))
    rel_str = abs(inverse_energy(ispec, d_str) - energy(spec, d_str)) / energy(spec, d_str)
    elapsed = time.monotonic() - t0
    _report(9, "change-of-variables",
            rel_aff < 1e-10 and rel_str < 0.01 and elapsed < 10.0)


def test_criterion_10_area_identity(disk5):
    t0 = time.monotonic()
    ok = True
    for formula, args in (("identity", ()), ("radial_stretch", (2.0,))):
        d = wirtinger_derivatives(sample_analytic(disk5, formula, *args))
        total = float(np.sum(distortions(d.fz, d.fzbar)[0] * disk5.areas))
        ok &= abs(total - math.pi) / math.pi < 0.01
    elapsed = time.monotonic() - t0
    _report(10, "jacobian-area-identity", ok and elapsed < 5.0)


def test_criterion_11_hypothesis_oracles(tmp_path):
    # the oracle command's battery: the polyconvex bound, convexity of four
    # weighted families, monotone truncations, the concave power, and a
    # planted non-convex control that must fail
    from fdmaps.cli import run
    t0 = time.monotonic()
    n = 100000
    ok = run({"command": "oracle", "oracle": {"n_samples": n}, "seed": 0}, tmp_path) == 0
    results = json.loads((tmp_path / "result.json").read_text())["results"]
    probes = {name: probe["n_samples"] for name, probe in results["probes"].items()}
    ok &= probes == {"polyconvex_lower_bound": n, "convexity_lp_mean_p2": 2 * n,
                     "convexity_exp_p1": 2 * n, "convexity_trunc_exp_p1_n8": 2 * n,
                     "convexity_dirichlet": n, "monotone_truncation": 20 * n,
                     "concavity": n, "nonconvex_control": n}
    ok &= results["all_ok"]
    elapsed = time.monotonic() - t0
    _report(11, "hypothesis-oracles", ok and elapsed < 30.0)


def test_criterion_12_reproducibility(tmp_path):
    from fdmaps.cli import main, run
    config = {
        "command": "diagnose",
        "domain": {"kind": "disk", "level": 3},
        "recipe": {"kind": "affine_drift",
                   "params": {"a": 1.0, "b": 0.2, "da": 0.4, "db": 0.1},
                   "j_max": 8},
        "functional": {"family": "lp_mean", "p": 2.0},
        "diagnostic": {"p_RR": 2.0, "s": 0.01,
                       "r_list": {"df": 1.5, "jac": 0.5, "mu": 1.0}},
        "seed": 7,
    }
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(dict(config), out1) == 0
    assert run(dict(config), out2) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["--config", str(config_path), "--out", str(out3)]) == 0
    b1 = (out1 / "result.json").read_bytes()
    ok = (b1 == (out2 / "result.json").read_bytes()
          and b1 == (out3 / "result.json").read_bytes())
    _report(12, "seeded-reproducibility", ok)
