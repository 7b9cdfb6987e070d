import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

import fdmaps
from fdmaps.cli import main, result_schema, run
from fdmaps.convergence import QUANTITIES, VERDICTS
from fdmaps.functionals import ProbeReport
from fdmaps.geometry import BLOCK_ROWS as DEFAULT_BLOCK_ROWS
from fdmaps.sequences import available_cpus


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_mesh_command(tmp_path):
    config = {"command": "mesh", "domain": {"kind": "disk", "level": 3}}
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")
    assert result["command"] == "mesh"
    assert result["results"]["triangles"] == 6 * 4 ** 3
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["status"] == "ok"
    assert (tmp_path / "mesh.json").exists()


def test_minimize_command(tmp_path):
    config = {
        "command": "minimize",
        "domain": {"kind": "disk", "level": 3},
        "functional": {"family": "lp_mean", "p": 2.0},
        "boundary": {"kind": "identity"},
        "minimize": {"max_iterations": 50},
    }
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")
    assert result["results"]["stop_reason"] == "gradient_tolerance"
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "mapping.csv").exists()


def test_unknown_command_exits_2(tmp_path):
    assert run({"command": "frobnicate"}, tmp_path) == 2
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["status"] == "validation_error"


def test_bad_domain_exits_2(tmp_path):
    assert run({"command": "mesh", "domain": {"kind": "torus"}}, tmp_path) == 2


@pytest.mark.parametrize("command, section, hi", [
    ("mesh", {}, 1e-200),
    ("diagnose", {"recipe": {"kind": "oscillation", "params": {}, "j_max": 2}}, 1e-200),
    ("hopf", {}, 1e-200),
    ("diagnose", {"recipe": {"kind": "oscillation", "params": {}, "j_max": 2}}, 1e300),
])
def test_rect_whose_areas_underflow_or_overflow_exits_2(tmp_path, command, section, hi):
    # such a rectangle used to give mesh a total area of 0, diagnose nan
    # and inf in its result, and hopf an internal error (exit 3)
    config = {"command": command, "domain": {"kind": "rect", "nx": 4, "ny": 4, "hi": [hi, hi]},
              **section}
    assert run(config, tmp_path) == 2
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["status"] == "validation_error"
    assert manifest["failure_reason"].startswith("ConfigurationError: degenerate rectangle")


@pytest.mark.parametrize("config, section", [
    ({"command": "mesh", "domain": {}}, "domain"),
    ({"command": "diagnose", "domain": {"kind": "disk", "level": 2}, "recipe": {}}, "recipe"),
])
def test_missing_required_key_is_named(tmp_path, config, section):
    # a section without its "kind" used to fail with a bare KeyError (a
    # plain table) or TypeError (a Section class) that named no section
    assert run(config, tmp_path) == 2
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["status"] == "validation_error"
    assert manifest["failure_reason"] == f"ConfigurationError: {section} key 'kind' is required"


def test_diagnose_command(tmp_path):
    config = {
        "command": "diagnose",
        "domain": {"kind": "disk", "level": 3},
        "recipe": {"kind": "affine_drift",
                   "params": {"a": 1.0, "b": 0.2, "da": 0.4, "db": 0.1},
                   "j_max": 8},
        "functional": {"family": "lp_mean", "p": 2.0},
        "diagnostic": {"p_RR": 2.0, "s": 0.01,
                       "r_list": {"df": 1.5, "jac": 0.5, "mu": 1.0},
                       # the 1/j drift closes its gaps slowly; loose
                       # tolerances keep this a plumbing test, not a physics one
                       "tolerances": {"hypothesis_rel": 0.2,
                                      "conclusion_rel": 0.2,
                                      "weak_rel": 0.2}},
    }
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")
    assert result["results"]["verdict"] == "StrongConvergence"
    assert result["results"]["decided_by"] == "all"
    assert "gap" in result["results"]
    assert (tmp_path / "gaps.csv").exists()
    # the CPU count that bounds the mollifier's threads, to read wall_time_s by
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["cpus"] == available_cpus() >= 1


@pytest.mark.parametrize("tolerances, verdict, decided_by", [
    ({}, "EnergyGap", "energy_convergence"),
    ({"hypothesis_rel": 0.2, "weak_rel": 0.2, "conclusion_rel": 1e-6},
     "Inconclusive", "conclusion_tails"),
])
def test_diagnose_names_deciding_hypothesis(tmp_path, tolerances, verdict, decided_by):
    config = {
        "command": "diagnose",
        "domain": {"kind": "disk", "level": 2},
        "recipe": {"kind": "affine_drift",
                   "params": {"a": 1.0, "b": 0.2, "da": 0.4, "db": 0.1},
                   "j_max": 8},
        "diagnostic": {"p_RR": 2.0, "tolerances": tolerances},
    }
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")
    assert (result["results"]["verdict"], result["results"]["decided_by"]) == \
        (verdict, decided_by)
    if jsonschema is not None:
        schema = result_schema()
        jsonschema.validate(result, schema)
        result["results"]["decided_by"] = "bogus"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(result, schema)


def test_hopf_command(tmp_path):
    config = {
        "command": "hopf",
        "domain": {"kind": "disk", "level": 5},
        "hopf": {"formula": "affine", "args": [[1.0, 0.0], [0.3, 0.0]],
                 "p": 1.0, "N": 8, "inverse": True},
    }
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")["results"]
    assert result["field_l1"] > 0.0
    # the affine map's inverse Ahlfors-Hopf field is constant: the certificate
    # must fit every interior vertex and find no anti-holomorphic content
    assert result["skipped_vertices"] == 0
    assert result["l1_residual"] <= 1e-9 * result["field_l1"]
    assert (tmp_path / "hopf.csv").exists()
    assert (tmp_path / "derived.csv").exists()


def test_hopf_that_fits_no_vertex_fails(tmp_path):
    # f = conj(z) folds every triangle: the field is nan everywhere and
    # every interior star is skipped, so there is nothing to certify
    config = {"command": "hopf", "domain": {"kind": "disk", "level": 3},
              "hopf": {"formula": "affine", "args": [[0, 0], [1, 0]], "inverse": True}}
    assert run(config, tmp_path) == 3
    result = _read(tmp_path / "result.json")["results"]
    assert result["interior_area"] == 0.0
    assert result["skipped_vertices"] == 169
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["status"] == "numerical_failure"
    assert "169" in manifest["failure_reason"]


@pytest.mark.parametrize("hopf", [
    {"formula": "affine", "args": [[1.0, 0.0], [0.3, 0.0]], "N": 8, "inverse": True},
    {"formula": "radial_stretch", "args": [0.7], "N": None, "weight": "hyperbolic"},
    {"formula": "radial_stretch", "args": [1.5], "N": 4, "inverse": True,
     "weight": "hyperbolic"}])
def test_hopf_artefacts_do_not_depend_on_the_block(tmp_path, monkeypatch, hopf,
                                                   triangle_block):
    from fdmaps import geometry
    config = {"command": "hopf", "domain": {"kind": "disk", "level": 3}, "hopf": hopf}
    assert run(config, tmp_path / "blocks") == 0
    monkeypatch.setattr(geometry, "BLOCK_ROWS", DEFAULT_BLOCK_ROWS)
    assert run(config, tmp_path / "default") == 0
    for name in ("derived.csv", "hopf.csv", "result.json"):
        assert ((tmp_path / "blocks" / name).read_bytes()
                == (tmp_path / "default" / name).read_bytes()), name


def test_constant_recipe_reads_complex_args(tmp_path):
    # the [re, im] pairs of "args" are read as under "hopf"; they used to
    # reach sample_analytic as lists and exit 2 with a TypeError
    config = {
        "command": "diagnose",
        "domain": {"kind": "disk", "level": 2},
        "functional": {"family": "lp_mean", "p": 2.0},
        "recipe": {"kind": "constant", "j_max": 3,
                   "params": {"formula": "affine", "args": [[1.0, 0.0], [0.3, 0.0]]}},
    }
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")["results"]
    assert result["gap"] == 0.0
    assert all(c["series"] == [0.0] * 3 for c in result["conclusions"].values())


@pytest.mark.filterwarnings("error")
def test_diagnose_reports_undefined_beltrami_proxy_as_zero(tmp_path):
    # f = conj(z) has f_z = 0 at every point, so mu is defined nowhere and
    # counts as 0, as in its gap series: every member equals the limit, so
    # no quantity differs from the limit anywhere
    config = {
        "command": "diagnose",
        "domain": {"kind": "disk", "level": 2},
        "functional": {"family": "lp_mean", "p": 2.0},
        "recipe": {"kind": "constant", "j_max": 3,
                   "params": {"formula": "affine", "args": [[0, 0], [1, 0]]}},
    }
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")
    proxy = result["results"]["pointwise_proxy"]
    assert proxy == {"levels": [0.1, 0.01, 0.001], "df": [0.0] * 3, "jac": [0.0] * 3,
                     "mu": [0.0] * 3}
    assert result["results"]["conclusions"]["mu"]["series"] == [0.0] * 3
    # J = -1 folds every point, so the limit's folded share is the whole
    # weight and the Jacobian decides before the energies, all of them inf
    assert result["results"]["verdict"] == "JacobianDegenerate"
    assert result["results"]["decided_by"] == "jacobian"
    assert result["results"]["hypotheses"]["jacobian_bad_fraction"] == 1.0
    if jsonschema is not None:
        jsonschema.validate(result, result_schema())


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_schema_requires_the_convergence_in_measure_record(tmp_path):
    # every quantity's shares are required, and each share lies in [0, 1],
    # as does the limit's folded share
    config = {"command": "diagnose", "domain": {"kind": "disk", "level": 2},
              "recipe": {"kind": "affine_drift", "params": {}, "j_max": 4}}
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")
    schema = result_schema()
    jsonschema.validate(result, schema)
    results = result["results"]
    proxy, hypotheses = results["pointwise_proxy"], results["hypotheses"]
    for key, broken in (("pointwise_proxy", {k: v for k, v in proxy.items() if k != "mu"}),
                        ("pointwise_proxy", {**proxy, "df": [0.0, 1.5, 1.0]}),
                        ("pointwise_proxy", {**proxy, "jac": ["0.5"] * 3}),
                        ("hypotheses", {**hypotheses, "jacobian_bad_fraction": 1.5})):
        result["results"] = {**results, key: broken}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(result, schema)


_OSCILLATION_RUNS = {
    "hopf": lambda args: {"command": "hopf", "domain": {"kind": "disk", "level": 2},
                          "hopf": {"formula": "oscillation", "args": args,
                                   "p": 1.0, "N": 4}},
    "constant": lambda args: {"command": "diagnose", "domain": {"kind": "disk", "level": 2},
                              "functional": {"family": "lp_mean", "p": 2.0},
                              "recipe": {"kind": "constant", "j_max": 2,
                                         "params": {"formula": "oscillation",
                                                    "args": args}}},
}


@pytest.mark.parametrize("path", sorted(_OSCILLATION_RUNS))
def test_oscillation_frequency_must_be_an_integer(tmp_path, path):
    # a fractional frequency is refused, not truncated; an integral float runs
    assert run(_OSCILLATION_RUNS[path]([2.5]), tmp_path / "half") == 2
    reason = _read(tmp_path / "half" / "manifest.json")["failure_reason"]
    assert "oscillation frequency j" in reason and "2.5" in reason
    # j = 0 would divide by zero, and -j is the same map as j
    for j in (0, -2):
        assert run(_OSCILLATION_RUNS[path]([j]), tmp_path / f"j{j}") == 2
        reason = _read(tmp_path / f"j{j}" / "manifest.json")["failure_reason"]
        assert "oscillation frequency j" in reason and "not positive" in reason
    assert run(_OSCILLATION_RUNS[path]([2]), tmp_path / "int") == 0
    assert run(_OSCILLATION_RUNS[path]([2.0]), tmp_path / "float") == 0
    assert (_read(tmp_path / "int" / "result.json")["results"]
            == _read(tmp_path / "float" / "result.json")["results"])


@pytest.mark.parametrize("inverse", [False, True])
def test_unknown_hopf_weight_exits_2(tmp_path, inverse):
    config = {
        "command": "hopf",
        "domain": {"kind": "disk", "level": 2},
        "hopf": {"formula": "identity", "p": 1.0, "N": 4, "inverse": inverse,
                 "weight": "bogus"},
    }
    assert run(config, tmp_path) == 2
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["status"] == "validation_error"


# every section of a valid config, so each command finds what it reads
_SECTIONS = {
    "domain": {"kind": "disk", "level": 2},
    "functional": {"family": "trunc_exp", "p": 1, "N": 8},
    "boundary": {"kind": "identity"},
    "minimize": {"max_iterations": 5},
    "sweep": {"N_list": [1]},
    "recipe": {"kind": "constant", "params": {}, "j_max": 2},
    "hopf": {"formula": "identity", "p": 1.0, "N": 4},
    "oracle": {"n_samples": 10},
}


_MISSPELT = [
    ("minimize", {"minimize": {"max_iter": 3}}, "max_iter"),
    ("minimize", {"minimize": {"seed": 3}}, "seed"),
    ("minimize", {"boundary": {"kind": "identity", "sin_coef": [0.0, 0.3]}}, "sin_coef"),
    ("mesh", {"domain": {"kind": "disk", "levle": 2}}, "levle"),
    ("mesh", {"domain": {"kind": "disk", "level": "four"}}, "level"),
    # a misspelt kind used to be named as the first key that it does not read
    ("mesh", {"domain": {"kind": "hex", "level": 2}}, "hex"),
    ("minimize", {"boundary": {"kind": "circle", "sin_coeffs": [0, 0.3]}}, "circle"),
    # a JSON boolean used to build a level-1 mesh
    ("minimize", {"domain": {"kind": "disk", "level": True}}, "level"),
    ("diagnose", {"recipe": {"kind": "radial_stretch_family", "params": {"alfa": 3.0},
                             "j_max": 2}}, "alfa"),
    ("diagnose", {"diagnostic": {"p_rr": 3.0}}, "p_rr"),
    ("diagnose", {"diagnostic": {"tolerances": {"weak_tol": 0.5}}}, "weak_tol"),
    ("diagnose", {"diagnostics": {"p_RR": 3.0}}, "diagnostics"),
    ("sweep", {"sweep": {"n_list": [1]}}, "n_list"),
    # a sweep varies the truncation order, which only trunc_exp has
    ("sweep", {"functional": {"family": "lp_mean", "p": 2.0}}, "lp_mean"),
    ("oracle", {"oracle": {"samples": 50}}, "samples"),
    # the truncation order used to run as int(8.7) = 8
    ("minimize", {"functional": {"family": "trunc_exp", "p": 1, "N": 8.7}}, "N"),
    # the config key for the truncation order is "N"; "trunc_n" used to run N = 0
    ("minimize", {"functional": {"family": "trunc_exp", "p": 1, "trunc_n": 8}}, "trunc_n"),
    ("diagnose", {"functional": {"family": "trunc_exp", "p": 1, "trunc_n": 8}}, "trunc_n"),
    # "inverted" used to certify the forward field, "n" to run with N = None
    ("hopf", {"hopf": {"formula": "identity", "p": 1.0, "N": 4, "inverted": True}}, "inverted"),
    ("hopf", {"hopf": {"formula": "identity", "p": 1.0, "n": 8}}, "n"),
    # the string "false" used to certify the inverse field
    ("hopf", {"hopf": {"formula": "identity", "p": 1.0, "N": 4, "inverse": "false"}},
     "inverse"),
    # settings that no run changed are constants now; "s" was echoed but never read
    ("diagnose", {"functional": {"family": "lp_mean", "p": 2.0, "s": 0.3}}, "s"),
    ("minimize", {"minimize": {"initial_step": 0.3}}, "initial_step"),
    ("minimize", {"minimize": {"backtracking_factor": 0.25}}, "backtracking_factor"),
    ("minimize", {"minimize": {"jacobian_floor": 1e-6}}, "jacobian_floor"),
    ("diagnose", {"diagnostic": {"dictionary_degree": 4}}, "dictionary_degree"),
    # 0 used to make the convexity and monotonicity probes vacuous
    ("diagnose", {"diagnostic": {"probe_samples": 0}}, "probe_samples"),
    ("diagnose", {"recipe": {"kind": "mollified", "params": {"radius_scale": 2.0},
                             "j_max": 2}}, "radius_scale"),
    # a mollified key that the target never reads used to be ignored
    ("diagnose", {"recipe": {"kind": "mollified", "params": {"target": "affine", "alpha": 1.5},
                             "j_max": 2}}, "alpha"),
    ("diagnose", {"recipe": {"kind": "mollified", "params": {"a": 1.5, "b": 0.1},
                             "j_max": 2}}, "a"),
    ("diagnose", {"recipe": {"kind": "mollified",
                             "params": {"target": "radial_stretch", "b": 0.1},
                             "j_max": 2}}, "b"),
    # an unknown target is named, not the key that follows it
    ("diagnose", {"recipe": {"kind": "mollified", "params": {"alpha": 1.5, "target": "nope"},
                             "j_max": 2}}, "target"),
    # 0 samples used to pass every probe but the control
    ("oracle", {"oracle": {"n_samples": 0}}, "n_samples"),
    # numbers must be finite JSON numbers: NaN used to certify a NaN field,
    # run a diagnose to a verdict and end a descent in line_search_failure
    ("hopf", {"hopf": {"formula": "identity", "p": float("nan"), "N": 4}}, "p"),
    ("diagnose", {"functional": {"family": "trunc_exp", "p": 1, "N": 8,
                                 "jac_exp": float("nan")}}, "jac_exp"),
    ("minimize", {"minimize": {"gradient_tolerance": float("nan")}}, "gradient_tolerance"),
    ("sweep", {"functional": {"family": "trunc_exp", "p": float("inf")}}, "p"),
    ("sweep", {"functional": {"family": "trunc_exp", "jac_exp": float("nan")}}, "jac_exp"),
    # an empty N_list used to minimise and certify nothing, and exit 0
    ("sweep", {"sweep": {"N_list": []}}, "N_list"),
    # p_RR NaN used to be blamed on s
    ("diagnose", {"diagnostic": {"p_RR": float("nan")}}, "p_RR"),
    ("diagnose", {"diagnostic": {"tolerances": {"weak_rel": float("nan")}}}, "weak_rel"),
    # negative tolerances used to decide EnergyGap on an energy gap of exactly 0
    ("diagnose", {"diagnostic": {"tolerances": {"conclusion_rel": -1, "weak_rel": -0.5,
                                                "hypothesis_rel": -2}}}, "hypothesis_rel"),
    # a JSON boolean used to run as 1
    ("minimize", {"functional": {"family": "lp_mean", "p": True}}, "p"),
    ("diagnose", {"diagnostic": {"r_list": {"df": True}}}, "df"),
    ("hopf", {"hopf": {"formula": "radial_stretch", "args": [True], "p": 1.0}}, "args"),
    ("mesh", {"domain": {"kind": "rect", "lo": [float("nan"), 0.0]}}, "lo"),
    ("minimize", {"boundary": {"kind": "circle_diffeo", "sin_coeffs": [0.0, float("inf")]}},
     "sin_coeffs"),
]


@pytest.mark.parametrize("command, sections, key", _MISSPELT,
                         ids=[f"{command}-{key}" for command, _, key in _MISSPELT])
def test_misspelt_config_key_exits_2(tmp_path, command, sections, key):
    # a misspelt key or a value that does not convert used to run the defaults
    _assert_refused(tmp_path, {"command": command, **_SECTIONS, **sections}, key)


@pytest.mark.parametrize("key, value", [("p", 1.0), ("jac_exp", 1.0), ("weight", "none")])
def test_sweep_section_reads_only_n_list(tmp_path, key, value):
    # the functional section holds these keys; the sweep's copies used to be
    # read while a functional section was ignored, so norm "op" ran as "hs"
    _assert_refused(tmp_path, {"command": "sweep", **_SECTIONS,
                               "sweep": {key: value, "N_list": [1]}}, key)


def _assert_refused(tmp_path, config, key):
    assert run(config, tmp_path) == 2
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["status"] == "validation_error"
    assert f"'{key}'" in manifest["failure_reason"]
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_minimize_artefacts_match_csv_writer(tmp_path, part_folded, csv_reference):
    from fdmaps.cli import _write_mapping, _write_trace
    trace = [{"iteration": 0, "energy": 12.5, "grad_norm": 0.1, "min_J": -np.inf,
              "step": 1.0},
             {"iteration": 1, "energy": float("nan"), "grad_norm": 1e-17,
              "min_J": np.float64(0.25), "step": 2.0}]
    _write_trace(trace, tmp_path / "trace.csv")
    header = ["iteration", "energy", "grad_norm", "min_J", "step"]
    assert (tmp_path / "trace.csv").read_bytes() == csv_reference(
        header, [[row[k] for k in header] for row in trace])
    _write_mapping(part_folded, tmp_path / "mapping.csv")
    assert (tmp_path / "mapping.csv").read_bytes() == csv_reference(
        ["node", "re", "im"], [[i, v.real, v.imag] for i, v in enumerate(part_folded.values)])


def test_sweep_csv_matches_csv_writer(tmp_path, csv_reference):
    config = {
        "command": "sweep",
        "domain": {"kind": "disk", "level": 2},
        "functional": {"family": "trunc_exp", "p": 1.0},
        "sweep": {"N_list": [1, 2, 4]},
        "boundary": {"kind": "circle_diffeo", "sin_coeffs": [0.0, 0.2]},
        "minimize": {"max_iterations": 200},
    }
    assert run(config, tmp_path) == 0
    # JSON floats round-trip exactly, so the result's entries are the rows
    entries = _read(tmp_path / "result.json")["results"]["entries"]
    header = ["N", "energy", "hopf_l1", "holomorphy_l1", "stop_reason"]
    assert [e["N"] for e in entries] == [1, 2, 4]
    assert (tmp_path / "sweep.csv").read_bytes() == csv_reference(
        header, [[e[k] for k in header] for e in entries])


def test_oracle_command_small(tmp_path):
    config = {"command": "oracle", "oracle": {"n_samples": 500}, "seed": 1}
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")
    assert result["results"]["all_ok"]
    assert result["results"]["probes"]["nonconvex_control"]["violations"] > 0


@pytest.mark.parametrize("probe, fake", [
    ("concavity_probe", lambda s, p_prime, n, seed=0: ProbeReport(n, 1)),
    # a control that finds no violation proves nothing about the probe
    ("convexity_probe", lambda phi, s, n, seed=0: ProbeReport(n, 0)),
], ids=["violation", "silent-control"])
def test_oracle_all_ok_fails(tmp_path, monkeypatch, probe, fake):
    monkeypatch.setattr(fdmaps.cli, probe, fake)
    config = {"command": "oracle", "oracle": {"n_samples": 50}}
    assert run(config, tmp_path) == 0
    assert not _read(tmp_path / "result.json")["results"]["all_ok"]


def test_diagnose_probes_dirichlet_at_its_s_value(tmp_path):
    # the admissible range of s is empty for Dirichlet, so diagnose probes it
    # at s = 0 as oracle does; at the diagnostic s the probe found violations
    config = {"command": "diagnose", "domain": {"kind": "disk", "level": 2},
              "recipe": {"kind": "affine_drift", "params": {}, "j_max": 4},
              "functional": {"family": "dirichlet"}}
    assert run(config, tmp_path) == 0
    assert _read(tmp_path / "result.json")["results"]["hypotheses"]["convexity_ok"]


@pytest.mark.parametrize("diagnostic", [{}, {"s": 0.9}], ids=["default", "s=0.9"])
def test_dirichlet_diagnose_records_the_s_it_probed(tmp_path, diagnostic):
    # Dirichlet reads no s: an s outside (0, 1 - 1/p_RR) used to exit 2, and
    # the default one (0.01) was echoed as config.s although the probe used 0
    config = {"command": "diagnose", "domain": {"kind": "disk", "level": 2},
              "recipe": {"kind": "affine_drift", "params": {}, "j_max": 4},
              "functional": {"family": "dirichlet"}, "diagnostic": diagnostic}
    assert run(config, tmp_path) == 0
    assert _read(tmp_path / "result.json")["results"]["config"]["s"] == 0.0


def test_reproducible_result_bytes(tmp_path):
    config = {
        "command": "diagnose",
        "domain": {"kind": "disk", "level": 3},
        "recipe": {"kind": "affine_drift", "params": {}, "j_max": 6},
        "functional": {"family": "lp_mean", "p": 2.0},
        "diagnostic": {"p_RR": 2.0},
        "seed": 42,
    }
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(dict(config), out1) == 0
    assert run(dict(config), out2) == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_results_validate_against_schema(tmp_path):
    schema = result_schema()
    jsonschema.Draft202012Validator.check_schema(schema)
    configs = [
        {"command": "mesh", "domain": {"kind": "disk", "level": 2}},
        {"command": "oracle", "oracle": {"n_samples": 200}},
        {"command": "minimize", "domain": {"kind": "disk", "level": 2},
         "functional": {"family": "trunc_exp", "p": 1.0, "N": 8},
         "boundary": {"kind": "circle_diffeo", "sin_coeffs": [0.0, 0.3]}},
        {"command": "sweep", "domain": {"kind": "disk", "level": 2},
         "functional": {"family": "trunc_exp"},
         "boundary": {"kind": "circle_diffeo", "sin_coeffs": [0.0, 0.3]},
         "sweep": {"N_list": [1, 2]}},
        {"command": "sweep", "domain": {"kind": "disk", "level": 2},
         "functional": {"family": "trunc_exp", "jac_exp": 1.0},
         "boundary": {"kind": "circle_diffeo", "sin_coeffs": [0.0, 0.3]},
         "sweep": {"N_list": [1, 2]}},
        {"command": "diagnose", "domain": {"kind": "disk", "level": 2},
         "recipe": {"kind": "affine_drift", "params": {}, "j_max": 4},
         "diagnostic": {"p_RR": 3.0, "r_list": {q: 1.0 for q in QUANTITIES}}},
        {"command": "hopf", "domain": {"kind": "disk", "level": 3},
         "hopf": {"formula": "affine", "args": [[1.0, 0.0], [0.3, 0.0]], "N": 8,
                  "inverse": True}},
    ]
    for i, config in enumerate(configs):
        out = tmp_path / str(i)
        assert run(config, out) == 0
        jsonschema.validate(_read(out / "result.json"), schema)


def test_schema_verdicts_are_the_diagnose_verdicts():
    diagnose, = [case for case in result_schema()["allOf"]
                 if case["if"]["properties"]["command"]["const"] == "diagnose"]
    verdict = diagnose["then"]["properties"]["results"]["properties"]["verdict"]
    assert verdict["enum"] == list(VERDICTS)


def test_console_entry_point(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"command": "mesh", "domain": {"kind": "disk", "level": 2}}))
    out = tmp_path / "out"
    # the child imports the fdmaps under test, also from an uninstalled checkout
    src = str(Path(fdmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = subprocess.run(
        [sys.executable, "-m", "fdmaps.cli", "--config", str(config_path),
         "--out", str(out)],
        capture_output=True, env=env).returncode
    assert code == 0
    assert (out / "result.json").exists()


def test_schema_flag_prints_schema(capsys):
    assert main(["--schema"]) == 0
    out = capsys.readouterr().out
    json.loads(out)


def test_seed_override(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"command": "oracle", "oracle": {"n_samples": 200}, "seed": 0}))
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out),
                 "--seed", "5"]) == 0
    manifest = _read(out / "manifest.json")
    assert manifest["seed"] == 5


def test_non_object_config_exits_2(tmp_path):
    # the seed override used to index the list and raise TypeError
    config_path = tmp_path / "config.json"
    config_path.write_text("[1, 2]")
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out), "--seed", "5"]) == 2
    assert _read(out / "manifest.json")["status"] == "validation_error"


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    config_path = tmp_path / "config.json"
    config_path.write_text(blocks[0])
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out)]) == 0
    assert _read(out / "manifest.json")["status"] == "ok"
