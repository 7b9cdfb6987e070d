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
    assert result["results"]["converged"]
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "mapping.csv").exists()


def test_unknown_command_exits_2(tmp_path):
    assert run({"command": "frobnicate"}, tmp_path) == 2
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["status"] == "validation_error"


def test_bad_domain_exits_2(tmp_path):
    assert run({"command": "mesh", "domain": {"kind": "torus"}}, tmp_path) == 2


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
    ("diagnose", {"recipe": {"kind": "radial_stretch_family", "params": {"alfa": 3.0},
                             "j_max": 2}}, "alfa"),
    ("diagnose", {"diagnostic": {"p_rr": 3.0}}, "p_rr"),
    ("diagnose", {"diagnostic": {"tolerances": {"weak_tol": 0.5}}}, "weak_tol"),
    ("diagnose", {"diagnostics": {"p_RR": 3.0}}, "diagnostics"),
    ("sweep", {"sweep": {"n_list": [1]}}, "n_list"),
    ("oracle", {"oracle": {"samples": 50}}, "samples"),
    # the truncation order used to run as int(8.7) = 8
    ("minimize", {"functional": {"family": "trunc_exp", "p": 1, "N": 8.7}}, "N"),
    # the config key for the truncation order is "N"; "trunc_n" used to run N = 0
    ("minimize", {"functional": {"family": "trunc_exp", "p": 1, "trunc_n": 8}}, "trunc_n"),
    ("diagnose", {"functional": {"family": "trunc_exp", "p": 1, "trunc_n": 8}}, "trunc_n"),
    # "inverted" used to certify the forward field, "n" to run with N = None
    ("hopf", {"hopf": {"formula": "identity", "p": 1.0, "N": 4, "inverted": True}}, "inverted"),
    ("hopf", {"hopf": {"formula": "identity", "p": 1.0, "n": 8}}, "n"),
]


@pytest.mark.parametrize("command, sections, key", _MISSPELT,
                         ids=[f"{command}-{key}" for command, _, key in _MISSPELT])
def test_misspelt_config_key_exits_2(tmp_path, command, sections, key):
    # a misspelt key or a value that does not convert used to run the defaults
    config = {"command": command, **_SECTIONS, **sections}
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
        "sweep": {"p": 1.0, "N_list": [1, 2, 4]},
        "boundary": {"kind": "circle_diffeo", "sin_coeffs": [0.0, 0.2]},
        "minimize": {"max_iterations": 200},
    }
    assert run(config, tmp_path) == 0
    # JSON floats round-trip exactly, so the result's entries are the rows
    entries = _read(tmp_path / "result.json")["results"]["entries"]
    header = ["N", "energy", "hopf_l1", "holomorphy_l1"]
    assert [e["N"] for e in entries] == [1, 2, 4]
    assert (tmp_path / "sweep.csv").read_bytes() == csv_reference(
        header, [[e[k] for k in header] for e in entries])


def test_oracle_command_small(tmp_path):
    config = {"command": "oracle", "oracle": {"n_samples": 500}, "seed": 1}
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")
    assert result["results"]["all_ok"]
    assert result["results"]["probes"]["nonconvex_control"]["violations"] > 0


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
    ]
    for i, config in enumerate(configs):
        out = tmp_path / str(i)
        assert run(config, out) == 0
        jsonschema.validate(_read(out / "result.json"), schema)


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
