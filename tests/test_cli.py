import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

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
        "domain": {"kind": "disk", "level": 3},
        "hopf": {"formula": "affine", "args": [[1.0, 0.0], [0.3, 0.0]],
                 "p": 1.0, "N": 4},
    }
    assert run(config, tmp_path) == 0
    result = _read(tmp_path / "result.json")
    assert result["results"]["field_l1"] > 0.0
    assert (tmp_path / "hopf.csv").exists()
    assert (tmp_path / "derived.csv").exists()


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
    code = subprocess.run(
        [sys.executable, "-m", "fdmaps.cli", "--config", str(config_path),
         "--out", str(out)],
        capture_output=True).returncode
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


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    config_path = tmp_path / "config.json"
    config_path.write_text(blocks[0])
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out)]) == 0
    assert _read(out / "manifest.json")["status"] == "ok"
