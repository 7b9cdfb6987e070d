"""Single-config experiment runner.

Every run is driven by one JSON config file and writes a manifest, a
result document and CSV series into the output directory.  Exit status:
0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import sys
import time
from dataclasses import MISSING, asdict
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .config import (boolean, complex_number, integer, map_args, one_of, optional,
                     positive_integer, read, real)
from .convergence import Tolerances, available_cpus, gaps_to_csv, radon_riesz_diagnose
from .errors import ConfigurationError, FdmapsError
from .fields import (derived_to_csv, sample_analytic, wirtinger_derivatives,
                     write_columns)
from .functionals import (FunctionalSpec, ProbeReport, concavity_probe, convexity_probe,
                          monotone_truncation_check, polyconvex_lower_bound,
                          uniform_draws)
from .geometry import build_disk_mesh, build_rect_mesh
from .hopf import (ahlfors_hopf, holomorphy_residual, hopf_to_csv,
                   inverse_ahlfors_hopf)
from .sequences import SequenceRecipe, generate

# Top-level keys: any command may carry any section, and reads the ones it needs.
_CONFIG = {"command": (str, None), "seed": (integer, 0), "out": (str, "."),
           **dict.fromkeys(("domain", "functional", "boundary", "minimize", "sweep", "recipe",
                            "diagnostic", "hopf", "oracle"), (dict, {}))}
_DOMAIN = {"kind": (one_of("disk", "rect"), MISSING), "level": (integer, 4, ("disk",)),
           "nx": (integer, 16, ("rect",)), "ny": (integer, 16, ("rect",)),
           "lo": (complex_number, 0j, ("rect",)), "hi": (complex_number, 1 + 1j, ("rect",))}
_SWEEP = {"N_list": (lambda ns: [integer(n) for n in ns], (1, 2, 4, 8))}
# keyed by the arguments of radon_riesz_diagnose
_DIAGNOSTIC = {"p_RR": (real, 2.0), "s": (optional(real), None),
               "r_list": (optional(dict), None),
               "tolerances": (Tolerances.from_json, Tolerances())}
_HOPF = {"formula": (str, "identity"), "args": (map_args, ()),
         "p": (real, 1.0), "N": (optional(integer), None), "inverse": (boolean, False),
         "weight": (str, "none")}
_ORACLE = {"n_samples": (positive_integer, 100000)}


def _build_mesh(doc):
    domain = read("domain", doc, _DOMAIN)
    if domain["kind"] == "disk":
        return build_disk_mesh(domain["level"])
    return build_rect_mesh(domain["nx"], domain["ny"], domain["lo"], domain["hi"])


def _run_mesh(config, out: Path):
    mesh = _build_mesh(config["domain"])
    mesh.save(out / "mesh.json")
    return {
        "nodes": mesh.n_nodes,
        "triangles": mesh.n_triangles,
        "boundary_nodes": len(mesh.boundary_nodes),
        "total_area": mesh.total_area,
        "level": mesh.refinement_level,
    }


def _write_trace(trace, path: Path):
    header = ["iteration", "energy", "grad_norm", "min_J", "step"]
    write_columns(path, header, list(zip(*map(itemgetter(*header), trace))))


def _write_mapping(mapping, path: Path):
    write_columns(path, ["node", "re", "im"],
                  [np.arange(len(mapping.values)), mapping.values.real,
                   mapping.values.imag])


# The descent's runners import it, and with it scipy, only when they run.
def _run_minimize(config, out: Path):
    from .minimize import BoundaryData, MinimizeConfig, minimize_energy
    mesh = _build_mesh(config["domain"])
    spec = FunctionalSpec.from_json(config["functional"])
    boundary = BoundaryData.from_json(config["boundary"])
    mcfg = MinimizeConfig.from_json(config["minimize"])
    result = minimize_energy(spec, mesh, boundary, mcfg)
    _write_trace(result.trace, out / "trace.csv")
    _write_mapping(result.mapping, out / "mapping.csv")
    last = result.trace[-1]
    return {
        "final_energy": last["energy"],
        "iterations": last["iteration"],
        "grad_norm": last["grad_norm"],
        "min_J": last["min_J"],
        "stop_reason": result.stop_reason,
    }


def _run_sweep(config, out: Path):
    from .minimize import BoundaryData, MinimizeConfig, truncation_sweep
    mesh = _build_mesh(config["domain"])
    spec = FunctionalSpec.from_json(config["functional"])
    n_list = read("sweep", config["sweep"], _SWEEP)["N_list"]
    boundary = BoundaryData.from_json(config["boundary"])
    mcfg = MinimizeConfig.from_json(config["minimize"])
    results = truncation_sweep(spec, n_list, mesh, boundary, mcfg)
    # f is critical in the source chart for jac_exp 1, and f^{-1} in the image chart for 0
    builder = ahlfors_hopf if spec.jac_exp == 1.0 else inverse_ahlfors_hopf
    rows, gaps = [], []
    previous = None  # the last entry's Hopf values, for the sup-gap to the next
    for n, result in zip(n_list, results):
        psi = builder(wirtinger_derivatives(result.mapping), spec.p, n, spec.weight)
        res = holomorphy_residual(psi)
        if previous is not None:
            gaps.append(float(np.nanmax(np.abs(psi.values - previous))))
        previous = psi.values
        rows.append({"N": n, "energy": result.final_energy, "hopf_l1": psi.l1_norm,
                     "holomorphy_l1": res.l1_residual, "stop_reason": result.stop_reason})
    header = ["N", "energy", "hopf_l1", "holomorphy_l1", "stop_reason"]
    write_columns(out / "sweep.csv", header, list(zip(*map(itemgetter(*header), rows))))
    return {"entries": rows, "psi_cauchy_sup_gaps": gaps}


def _run_diagnose(config, out: Path):
    mesh = _build_mesh(config["domain"])
    recipe = SequenceRecipe.from_json(config["recipe"])
    seq = generate(recipe, mesh)
    spec = FunctionalSpec.from_json(config["functional"])
    report = radon_riesz_diagnose(spec, seq,
                                  **read("diagnostic", config["diagnostic"], _DIAGNOSTIC))
    gaps_to_csv(report, out / "gaps.csv")
    return {**report.to_json(), "gap": report.hypotheses["phi_energy_gap"]}


def _run_hopf(config, out: Path):
    hopf = read("hopf", config["hopf"], _HOPF)
    derived = wirtinger_derivatives(sample_analytic(_build_mesh(config["domain"]),
                                                    hopf["formula"], *hopf["args"]))
    builder = inverse_ahlfors_hopf if hopf["inverse"] else ahlfors_hopf
    psi = builder(derived, hopf["p"], hopf["N"], hopf["weight"])
    derived_to_csv(derived, out / "derived.csv")
    del derived  # the residual reads only psi, which keeps its chart
    res = holomorphy_residual(psi)
    hopf_to_csv(psi, out / "hopf.csv")
    return {"l1_residual": res.l1_residual, "l2_residual": res.l2_residual,
            "field_l1": psi.l1_norm, "skipped_vertices": res.skipped_vertices,
            "interior_area": res.interior_area}


def _run_oracle(config, out: Path):
    n = read("oracle", config["oracle"], _ORACLE)["n_samples"]
    seed = config["seed"]
    x, y, x0, y0 = (uniform_draws(seed, stream, n, lo, 10.0)
                    for stream, lo in enumerate((0.0, 0.1, 0.0, 0.1)))
    _, _, holds = polyconvex_lower_bound(x, y, x0, y0)
    probes = {"polyconvex_lower_bound": ProbeReport(n, int(np.sum(~holds)))}
    # the s-weighted convexity holds for the inverse-problem forms, which
    # carry the Jacobian factor; probe those
    for name, spec in (
        ("lp_mean_p2", FunctionalSpec(family="lp_mean", p=2.0, jac_exp=0.5)),
        ("exp_p1", FunctionalSpec(family="exp_p", p=1.0, jac_exp=1.0)),
        ("trunc_exp_p1_n8", FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8,
                                           jac_exp=1.0)),
        ("dirichlet", FunctionalSpec(family="dirichlet")),
    ):
        probes[f"convexity_{name}"] = convexity_probe(spec, spec.s_value, n, seed=seed)
    probes["monotone_truncation"] = monotone_truncation_check(1.0, 20, n, seed=seed)
    probes["concavity"] = concavity_probe(0.25, 2.0, n, seed=seed)
    probes["nonconvex_control"] = convexity_probe(lambda xx, yy: -np.asarray(xx) ** 2, 0.0,
                                                  n, seed=seed)
    # every probe finds no violation, except the control, which must find some
    all_ok = all(rep.ok != (name == "nonconvex_control") for name, rep in probes.items())
    return {"probes": {name: asdict(rep) for name, rep in probes.items()}, "all_ok": all_ok}


_RUNNERS = {
    "mesh": _run_mesh,
    "minimize": _run_minimize,
    "sweep": _run_sweep,
    "diagnose": _run_diagnose,
    "hopf": _run_hopf,
    "oracle": _run_oracle,
}


def _dump(doc, path: Path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _failure(results: dict):
    """Why a run that produced results still fails, or None: a failed
    descent, in minimize or in any sweep entry, or a holomorphy certificate
    that fitted no interior vertex and so certifies nothing."""
    if any(r.get("stop_reason") == "line_search_failure"
           for r in (results, *results.get("entries", ()))):
        return "line_search_failure"
    if results.get("interior_area") == 0.0:
        return (f"no interior vertex fitted: {results['skipped_vertices']} "
                "skipped, so the certificate is empty")
    return None


def run(config: dict, out_dir) -> int:
    """Execute one config; returns the process exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    manifest = {
        "config": config,
        "version": __version__,
        "cpus": available_cpus(),  # the mollifier builds members on at most 4 of them
        "seed": None,
        "status": "ok",
        "failure_reason": None,
    }
    status = 0
    results = None
    try:
        top = read("config", config, _CONFIG)
        manifest["seed"] = top["seed"]
        if top["command"] not in _RUNNERS:
            raise ConfigurationError(f"unknown command {top['command']!r}")
        results = _RUNNERS[top["command"]](top, out)
        reason = _failure(results)
        if reason is not None:
            manifest["status"] = "numerical_failure"
            manifest["failure_reason"] = reason
            status = 3
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        manifest["status"] = "validation_error"
        manifest["failure_reason"] = f"{type(exc).__name__}: {exc}"
        status = 2
    except FdmapsError as exc:
        manifest["status"] = "numerical_failure"
        manifest["failure_reason"] = f"{type(exc).__name__}: {exc}"
        status = 3
    if results is not None:
        _dump({"command": top["command"], "seed": top["seed"], "results": results},
              out / "result.json")
    manifest["wall_time_s"] = time.monotonic() - t0
    _dump(manifest, out / "manifest.json")
    return status


def result_schema() -> dict:
    text = importlib.resources.files("fdmaps").joinpath("result_schema.json").read_text()
    return json.loads(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fdmaps",
        description="distortion-energy experiments driven by one JSON config")
    parser.add_argument("--config", type=Path, help="path to the run config JSON")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: config's 'out' or '.')")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--schema", action="store_true",
                        help="print the result JSON schema and exit")
    args = parser.parse_args(argv)
    if args.schema:
        print(json.dumps(result_schema(), indent=2))
        return 0
    if args.config is None:
        parser.error("--config is required unless --schema is given")
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        # without --out the output directory, where errors are reported, is the config's
        out_dir = args.out or read("config", config, _CONFIG)["out"]
    except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and isinstance(config, dict):  # run() reports a non-object
        config["seed"] = args.seed
    return run(config, out_dir)


if __name__ == "__main__":
    sys.exit(main())
