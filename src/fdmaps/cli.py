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
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .config import complex_number, integer, optional, read
from .convergence import Tolerances, gaps_to_csv, radon_riesz_diagnose
from .errors import ConfigurationError, DomainError, FdmapsError, InitializationError
from .fields import (derived_to_csv, sample_analytic, wirtinger_derivatives,
                     write_columns)
from .functionals import (FunctionalSpec, concavity_probe, convexity_probe,
                          monotone_truncation_check, polyconvex_lower_bound)
from .geometry import build_disk_mesh, build_rect_mesh
from .hopf import (ahlfors_hopf, holomorphy_residual, hopf_to_csv,
                   inverse_ahlfors_hopf)
from .minimize import (BoundaryData, MinimizeConfig, minimize_energy,
                       truncation_sweep)
from .sequences import SequenceRecipe, generate

# Top-level keys: any command may carry any section, and reads the ones it needs.
_CONFIG = {"command": (str, None), "seed": (integer, 0), "out": (str, "."),
           **dict.fromkeys(("domain", "functional", "boundary", "minimize", "sweep", "recipe",
                            "diagnostic", "hopf", "oracle"), (dict, {}))}
_DOMAIN = {"kind": (str, None), "level": (integer, 4, ("disk",)),
           "nx": (integer, 16, ("rect",)), "ny": (integer, 16, ("rect",)),
           "lo": (complex_number, 0j, ("rect",)), "hi": (complex_number, 1 + 1j, ("rect",))}
_SWEEP = {"p": (float, 1.0), "N_list": (lambda ns: [integer(n) for n in ns], (1, 2, 4, 8)),
          "jac_exp": (float, 0.0), "weight": (str, "none")}
# keyed by the arguments of radon_riesz_diagnose
_DIAGNOSTIC = {"p_RR": (float, 2.0), "s": (optional(float), None),
               "r_list": (optional(dict), None),
               "tolerances": (Tolerances.from_json, Tolerances()),
               "dictionary_degree": (integer, 6), "probe_samples": (integer, 20000)}
_HOPF = {"formula": (str, "identity"),
         "args": (lambda args: [complex(*a) if isinstance(a, (list, tuple)) else a
                                for a in args], ()),
         "p": (float, 1.0), "N": (optional(integer), None), "inverse": (bool, False),
         "weight": (str, "none")}
_ORACLE = {"n_samples": (integer, 100000)}


def _build_mesh(doc):
    domain = read("domain", doc, _DOMAIN)
    if domain["kind"] == "disk":
        return build_disk_mesh(domain["level"])
    if domain["kind"] == "rect":
        return build_rect_mesh(domain["nx"], domain["ny"], domain["lo"], domain["hi"])
    raise ConfigurationError(f"unknown domain kind {domain['kind']!r}")


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


def _run_minimize(config, out: Path):
    mesh = _build_mesh(config["domain"])
    spec = FunctionalSpec.from_json(config["functional"])
    boundary = BoundaryData.from_json(config["boundary"])
    mcfg = MinimizeConfig.from_json(config["minimize"])
    result = minimize_energy(spec, mesh, boundary, mcfg)
    _write_trace(result.trace, out / "trace.csv")
    _write_mapping(result.mapping, out / "mapping.csv")
    last = result.trace[-1]
    doc = {
        "final_energy": last["energy"],
        "iterations": last["iteration"],
        "grad_norm": last["grad_norm"],
        "min_J": last["min_J"],
        "converged": result.converged,
        "stalled": result.stalled,
    }
    if result.stalled:
        raise _Stalled(doc)
    return doc


class _Stalled(Exception):
    """Line search hit the minimum step; carries partial results."""

    def __init__(self, results):
        super().__init__("line search stalled")
        self.results = results


def _run_sweep(config, out: Path):
    mesh = _build_mesh(config["domain"])
    sweep = read("sweep", config["sweep"], _SWEEP)
    boundary = BoundaryData.from_json(config["boundary"])
    mcfg = MinimizeConfig.from_json(config["minimize"])
    entries = truncation_sweep(sweep["p"], sweep["N_list"], mesh, boundary, mcfg,
                               jac_exp=sweep["jac_exp"], weight=sweep["weight"])
    rows = []
    psi_fields = []
    for e in entries:
        derived = wirtinger_derivatives(e.mapping)
        psi = inverse_ahlfors_hopf(derived, sweep["p"], e.trunc_n, sweep["weight"])
        res = holomorphy_residual(psi)
        psi_fields.append(psi)
        rows.append({"N": e.trunc_n, "energy": e.energy, "hopf_l1": psi.l1_norm,
                     "holomorphy_l1": res.l1_residual})
    gaps = [float(np.nanmax(np.abs(b.values - a.values)))
            for a, b in zip(psi_fields, psi_fields[1:])]
    header = ["N", "energy", "hopf_l1", "holomorphy_l1"]
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
    doc = report.to_json()
    doc["gap"] = report.phi_energy_gap
    return doc


def _run_hopf(config, out: Path):
    hopf = read("hopf", config["hopf"], _HOPF)
    mapping = sample_analytic(_build_mesh(config["domain"]), hopf["formula"], *hopf["args"])
    derived = wirtinger_derivatives(mapping)
    builder = inverse_ahlfors_hopf if hopf["inverse"] else ahlfors_hopf
    psi = builder(derived, hopf["p"], hopf["N"], hopf["weight"])
    res = holomorphy_residual(psi)
    hopf_to_csv(psi, out / "hopf.csv")
    derived_to_csv(derived, out / "derived.csv")
    return {"l1_residual": res.l1_residual, "l2_residual": res.l2_residual,
            "field_l1": psi.l1_norm, "skipped_vertices": res.skipped_vertices}


def _run_oracle(config, out: Path):
    n = read("oracle", config["oracle"], _ORACLE)["n_samples"]
    seed = config["seed"]
    rng = np.random.default_rng(seed)
    probes = {}

    x = rng.uniform(0.0, 10.0, n)
    y = rng.uniform(0.1, 10.0, n)
    x0 = rng.uniform(0.0, 10.0, n)
    y0 = rng.uniform(0.1, 10.0, n)
    bad = 0
    for i in range(n):
        _, _, holds = polyconvex_lower_bound(x[i], y[i], x0[i], y0[i])
        bad += not holds
    probes["polyconvex_lower_bound"] = {"n_samples": n, "violations": bad}

    # the s-weighted convexity holds for the inverse-problem forms, which
    # carry the Jacobian factor; probe those
    for name, spec in (
        ("lp_mean_p2", FunctionalSpec(family="lp_mean", p=2.0, jac_exp=0.5)),
        ("exp_p1", FunctionalSpec(family="exp_p", p=1.0, jac_exp=1.0)),
        ("trunc_exp_p1_n8", FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8,
                                           jac_exp=1.0)),
        ("dirichlet", FunctionalSpec(family="dirichlet")),
    ):
        rep = convexity_probe(spec, spec.s_value, n, seed=seed)
        probes[f"convexity_{name}"] = {"n_samples": rep.n_samples,
                                       "violations": rep.violations}
    mono = monotone_truncation_check(1.0, 20, n, seed=seed)
    probes["monotone_truncation"] = {"n_samples": mono.n_samples,
                                     "violations": mono.violations}
    conc = concavity_probe(0.25, 2.0, n, seed=seed)
    probes["concavity"] = {"n_samples": conc.n_samples, "violations": conc.violations}
    control = convexity_probe(lambda xx, yy: -np.asarray(xx) ** 2, 0.0, 10000, seed=seed)
    probes["nonconvex_control"] = {"n_samples": control.n_samples,
                                   "violations": control.violations}
    all_ok = (probes["polyconvex_lower_bound"]["violations"] == 0
              and probes["monotone_truncation"]["violations"] == 0
              and probes["concavity"]["violations"] == 0
              and all(v["violations"] == 0 for k, v in probes.items()
                      if k.startswith("convexity_"))
              and probes["nonconvex_control"]["violations"] > 0)
    return {"probes": probes, "all_ok": all_ok}


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


def run(config: dict, out_dir) -> int:
    """Execute one config; returns the process exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    manifest = {
        "config": config,
        "version": __version__,
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
    except _Stalled as exc:
        results = exc.results
        manifest["status"] = "numerical_failure"
        manifest["failure_reason"] = str(exc)
        status = 3
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        manifest["status"] = "validation_error"
        manifest["failure_reason"] = f"{type(exc).__name__}: {exc}"
        status = 2
    except (DomainError, InitializationError, FdmapsError) as exc:
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
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect. BLAS threads "
                             "follow OPENBLAS_NUM_THREADS / OMP_NUM_THREADS")
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
