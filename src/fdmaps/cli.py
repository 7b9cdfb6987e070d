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

COMMANDS = ("mesh", "minimize", "sweep", "diagnose", "hopf", "oracle")


def _build_mesh(domain: dict):
    kind = domain.get("kind")
    if kind == "disk":
        return build_disk_mesh(int(domain.get("level", 4)))
    if kind == "rect":
        lo = complex(*domain.get("lo", (0.0, 0.0)))
        hi = complex(*domain.get("hi", (1.0, 1.0)))
        return build_rect_mesh(int(domain.get("nx", 16)), int(domain.get("ny", 16)), lo, hi)
    raise ConfigurationError(f"unknown domain kind {kind!r}")


def _run_mesh(config, out: Path):
    mesh = _build_mesh(config.get("domain", {}))
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
    mesh = _build_mesh(config.get("domain", {}))
    spec = FunctionalSpec.from_json(config.get("functional", {}))
    boundary = BoundaryData.from_json(config.get("boundary", {}))
    mcfg = MinimizeConfig.from_json(config.get("minimize", {}))
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
    mesh = _build_mesh(config.get("domain", {}))
    sweep_cfg = config.get("sweep", {})
    p = float(sweep_cfg.get("p", 1.0))
    n_list = [int(n) for n in sweep_cfg.get("N_list", [1, 2, 4, 8])]
    boundary = BoundaryData.from_json(config.get("boundary", {}))
    mcfg = MinimizeConfig.from_json(config.get("minimize", {}))
    jac_exp = float(sweep_cfg.get("jac_exp", 0.0))
    weight = sweep_cfg.get("weight", "none")
    entries = truncation_sweep(p, n_list, mesh, boundary, mcfg,
                               jac_exp=jac_exp, weight=weight)
    rows = []
    psi_fields = []
    for e in entries:
        derived = wirtinger_derivatives(e.mapping)
        psi = inverse_ahlfors_hopf(derived, p, e.trunc_n, weight)
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
    mesh = _build_mesh(config.get("domain", {}))
    recipe = SequenceRecipe.from_json(config.get("recipe", {}))
    seq = generate(recipe, mesh)
    spec = FunctionalSpec.from_json(config.get("functional", {}))
    diag = config.get("diagnostic", {})
    tol_doc = diag.get("tolerances", {})
    tol = Tolerances(
        hypothesis_rel=float(tol_doc.get("hypothesis_rel", Tolerances().hypothesis_rel)),
        conclusion_rel=float(tol_doc.get("conclusion_rel", Tolerances().conclusion_rel)),
        weak_rel=float(tol_doc.get("weak_rel", Tolerances().weak_rel)),
    )
    report = radon_riesz_diagnose(
        spec, seq,
        p_RR=float(diag.get("p_RR", 2.0)),
        s=None if diag.get("s") is None else float(diag["s"]),
        r_list=diag.get("r_list"),
        tolerances=tol,
        dictionary_degree=int(diag.get("dictionary_degree", 6)),
        probe_samples=int(diag.get("probe_samples", 20000)),
    )
    gaps_to_csv(report, out / "gaps.csv")
    doc = report.to_json()
    doc["gap"] = report.phi_energy_gap
    return doc


def _run_hopf(config, out: Path):
    mesh = _build_mesh(config.get("domain", {}))
    hopf_cfg = config.get("hopf", {})
    formula = hopf_cfg.get("formula", "identity")
    args = []
    for a in hopf_cfg.get("args", []):
        args.append(complex(*a) if isinstance(a, (list, tuple)) else a)
    mapping = sample_analytic(mesh, formula, *args)
    derived = wirtinger_derivatives(mapping)
    builder = inverse_ahlfors_hopf if hopf_cfg.get("inverse") else ahlfors_hopf
    psi = builder(derived, float(hopf_cfg.get("p", 1.0)),
                  hopf_cfg.get("N"), hopf_cfg.get("weight", "none"))
    res = holomorphy_residual(psi)
    hopf_to_csv(psi, out / "hopf.csv")
    derived_to_csv(derived, out / "derived.csv")
    return {"l1_residual": res.l1_residual, "l2_residual": res.l2_residual,
            "field_l1": psi.l1_norm, "skipped_vertices": res.skipped_vertices}


def _run_oracle(config, out: Path):
    oracle_cfg = config.get("oracle", {})
    n = int(oracle_cfg.get("n_samples", 100000))
    seed = int(config.get("seed", 0))
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
        "seed": int(config.get("seed", 0)),
        "status": "ok",
        "failure_reason": None,
    }
    status = 0
    results = None
    try:
        command = config.get("command")
        if command not in COMMANDS:
            raise ConfigurationError(f"unknown command {command!r}")
        results = _RUNNERS[command](config, out)
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
        _dump({"command": config.get("command"),
               "seed": int(config.get("seed", 0)),
               "results": results}, out / "result.json")
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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config["seed"] = args.seed
    out_dir = args.out or config.get("out", ".")
    return run(config, out_dir)


if __name__ == "__main__":
    sys.exit(main())
