"""One operation of one workload, in a fresh interpreter.

Started by run.py.  Imports fdmaps and prepares the workload's inputs,
prints READY, runs the timed section once, checks the outputs against
closed-form or recorded references, and prints one JSON line with the
wall time, peak memory, oracle verdicts and, when traced, the per-layer
summary.  With --setup-only it exits right after READY.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import fdmaps
import fdmaps.cli
import tracing
import workloads


def _ladder(inputs, out_dir):
    spec = fdmaps.FunctionalSpec.from_json(inputs["functional"])
    boundary = fdmaps.BoundaryData.from_json(inputs["boundary"])
    configs = [(level, fdmaps.MinimizeConfig(max_iterations=cap,
                                             gradient_tolerance=inputs["gradient_tolerance"]))
               for level, cap in inputs["levels"]]

    def run():
        prev = None
        levels = []
        for level, config in configs:
            mesh = fdmaps.build_disk_mesh(level)
            initial = fdmaps.prolong(prev.mapping, mesh) if prev is not None else None
            res = fdmaps.minimize_energy(spec, mesh, boundary, config, initial=initial)
            psi = fdmaps.inverse_ahlfors_hopf(fdmaps.wirtinger_derivatives(res.mapping),
                                              spec.p, spec.trunc_n)
            levels.append({"level": level, "energy": res.final_energy,
                           "residual": fdmaps.holomorphy_residual(psi).l1_residual,
                           "stalled": res.stalled})
            prev = res
        return {"levels": levels, "holo_ratio": levels[0]["residual"] / levels[1]["residual"]}
    return run


def _cli(config, out_dir):
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config))
    argv = ["--config", str(config_path), "--out", str(out_dir / "artefacts")]

    def run():
        status = fdmaps.cli.main(argv)
        doc = json.loads((out_dir / "artefacts" / "result.json").read_text())
        return {"status": status, "results": doc["results"]}
    return run


def _check_ladder(outcome, inputs):
    checks = {f"energy_level{lv['level']}": abs(lv["energy"] - ref) <= 1e-6 * abs(ref)
              for lv, ref in zip(outcome["levels"], workloads.LADDER_ENERGY_REFS)}
    checks["holo_ratio_ge_1.5"] = outcome["holo_ratio"] >= 1.5
    return checks


def _check_osc(outcome, config):
    res = outcome["results"]
    target = math.sqrt(config["domain"]["hi"][1] / 8.0)
    residuals = res["weak_probe_residuals"]
    return {
        "exit_0": outcome["status"] == 0,
        "verdict_EnergyGap": res["verdict"] == "EnergyGap",
        "fzbar_tail": abs(res["conclusions"]["fzbar"]["tail"] - target) < 0.05 * target,
        "weak_probe_ratio_ge_10": residuals[3] / residuals[-1] >= 10.0,
    }


def _check_certify(outcome, config):
    res = outcome["results"]
    return {
        "exit_0": outcome["status"] == 0,
        "constant_field": res["l1_residual"] <= 1e-9 * res["field_l1"],
        "no_skipped_vertices": res["skipped_vertices"] == 0,
    }


def _check_moll(outcome, config):
    return {"exit_0": outcome["status"] == 0,
            "verdict_StrongConvergence":
                outcome["results"]["verdict"] == "StrongConvergence"}


OPS = {
    "ladder": (_ladder, _check_ladder),
    "diagnose_osc": (_cli, _check_osc),
    "certify": (_cli, _check_certify),
    "diagnose_moll": (_cli, _check_moll),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)


def _run(args) -> int:
    make_op, check = OPS[args.workload]
    inputs = workloads.inputs(args.workload, args.seed)
    op = make_op(inputs, args.work_dir)
    tracer = None
    if args.trace_file is not None:
        tracer = tracing.Tracer(args.trace_file.stem)
        tracing.instrument(tracer)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    doc = {"env": environment()}
    try:
        t0 = time.perf_counter()
        outcome = op()
        doc["wall_s"] = time.perf_counter() - t0
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        doc["checks"] = {k: bool(v) for k, v in check(outcome, inputs).items()}
    except Exception as exc:  # one failed operation; the runner counts it
        traceback.print_exc()
        doc["error"] = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        artefacts = args.work_dir / "artefacts"
        if artefacts.is_dir():
            tracer.counts["cli.bytes_written"] = sum(
                p.stat().st_size for p in artefacts.iterdir())
        if "checks" in doc and "holo_ratio" in outcome:
            tracer.counts["hopf.holo_ratio"] = outcome["holo_ratio"]
        doc["layers"] = tracer.summary()
        args.trace_file.write_text(json.dumps({**tracer.dump(), "env": doc["env"]}))
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
