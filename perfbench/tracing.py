"""Span tracing of fdmaps, installed from outside the package.

`instrument` replaces the public functions named in LAYERS, wherever an
fdmaps module holds a reference to them, by wrappers that record a span
(name, start, end, parent) per call.  Spans stay in memory until the run
ends.  A few private functions get counting wrappers instead of spans,
so that counts are taken where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# layer -> functions (attribute paths inside fdmaps.<layer>) that get spans
LAYERS = {
    "geometry": ("build_disk_mesh", "build_rect_mesh", "refine_mesh", "Mesh.centroids"),
    "fields": ("wirtinger_derivatives", "derivative_coefficients", "sample_analytic"),
    "functionals": ("energy", "phi_eval", "convexity_probe", "monotone_truncation_check"),
    "minimize": ("minimize_energy", "energy_gradient", "harmonic_extension", "prolong"),
    "sequences": ("generate", "mollify_values"),
    "quadrature": ("mesh_quad_points",),
    "convergence": ("radon_riesz_diagnose", "weak_probe", "lr_gap", "quantity_scale"),
    "hopf": ("inverse_ahlfors_hopf", "holomorphy_residual"),
    "cli": ("run",),
}

# Artefact writers; their spans add up to cli.write_s.
WRITERS = (
    ("cli", "_dump"), ("cli", "_write_trace"), ("cli", "_write_mapping"),
    ("fields", "derived_to_csv"), ("hopf", "hopf_to_csv"),
    ("convergence", "gaps_to_csv"), ("geometry", "Mesh.save"),
)

COUNTS = (
    "minimize.iterations", "minimize.energy_evals", "minimize.rejected_trials",
    "minimize.accept_ratio", "minimize.stalled_levels",
    "convergence.derivative_evals", "hopf.holomorphy_residual.vertices",
    "hopf.holo_ratio", "cli.write_s", "cli.bytes_written",
)

# Counts that must repeat exactly between two traced runs of one input.
EXACT_COUNTS = (
    "minimize.iterations", "minimize.energy_evals",
    "fields.derivative_coefficients.calls", "convergence.derivative_evals",
    "quadrature.mesh_quad_points.calls", "hopf.holomorphy_residual.vertices",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def span(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, time.perf_counter(), None,
                      self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self.counts, args, result)
            return result
        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def summary(self) -> dict:
        """calls, total_s and self_s per wrapped function, plus the counts."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {}
        for (name, start, end, _), children in zip(self.spans, covered):
            calls, total, own = stats.get(name, (0, 0.0, 0.0))
            stats[name] = (calls + 1, total + end - start, own + end - start - children)
        out = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                calls, total, own = stats.get(name, (0, 0.0, 0.0))
                out.update({f"{name}.calls": calls, f"{name}.total_s": total,
                            f"{name}.self_s": own})
        counts = self.counts
        trials = counts["minimize.energy_evals"] - counts["minimize.levels"]
        accepted = counts["minimize.accepted"]
        derived = {
            "minimize.rejected_trials": trials - accepted,
            "minimize.accept_ratio": accepted / trials if trials else 0.0,
            "cli.write_s": sum(stats.get(f"cli.write.{fn}", (0, 0.0))[1]
                               for _, fn in WRITERS),
        }
        for name in COUNTS:
            out[name] = derived[name] if name in derived else counts[name]
        return out

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["name", "start", "end", "parent"],
                "spans": self.spans}


def _on_minimize(counts, args, result):
    trace = result.trace
    counts["minimize.levels"] += 1
    counts["minimize.iterations"] += trace[-1]["iteration"]
    counts["minimize.accepted"] += sum(b["energy"] < a["energy"]
                                       for a, b in zip(trace, trace[1:]))
    counts["minimize.stalled_levels"] += int(result.stalled)


def _on_residual(counts, args, result):
    mesh = args[0].mesh
    interior = mesh.n_nodes - len(mesh.boundary_nodes)
    counts["hopf.holomorphy_residual.vertices"] += interior - result.skipped_vertices


def _lookup(module, path):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _replace(original, replacement):
    """Point every fdmaps reference to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "fdmaps" and not name.startswith("fdmaps."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Install span and counting wrappers on the imported fdmaps modules."""
    hooks = {"minimize.minimize_energy": _on_minimize,
             "hopf.holomorphy_residual": _on_residual}
    targets = [(layer, fn, f"{layer}.{fn}") for layer, fns in LAYERS.items() for fn in fns]
    targets += [(layer, fn, f"cli.write.{fn}") for layer, fn in WRITERS]
    for layer, path, span_name in targets:
        owner, attr = _lookup(importlib.import_module(f"fdmaps.{layer}"), path)
        original = getattr(owner, attr)
        wrapped = tracer.span(span_name, original, hooks.get(span_name))
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            _replace(original, wrapped)
    for layer, attr, count in (("minimize", "_energy_and_minjac", "minimize.energy_evals"),
                               ("convergence", "_derivatives_at",
                                "convergence.derivative_evals")):
        module = importlib.import_module(f"fdmaps.{layer}")
        original = getattr(module, attr)
        _replace(original, tracer.counter(count, original))
