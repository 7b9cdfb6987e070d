"""fdmaps benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation runs in its own
worker process (perfbench/worker.py) with BLAS threads pinned to nproc
through environment variables.

--trace 0 repeats the workload's operation while the next one fits in
--seconds (at least once) and reports the end-to-end metrics: the median
operation time, the median peak memory of a worker, and the median set-up
time over at least SETUP_SAMPLES fresh interpreters.

--trace 1 runs the operation once untraced and twice traced, reports the
per-layer metrics (median of the two traced runs), the tracing overhead,
and fails the run if the exact counts of the two traced runs differ.
Spans go to perfbench/out/spans-*.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

SETUP_SAMPLES = 5
DEADLINE_S = 170.0       # the whole run ends within this, whatever --seconds says
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Worker:
    """One worker process: its set-up time and its result document."""

    def __init__(self, argv, env, timeout):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0 if ready == "READY\n" else None
            rest, _ = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.doc = None
        lines = rest.strip().splitlines()
        if proc.returncode == 0 and lines:
            self.doc = json.loads(lines[-1])

    @property
    def ok(self) -> bool:
        return (self.doc is not None and "error" not in self.doc
                and all(self.doc["checks"].values()))


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def machine(nproc: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": nproc, "cpu": cpu, "git_commit": commit}


class Runner:
    """One benchmark run: its workers, output directory and deadline."""

    def __init__(self, workload, seed, nproc):
        self.workload = workload
        self.seed = seed
        self.env = child_env(nproc)
        self.deadline = time.monotonic() + DEADLINE_S
        self.out = HERE / "out"
        self.out.mkdir(exist_ok=True)
        self.workers = []
        self._spawned = 0

    def spawn(self, *extra) -> Worker:
        self._spawned += 1
        work = self.out / f"work-{os.getpid()}-{self._spawned}"
        argv = ["--workload", self.workload, "--seed", str(self.seed),
                "--work-dir", str(work), *extra]
        return Worker(argv, self.env, self.deadline - time.monotonic())

    def operation(self, traced: bool = False) -> Worker:
        extra = ()
        if traced:
            name = f"spans-{self.workload}-seed{self.seed}-{len(self.workers)}.json"
            extra = ("--trace-file", str(self.out / name))
        worker = self.spawn(*extra)
        self.workers.append(worker)
        return worker

    def setup_samples(self):
        """Set-up times of the operations so far, topped up to SETUP_SAMPLES."""
        samples = [w.setup_s for w in self.workers if w.setup_s is not None]
        while len(samples) < SETUP_SAMPLES and time.monotonic() < self.deadline:
            setup_s = self.spawn("--setup-only").setup_s
            if setup_s is None:
                break
            samples.append(setup_s)
        return samples


def measure(runner, seconds):
    ops = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        ops.append(runner.operation())
        now = time.monotonic()
        per_op = now - t0
        if now - start + per_op > seconds or now + per_op > runner.deadline:
            break
    timed = [w.doc for w in ops if w.doc is not None and "wall_s" in w.doc]
    if not timed:
        return ops, None
    metrics = {"wall_s": statistics.median(d["wall_s"] for d in timed),
               "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in timed),
               "setup_s": statistics.median(runner.setup_samples())}
    return ops, metrics


def measure_traced(runner):
    plain = runner.operation()
    traced = [runner.operation(traced=True) for _ in range(2)]
    ops = [plain, *traced]
    if any(w.doc is None or "wall_s" not in w.doc for w in ops):
        return ops, None, True
    layers = [w.doc["layers"] for w in traced]
    repeat = all(layers[0][k] == layers[1][k] for k in tracing.EXACT_COUNTS)
    metrics = {k: layers[0][k] if layers[0][k] == layers[1][k]
               else statistics.median(s[k] for s in layers) for k in layers[0]}
    traced_wall = statistics.median(w.doc["wall_s"] for w in traced)
    metrics["bench.trace_overhead_s"] = traced_wall - plain.doc["wall_s"]
    if not repeat:
        print("exact counts differ between traced runs: "
              + ", ".join(f"{k} {layers[0][k]} vs {layers[1][k]}"
                          for k in tracing.EXACT_COUNTS if layers[0][k] != layers[1][k]),
              file=sys.stderr)
    return ops, metrics, not repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fdmaps benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fdmaps" / "__init__.py").is_file():
        print(f"error: no fdmaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    runner = Runner(args.workload, args.seed, nproc)
    # first interpreter compiles bytecode and warms the file cache; not timed
    runner.spawn("--setup-only")

    if args.trace:
        ops, metrics, count_mismatch = measure_traced(runner)
        wanted = bench["per_layer"]
    else:
        ops, metrics = measure(runner, args.seconds)
        count_mismatch = False
        wanted = bench["end_to_end"]
    if metrics is None:
        print("error: no operation produced a measurement", file=sys.stderr)
        return 1
    failed = sum(not w.ok for w in ops) + count_mismatch
    metrics["bench.fail_frac"] = failed / len(ops)
    for w in ops:
        if w.doc is not None and not w.ok:
            print(f"operation failed: {w.doc.get('error') or w.doc['checks']}", file=sys.stderr)

    env = next((w.doc["env"] for w in ops if w.doc is not None), {})
    print(json.dumps({"environment": {**machine(nproc), **env,
                                      "workload": args.workload, "seed": args.seed,
                                      "inputs": workloads.inputs(args.workload, args.seed)}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
