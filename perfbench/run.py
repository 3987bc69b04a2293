#!/usr/bin/env python3
"""avembed benchmark: one workload per process, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload eval-sweep --seed 0 --seconds 10 --trace 0

Run from the repository root. Set-up runs three times and its median is
``setup_s``; then units of the workload run until ``--seconds`` have passed
(at least one). With ``--trace 1`` one untraced and one traced unit run, and
the per-layer metrics come from spans the benchmark wraps around the
program's public functions. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Patches, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# the keys of workloads.WORKLOADS, which cannot be imported before BLAS threads are set
WORKLOAD_NAMES = ("eval-sweep", "ordering", "query")


def environment() -> dict:
    """Machine facts and a float64/float32 GEMM probe, so machine drift shows apart from code change."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        vendor = "unknown"
    probe = {}
    rng = np.random.default_rng(0)
    for dtype in ("float64", "float32"):
        a = rng.normal(size=(512, 1024)).astype(dtype)
        b = rng.normal(size=(1024, 256)).astype(dtype)
        times = []
        for _ in range(32):
            start = time.perf_counter()
            a @ b
            times.append((time.perf_counter() - start) * 1e3)
        probe[f"gemm_{dtype}_ms"] = statistics.median(times[2:])
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "gemm_shape": "(512x1024)@(1024x256)",
        **probe,
    }


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile: a tenth of the samples lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def _timed_phase(wl, seconds: float, reference, tol):
    walls, latencies, results = [], [], []
    phase_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        raw = wl.run()
        walls.append(time.perf_counter() - start)
        latencies += raw.get("latencies_ms", [])  # only `query` times its calls
        results.append(wl.check(raw, reference, tol))
        if time.perf_counter() - phase_start >= seconds:
            return walls, latencies, results


def _traced_phase(wl, reference, tol):
    """Returns (per-layer metrics, unit results, failures of the traced run itself)."""
    import layers

    start = time.perf_counter()
    raw_plain = wl.run()
    untraced_s = time.perf_counter() - start
    tracer = Tracer()
    with Patches() as patches:
        missing = layers.install(patches, tracer)
        start = time.perf_counter()
        raw_traced = wl.run()
        traced_s = time.perf_counter() - start
    results = [wl.check(raw_plain, reference, tol), wl.check(raw_traced, reference, tol)]
    run_failures = [f"trace: required binding {name} was not wrapped" for name in missing]
    if wl.fingerprint(raw_plain) != wl.fingerprint(raw_traced):
        run_failures.append("trace: traced outputs differ from untraced outputs")
    calls = {name: agg["calls"] for name, agg in tracer.totals().items()}
    for name, want in wl.expected_calls().items():
        if calls.get(name, 0) != want:
            run_failures.append(f"trace: {name} made {calls.get(name, 0)} calls, expected {want}")
    return layers.layer_metrics(tracer, traced_s, untraced_s), results, run_failures


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, human-readable report lines)."""
    from workloads import WORKLOADS

    ref_all = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    reference = ref_all["workloads"].get(name) if seed == ref_all["seed"] else None
    tol = float(ref_all["tolerance"])
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    lines = [f"env {json.dumps(environment(), sort_keys=True)}"]
    try:
        wl = WORKLOADS[name](seed, workdir)
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        run_failures: list[str] = []
        if trace:
            metrics, results, run_failures = _traced_phase(wl, reference, tol)
        else:
            walls, latencies, results = _timed_phase(wl, seconds, reference, tol)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted = sum(r.ops for r in results)
    failed = sum(len(r.failed) for r in results)
    failures = [msg for r in results for msg in r.failures] + run_failures
    cells = [c for r in results for row in r.maps.values() for c in row if isinstance(c, float)]
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": (1.0 - failed / attempted, "ratio"),
            "map_mean": (statistics.fmean(cells) if cells else 0.0, "MAP"),
        }
        lines += [
            f"setup_s: median of {len(setups)} set-ups {[round(s, 4) for s in setups]}",
            f"wall_s: median of {len(walls)} unit(s) {[round(w, 4) for w in walls]}",
        ]
        if latencies:
            # printed, not in the result: only `query` has them, and every
            # workload must report every gated metric (see README)
            lines += [
                f"query_p50_ms {statistics.median(latencies):.6g} ms (over {len(latencies)} queries)",
                f"query_p90_ms {_p90(latencies):.6g} ms (over {len(latencies)} queries)",
            ]
    lines.append(f"error_rate {failed}/{attempted} (failed / attempted {wl.op_kind})")
    lines.append(f"maps {json.dumps(results[-1].maps)}")
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "avembed" / "__init__.py").is_file():
        print(f"perfbench: no avembed sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(src))
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
