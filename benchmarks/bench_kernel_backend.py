"""Execution matrix: geometry kernels x shard backends under one API.

Every configuration here is reached through the same front door —
``build_service(points, execution=ExecutionConfig(...))`` — so the
matrix measures exactly what a caller gets by flipping the two
``ExecutionConfig`` knobs:

* ``kernel``: the ``scalar`` R*-tree traversal (the baseline), the
  stdlib ``soa`` columnar kernel, and the ``numpy`` columnar kernel
  (skipped when numpy is unavailable or ``REPRO_KERNEL_DISABLE_NUMPY``
  is set);
* ``backend``: ``thread`` scatter-gather vs the ``process`` pool with
  struct-packed wire frames (a documented no-op at ``shards=1``).

The headline (asserted by the pytest wrapper when numpy is enabled):
``ExecutionConfig(backend="process", kernel="numpy")`` sustains
**>= 2.5x** the kNN throughput of the thread/scalar baseline.  That is
the original 5x over the per-entry scalar traversal, divided by the
speedup the R*-tree node columns gave thread/scalar (106.5 -> 206.0
q/s, 1.93x: medians of six alternating smoke runs per side on a 2-vCPU
VM) and rounded down to one decimal.  The pure-stdlib ``soa`` kernel
is the *portability* fallback, not the perf path — at these
cardinalities its linear scans lose to the tree, and the table shows
that honestly.

Results land in the schema-versioned ``BENCH_kernel_exec_matrix.json``
trail (``write_bench_record(..., prefix="kernel")``), which
``benchmarks/compare.py`` guards against >25% throughput regressions.

Run directly (``python benchmarks/bench_kernel_backend.py``) or under
pytest-benchmark (``pytest benchmarks/bench_kernel_backend.py``).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from common import SCALE, print_table, run_once, write_bench_record

from repro import ExecutionConfig, KNNRequest, build_service
from repro.kernel.config import numpy_enabled

# k=10 keeps the scalar path deep in TPNN probing, which is where the
# columnar kernels amortize; the paper's workloads top out near there.
NUM_POINTS = 10_000 if SCALE == "smoke" else 20_000
K = 10
NUM_QUERIES = 120 if SCALE == "smoke" else 200

#: (backend, kernel) configurations swept, seed baseline first.
def _sweep() -> List[Tuple[str, str]]:
    configs = [("thread", "scalar"), ("thread", "soa")]
    if numpy_enabled():
        configs += [("thread", "numpy"), ("process", "numpy")]
    else:
        configs += [("process", "soa")]
    return configs


def _drive(backend: str, kernel: str, points, queries) -> Dict[str, float]:
    service = build_service(
        points, shards=1,
        execution=ExecutionConfig(backend=backend, kernel=kernel))
    service.answer(KNNRequest(queries[0], k=K))  # warm pool + columns
    start = time.perf_counter()
    for q in queries:
        service.answer(KNNRequest(q, k=K))
    elapsed = time.perf_counter() - start
    close = getattr(service.server, "close", None)
    if close is not None:
        close()
    return {
        "queries": float(len(queries)),
        "elapsed_s": elapsed,
        "throughput_qps": len(queries) / elapsed,
    }


def run_kernel_backend() -> Dict[Tuple[str, str], Dict[str, float]]:
    rnd = random.Random(5)
    points = [(rnd.random(), rnd.random()) for _ in range(NUM_POINTS)]
    queries = [(rnd.random(), rnd.random()) for _ in range(NUM_QUERIES)]
    sweep = _sweep()
    results: Dict[Tuple[str, str], Dict[str, float]] = {}
    for backend, kernel in sweep:
        results[(backend, kernel)] = _drive(backend, kernel, points, queries)
    baseline = results[sweep[0]]["throughput_qps"]
    rows = []
    for (backend, kernel), r in results.items():
        rows.append([backend, kernel, f"{r['throughput_qps']:.0f}",
                     f"{r['throughput_qps'] / baseline:.2f}x"])
    print_table(
        f"kernel x backend kNN matrix (N={NUM_POINTS}, k={K}, "
        f"{NUM_QUERIES} queries, scale={SCALE})",
        ["backend", "kernel", "q/s", "speedup"], rows)
    metrics = {}
    for (backend, kernel), r in results.items():
        metrics[f"{backend}_{kernel}.throughput_qps"] = r["throughput_qps"]
    best = max(r["throughput_qps"] for r in results.values())
    metrics["best_speedup"] = best / baseline
    write_bench_record("exec_matrix", metrics, context={
        "n": NUM_POINTS, "k": K, "queries": NUM_QUERIES,
        "numpy": numpy_enabled()}, prefix="kernel")
    return results


def test_kernel_backend(benchmark):
    results = run_once(benchmark, run_kernel_backend)
    baseline = results[("thread", "scalar")]["throughput_qps"]
    if numpy_enabled():
        process_numpy = results[("process", "numpy")]["throughput_qps"]
        speedup = process_numpy / baseline
        assert speedup >= 2.5, (
            f"process/numpy throughput only {speedup:.2f}x the "
            f"thread/scalar baseline (need >= 2.5x)")
    else:
        # Fallback leg: stdlib soa must at least stay on the road.
        assert results[("process", "soa")]["throughput_qps"] > 0


if __name__ == "__main__":
    run_kernel_backend()
