"""Kernel matrix: the scalar tree path vs the numpy kernel, one API.

Every configuration here is reached through the same front door —
``build_service(points, execution=ExecutionConfig(kernel=...))`` — so
the matrix measures exactly what a caller gets by flipping the kernel
knob: the ``scalar`` R*-tree traversal (the baseline) against the
``numpy`` columnar kernel, with shard jobs on the thread pool.

The headline (asserted by the pytest wrapper): ``thread/numpy``
sustains **>= 2.5x** the kNN throughput of the thread/scalar baseline.
That is the original 5x over the per-entry scalar traversal, divided by
the speedup the R*-tree node columns gave thread/scalar (106.5 -> 206.0
q/s, 1.93x: medians of six alternating smoke runs per side on a 2-vCPU
VM) and rounded down to one decimal.

Results land in the schema-versioned ``BENCH_kernel_exec_matrix.json``
trail (``write_bench_record(..., prefix="kernel")``), which
``benchmarks/compare.py`` guards against >25% throughput regressions.

Run directly (``python benchmarks/bench_kernel_backend.py``) or under
pytest-benchmark (``pytest benchmarks/bench_kernel_backend.py``).
"""

from __future__ import annotations

import random
import time
from typing import Dict

from common import SCALE, print_table, run_once, write_bench_record

from repro import ExecutionConfig, KNNRequest, build_service

# k=10 keeps the scalar path deep in TPNN probing, which is where the
# columnar kernel amortizes; the paper's workloads top out near there.
NUM_POINTS = 10_000 if SCALE == "smoke" else 20_000
K = 10
NUM_QUERIES = 120 if SCALE == "smoke" else 200

#: Kernels swept, seed baseline first.
KERNELS = ("scalar", "numpy")


def _drive(kernel: str, points, queries) -> Dict[str, float]:
    service = build_service(points, shards=1,
                            execution=ExecutionConfig(kernel=kernel))
    service.answer(KNNRequest(queries[0], k=K))  # warm the columns
    start = time.perf_counter()
    for q in queries:
        service.answer(KNNRequest(q, k=K))
    elapsed = time.perf_counter() - start
    service.close()
    return {
        "queries": float(len(queries)),
        "elapsed_s": elapsed,
        "throughput_qps": len(queries) / elapsed,
    }


def run_kernel_backend() -> Dict[str, Dict[str, float]]:
    rnd = random.Random(5)
    points = [(rnd.random(), rnd.random()) for _ in range(NUM_POINTS)]
    queries = [(rnd.random(), rnd.random()) for _ in range(NUM_QUERIES)]
    results = {kernel: _drive(kernel, points, queries)
               for kernel in KERNELS}
    baseline = results["scalar"]["throughput_qps"]
    rows = [[kernel, f"{r['throughput_qps']:.0f}",
             f"{r['throughput_qps'] / baseline:.2f}x"]
            for kernel, r in results.items()]
    print_table(
        f"kernel kNN matrix (N={NUM_POINTS}, k={K}, "
        f"{NUM_QUERIES} queries, scale={SCALE})",
        ["kernel", "q/s", "speedup"], rows)
    # Keys keep the thread_ prefix of the former kernel x backend
    # matrix, so earlier trail records still compare.
    metrics = {f"thread_{kernel}.throughput_qps": r["throughput_qps"]
               for kernel, r in results.items()}
    metrics["best_speedup"] = max(
        r["throughput_qps"] for r in results.values()) / baseline
    write_bench_record("exec_matrix", metrics, context={
        "n": NUM_POINTS, "k": K, "queries": NUM_QUERIES}, prefix="kernel")
    return results


def test_kernel_backend(benchmark):
    results = run_once(benchmark, run_kernel_backend)
    speedup = (results["numpy"]["throughput_qps"]
               / results["scalar"]["throughput_qps"])
    assert speedup >= 2.5, (
        f"thread/numpy throughput only {speedup:.2f}x the "
        f"thread/scalar baseline (need >= 2.5x)")


if __name__ == "__main__":
    run_kernel_backend()
