"""Mixed query-type workload through the registry-dispatched service.

Every query tier in the service is now registry-driven: kNN, window,
range, reverse-kNN and probabilistic-kNN requests all flow through the
same ``answer()`` path, the same validity cache and the same sharded
fan-out.  This bench drives a *mixed* fleet — every client issues one
kind, in fleet-like proportions — and checks that the cache era's
headline survives heterogeneity: the cached + sharded configuration
must sustain **>= 2x the throughput** of the uncached single-tree
baseline at a **>= 30% overall cache hit rate**, even though the two
new kinds answer from dataset snapshots (no tree descent) and carry
differently-shaped validity regions (disk intersections, annuli).

Run directly (``python benchmarks/bench_mixed_workload.py``) or under
pytest-benchmark (``pytest benchmarks/bench_mixed_workload.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import CONFIG, SCALE, print_table, run_once, uniform_dataset, \
    write_bench_record

from repro import CacheConfig, ExecutionConfig, KNNRequest, RangeRequest, \
    WindowRequest, build_service
from repro.core.probknn import ProbKNNRequest
from repro.core.rknn import RKNNRequest
from repro.datasets.synthetic import UNIT_UNIVERSE
from repro.mobility import random_waypoint

NUM_CLIENTS = 24 if SCALE == "smoke" else 48
TICKS = 30 if SCALE == "smoke" else 60
NUM_POINTS = 4_000 if SCALE == "smoke" else 10_000
K = 3
UNCERTAINTY = 0.02
# Per-tick step well inside the typical validity-region diameter: the
# snapshot kinds ship tighter regions than kNN, so the mixed fleet
# moves a bit slower than the pure-kNN bench to keep hits comparable.
SPEED = 0.05 / NUM_POINTS ** 0.5
CACHE_CAPACITY = 1024
SHARD_GRID = 4  # 4x4 = 16 shards

#: Fleet-like query mix (fractions of NUM_CLIENTS).
MIX: List[Tuple[str, float]] = [
    ("knn", 0.50),
    ("window", 0.20),
    ("range", 0.10),
    ("rknn", 0.10),
    ("probknn", 0.10),
]

#: (shards, cache_capacity) configurations swept, baseline first.
SWEEP: List[Tuple[int, int]] = [
    (1, 0),
    (SHARD_GRID, CACHE_CAPACITY),
]


def _request(kind: str, pos: Tuple[float, float]):
    if kind == "knn":
        return KNNRequest(pos, k=K)
    if kind == "window":
        return WindowRequest(pos, 0.1, 0.1)
    if kind == "range":
        return RangeRequest(pos, 0.05)
    if kind == "rknn":
        return RKNNRequest(pos, k=K)
    return ProbKNNRequest(pos, uncertainty=UNCERTAINTY, k=K)


def _clients() -> List[Tuple[str, List[Tuple[float, float]]]]:
    kinds: List[str] = []
    for kind, share in MIX:
        kinds.extend([kind] * round(NUM_CLIENTS * share))
    kinds = kinds[:NUM_CLIENTS]
    while len(kinds) < NUM_CLIENTS:
        kinds.append("knn")
    return [
        (kind,
         [(s.position.x, s.position.y) for s in
          random_waypoint(UNIT_UNIVERSE, TICKS, speed=SPEED,
                          seed=9100 + i)])
        for i, kind in enumerate(kinds)
    ]


def _drive(shards: int, cache_capacity: int, points,
           clients) -> Dict[str, float]:
    service = build_service(
        points,
        shards=shards,
        cache=(CacheConfig(capacity=cache_capacity)
               if cache_capacity > 0 else None),
        # single dispatch thread keeps the timing stable and comparable
        execution=ExecutionConfig(workers=1),
    )
    try:
        start = time.perf_counter()
        queries = 0
        for tick in range(TICKS):
            for kind, trajectory in clients:
                service.answer(_request(kind, trajectory[tick]))
                queries += 1
        elapsed = time.perf_counter() - start
        return {
            "queries": queries,
            "elapsed_s": elapsed,
            "throughput_qps": queries / elapsed,
            "hit_ratio": service.cache.hit_ratio if service.cache else 0.0,
        }
    finally:
        service.close()


def run_mixed_workload() -> Dict[Tuple[int, int], Dict[str, float]]:
    points = uniform_dataset(NUM_POINTS)
    clients = _clients()
    results: Dict[Tuple[int, int], Dict[str, float]] = {}
    for shards, capacity in SWEEP:
        results[(shards, capacity)] = _drive(shards, capacity, points,
                                             clients)
    baseline = results[SWEEP[0]]["throughput_qps"]
    mix_label = " ".join(f"{kind}={share:.0%}" for kind, share in MIX)
    rows = []
    for (shards, capacity), r in results.items():
        rows.append([
            shards * shards if shards > 1 else 1,
            capacity,
            f"{r['throughput_qps']:.0f}",
            f"{r['throughput_qps'] / baseline:.2f}x",
            f"{100.0 * r['hit_ratio']:.0f}%",
        ])
    print_table(
        f"mixed workload ({mix_label}; N={NUM_POINTS}, {NUM_CLIENTS} "
        f"clients x {TICKS} ticks, scale={SCALE})",
        ["shards", "cache cap", "q/s", "speedup", "hit rate"],
        rows,
    )
    metrics = {}
    for (shards, capacity), r in results.items():
        prefix = f"s{shards}c{capacity}"
        metrics[f"{prefix}.throughput_qps"] = r["throughput_qps"]
        metrics[f"{prefix}.hit_ratio"] = r["hit_ratio"]
    metrics["speedup"] = (results[(SHARD_GRID, CACHE_CAPACITY)]
                          ["throughput_qps"] / baseline)
    write_bench_record("workload", metrics, context={
        "clients": NUM_CLIENTS, "ticks": TICKS, "n": NUM_POINTS,
        "k": K, "mix": dict(MIX)}, prefix="mixed")
    return results


def test_mixed_workload(benchmark):
    results = run_once(benchmark, run_mixed_workload)
    baseline = results[(1, 0)]
    combined = results[(SHARD_GRID, CACHE_CAPACITY)]
    speedup = combined["throughput_qps"] / baseline["throughput_qps"]
    assert combined["hit_ratio"] >= 0.30, (
        f"mixed-workload cache hit ratio {combined['hit_ratio']:.0%} < 30%")
    assert speedup >= 2.0, (
        f"cached+sharded mixed throughput only {speedup:.2f}x the "
        f"uncached baseline")


if __name__ == "__main__":
    run_mixed_workload()
