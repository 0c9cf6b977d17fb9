"""Cache-capacity x shard-count sweep for the consolidated service.

A fleet of *thin* clients (no client-side result cache — every tick is
a round-trip) follows random-waypoint trajectories and issues kNN
requests straight through :meth:`QueryService.answer`.  Because a
moving client re-asks from inside the validity region it was just
served, the server-side :class:`ValidityCache` absorbs a large share
of the load, and the sharded scatter-gather server cuts the node
accesses each miss costs.  The sweep reports, per configuration,

* fleet throughput (queries/second, single dispatch thread so the
  numbers compare like-for-like),
* server-cache hit ratio,
* total R*-tree node accesses.

The headline this bench demonstrates (and the pytest wrapper asserts):
the sharded + cached configuration sustains **>= 2x the throughput**
of the single-tree uncached baseline at a **>= 30% cache hit rate**.

Run directly (``python benchmarks/bench_cache_shard.py``) or under
pytest-benchmark (``pytest benchmarks/bench_cache_shard.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import CONFIG, SCALE, print_table, run_once, uniform_dataset, \
    write_bench_record

from repro import CacheConfig, ExecutionConfig, KNNRequest, build_service
from repro.datasets.synthetic import UNIT_UNIVERSE
from repro.mobility import random_waypoint

# Thin-client fleet: positions advance slowly relative to the typical
# validity-region diameter, so consecutive ticks (and crossing
# clients) often land inside an already-cached region.
NUM_CLIENTS = 24 if SCALE == "smoke" else 48
TICKS = 40 if SCALE == "smoke" else 80
NUM_POINTS = 10_000 if SCALE == "smoke" else CONFIG.default_n
K = 3
# Validity-region diameter shrinks ~1/sqrt(N); keep the per-tick step a
# fixed fraction of it so the hit rate is density-independent.
SPEED = 0.15 / NUM_POINTS ** 0.5
CACHE_CAPACITY = 1024
SHARD_GRID = 4  # 4x4 = 16 shards

#: (shards, cache_capacity) configurations swept, baseline first.
SWEEP: List[Tuple[int, int]] = [
    (1, 0),
    (1, CACHE_CAPACITY),
    (SHARD_GRID, 0),
    (SHARD_GRID, CACHE_CAPACITY),
]


def _trajectories() -> List[List[Tuple[float, float]]]:
    return [
        [(s.position.x, s.position.y) for s in
         random_waypoint(UNIT_UNIVERSE, TICKS, speed=SPEED, seed=7000 + i)]
        for i in range(NUM_CLIENTS)
    ]


def _drive(shards: int, cache_capacity: int, points,
           trajectories) -> Dict[str, float]:
    service = build_service(
        points,
        shards=shards,
        cache=(CacheConfig(capacity=cache_capacity)
               if cache_capacity > 0 else None),
        # single dispatch thread keeps the timing stable and comparable
        execution=ExecutionConfig(workers=1),
    )
    start = time.perf_counter()
    queries = 0
    for tick in range(TICKS):
        for trajectory in trajectories:
            service.answer(KNNRequest(trajectory[tick], k=K))
            queries += 1
    elapsed = time.perf_counter() - start
    return {
        "queries": queries,
        "elapsed_s": elapsed,
        "throughput_qps": queries / elapsed,
        "hit_ratio": service.cache.hit_ratio if service.cache else 0.0,
        "node_accesses": service.server.io_stats.total_node_accesses,
    }


def run_cache_shard() -> Dict[Tuple[int, int], Dict[str, float]]:
    points = uniform_dataset(NUM_POINTS)
    trajectories = _trajectories()
    results: Dict[Tuple[int, int], Dict[str, float]] = {}
    for shards, capacity in SWEEP:
        results[(shards, capacity)] = _drive(
            shards, capacity, points, trajectories)
    baseline = results[SWEEP[0]]["throughput_qps"]
    rows = []
    for (shards, capacity), r in results.items():
        rows.append([
            shards * shards if shards > 1 else 1,
            capacity,
            f"{r['throughput_qps']:.0f}",
            f"{r['throughput_qps'] / baseline:.2f}x",
            f"{100.0 * r['hit_ratio']:.0f}%",
            int(r["node_accesses"]),
        ])
    print_table(
        f"cache x shard sweep (N={NUM_POINTS}, {NUM_CLIENTS} clients x "
        f"{TICKS} ticks, k={K}, scale={SCALE})",
        ["shards", "cache cap", "q/s", "speedup", "hit rate",
         "node accesses"],
        rows,
    )
    metrics = {}
    for (shards, capacity), r in results.items():
        prefix = f"s{shards}c{capacity}"
        metrics[f"{prefix}.throughput_qps"] = r["throughput_qps"]
        metrics[f"{prefix}.node_accesses"] = r["node_accesses"]
        metrics[f"{prefix}.hit_ratio"] = r["hit_ratio"]
    metrics["speedup"] = (results[(SHARD_GRID, CACHE_CAPACITY)]
                          ["throughput_qps"] / baseline)
    write_bench_record("cache_shard", metrics, context={
        "clients": NUM_CLIENTS, "ticks": TICKS, "n": NUM_POINTS, "k": K})
    return results


def test_cache_shard(benchmark):
    results = run_once(benchmark, run_cache_shard)
    baseline = results[(1, 0)]
    combined = results[(SHARD_GRID, CACHE_CAPACITY)]
    speedup = combined["throughput_qps"] / baseline["throughput_qps"]
    assert combined["hit_ratio"] >= 0.30, (
        f"server cache hit ratio {combined['hit_ratio']:.0%} < 30%")
    assert speedup >= 2.0, (
        f"sharded+cached throughput only {speedup:.2f}x the baseline")
    assert combined["node_accesses"] < baseline["node_accesses"]


if __name__ == "__main__":
    run_cache_shard()
