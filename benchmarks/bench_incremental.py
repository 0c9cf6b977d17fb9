"""Incremental maintenance benchmark: patches vs re-queries, surgical
vs blunt cache invalidation.

Not a figure of the paper — the acceptance gate of the continuous-query
tier (:mod:`repro.service.continuous`) and the surgical
:meth:`~repro.service.cache.ValidityCache.invalidate_mutation` hook:

* **Patch-vs-requery phase** — a pool of standing kNN queries tracks a
  mutation stream (10% mutation rate against the standing pool).  The
  *patch* arm maintains them as subscriptions: every overlapping
  mutation is repaired from the influence-set margin, falling back to a
  full re-query only when the margin is exhausted.  The *requery* arm
  is the pre-subscription behaviour the seed shipped: every mutation
  bumps the epoch, every standing query re-runs.  Both arms replay the
  identical stream; mutation-side node accesses are measured on a
  query-free control run and subtracted, so the comparison is pure
  refresh cost.  The gate: the patch path is **>= 5x cheaper** in node
  accesses.

* **Cache-under-writes phase** — the identical hot-spot query workload
  with 10% interleaved mutations runs against two identically
  configured services.  One applies each write through the service,
  whose surgical mutation hook keeps the entries the write cannot
  reach; the other applies it to the server alone
  (``service.server.insert_object``), so the epoch bump stales every
  entry at its next probe: the invalidate-all baseline.  The gate: the
  surgical server-cache hit ratio is **>= 2x** the blunt baseline.

Metrics append to the schema-versioned ``BENCH_incr_*.json`` regression
trail (``benchmarks/compare.py`` guards ``node_accesses`` lower-is-
better and ``hit_ratio`` higher-is-better).
"""

from __future__ import annotations

import json
import random
import sys

import pytest

from common import SCALE, print_table, run_once, write_bench_record

from repro import (
    CacheConfig,
    ContinuousConfig,
    KNNRequest,
    build_service,
)
from repro.geometry import Rect

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

K = 3
MARGIN = 8
#: Mutations per standing-query refresh round: the 10% write rate.
MUTATION_RATE = 0.10

if SCALE == "smoke":
    N, STANDING, MUTATIONS = 2_000, 12, 80
    CACHE_N, CACHE_TICKS, HOTSPOTS = 2_000, 400, 16
else:
    N, STANDING, MUTATIONS = 10_000, 24, 400
    CACHE_N, CACHE_TICKS, HOTSPOTS = 10_000, 2_000, 32


def _points(seed: int, n: int):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(n)]


def _stream(seed: int, anchors, start_oid: int, count: int):
    """A reproducible mutation script biased towards the standing
    queries (uniform mutations rarely overlap anything; overlap is the
    case the patch path exists for)."""
    rng = random.Random(seed)
    ops, live, next_oid = [], [], start_oid
    for _ in range(count):
        if live and rng.random() < 0.4:
            oid, x, y = live.pop(rng.randrange(len(live)))
            ops.append(("delete", oid, x, y))
            continue
        ax, ay = anchors[rng.randrange(len(anchors))]
        x = min(1.0, max(0.0, ax + rng.gauss(0.0, 0.05)))
        y = min(1.0, max(0.0, ay + rng.gauss(0.0, 0.05)))
        ops.append(("insert", next_oid, x, y))
        live.append((next_oid, x, y))
        next_oid += 1
    return ops


def _apply(service, op):
    kind, oid, x, y = op
    if kind == "insert":
        service.insert_object(oid, x, y)
    else:
        service.delete_object(oid, x, y)


def _accesses(service) -> int:
    return service.stats_snapshot()["disk"]["total_node_accesses"]


# ----------------------------------------------------------------------
# phase 1: standing queries — subscription patches vs full re-queries
# ----------------------------------------------------------------------
def run_patch_vs_requery(seed: int = 2003):
    points = _points(seed, N)
    rng = random.Random(seed + 1)
    anchors = [(0.15 + 0.7 * rng.random(), 0.15 + 0.7 * rng.random())
               for _ in range(STANDING)]
    ops = _stream(seed + 2, anchors, start_oid=len(points),
                  count=MUTATIONS)

    # Control: the mutation stream alone, to isolate refresh cost.
    control = build_service(points, universe=UNIT)
    base = _accesses(control)
    for op in ops:
        _apply(control, op)
    mutation_cost = _accesses(control) - base
    control.close()

    # Patch arm: standing queries live as subscriptions; overlapping
    # mutations are repaired from the margin, server-side.
    patched = build_service(points, universe=UNIT,
                            continuous=ContinuousConfig(margin=MARGIN))
    subs = [patched.subscribe(KNNRequest(a, k=K)) for a in anchors]
    base = _accesses(patched)
    refetches = pushes = 0
    for op in ops:
        _apply(patched, op)
        for sub in subs:
            updates = sub.drain()
            if updates and updates[-1].kind == "invalidate":
                sub.move(sub.request.location)  # escape hatch: re-query
        pushes = sum(s.pushes for s in subs)
    refetches = sum(s.moves_refetched for s in subs)
    patch_cost = _accesses(patched) - base - mutation_cost
    patched.close()

    # Requery arm: the seed's behaviour — every mutation invalidates
    # every standing query (epoch bump + invalidate-all), so each one
    # re-runs fresh.
    requery = build_service(points, universe=UNIT)
    base = _accesses(requery)
    for op in ops:
        _apply(requery, op)
        for anchor in anchors:
            requery.answer(KNNRequest(anchor, k=K))
    requery_cost = _accesses(requery) - base - mutation_cost
    requery.close()

    return {
        "standing_queries": STANDING,
        "mutations": MUTATIONS,
        "mutation_cost": mutation_cost,
        "patch_node_accesses": patch_cost,
        "requery_node_accesses": requery_cost,
        "refresh_speedup": requery_cost / max(patch_cost, 1),
        "pushes": pushes,
        "refetches": refetches,
    }


# ----------------------------------------------------------------------
# phase 2: server cache hit ratio — surgical vs invalidate-all
# ----------------------------------------------------------------------
def run_cache_under_writes(seed: int = 1777):
    points = _points(seed, CACHE_N)
    rng = random.Random(seed + 1)
    hotspots = [(0.1 + 0.8 * rng.random(), 0.1 + 0.8 * rng.random())
                for _ in range(HOTSPOTS)]
    script = []
    next_oid = len(points)
    for _ in range(CACHE_TICKS):
        if rng.random() < MUTATION_RATE:
            # Uniform writes: most land nowhere near the hot regions —
            # exactly the traffic a blunt epoch bump throws away for.
            script.append(("mutate", next_oid, rng.random(), rng.random()))
            next_oid += 1
        hx, hy = hotspots[rng.randrange(len(hotspots))]
        probe = (min(1.0, max(0.0, hx + rng.gauss(0.0, 0.002))),
                 min(1.0, max(0.0, hy + rng.gauss(0.0, 0.002))))
        script.append(("query", probe))

    def run(surgical: bool) -> dict:
        service = build_service(
            points, universe=UNIT, cache=CacheConfig(capacity=4 * HOTSPOTS))
        # A write past the service skips the cache hook: blunt baseline.
        insert = (service.insert_object if surgical
                  else service.server.insert_object)
        for step in script:
            if step[0] == "mutate":
                _, oid, x, y = step
                insert(oid, x, y)
            else:
                service.answer(KNNRequest(step[1], k=K))
        snap = service.cache.snapshot()
        service.close()
        return snap

    surgical = run(surgical=True)
    blunt = run(surgical=False)
    return {
        "cache_ticks": CACHE_TICKS,
        "surgical_hit_ratio": surgical["hit_ratio"],
        "blunt_hit_ratio": blunt["hit_ratio"],
        "hit_ratio_gain": (surgical["hit_ratio"]
                           / max(blunt["hit_ratio"], 1e-9)),
        "surgical_drops": surgical["surgical_drops"],
        "surgical_survivals": surgical["surgical_survivals"],
    }


# ----------------------------------------------------------------------
# the bench
# ----------------------------------------------------------------------
def run_all(seed: int = 2003):
    patch = run_patch_vs_requery(seed)
    cache = run_cache_under_writes()
    print_table(
        f"Standing kNN refresh cost over {MUTATIONS} mutations "
        f"({STANDING} standing queries, margin {MARGIN})",
        ["mutations", "patch_accesses", "requery_accesses", "speedup",
         "pushes", "refetches"],
        [(patch["mutations"], patch["patch_node_accesses"],
          patch["requery_node_accesses"],
          round(patch["refresh_speedup"], 1), patch["pushes"],
          patch["refetches"])])
    print_table(
        f"Server cache under {MUTATION_RATE:.0%} writes "
        f"({CACHE_TICKS} ticks, {HOTSPOTS} hot spots)",
        ["surgical_hit_ratio", "blunt_hit_ratio", "gain",
         "drops", "survivals"],
        [(round(cache["surgical_hit_ratio"], 3),
          round(cache["blunt_hit_ratio"], 3),
          round(cache["hit_ratio_gain"], 1),
          cache["surgical_drops"], cache["surgical_survivals"])])
    write_bench_record(
        "maintenance", {**patch, **cache},
        context={"k": K, "margin": MARGIN,
                 "mutation_rate": MUTATION_RATE, "scale": SCALE},
        prefix="incr")
    print()
    print(f"=== incremental maintenance JSON (REPRO_SCALE={SCALE}) ===")
    print(json.dumps({"patch": patch, "cache": cache},
                     indent=2, sort_keys=True))
    sys.stdout.flush()
    return patch, cache


def test_incremental_gate(benchmark):
    patch, cache = run_once(benchmark, run_all)
    # The whole point of the influence-set margin: repairing a standing
    # query costs a small constant, re-running it costs a traversal.
    assert patch["refresh_speedup"] >= 5.0, (
        f"patch path only {patch['refresh_speedup']:.1f}x cheaper")
    # The stream was adversarial enough to mean something: patches
    # actually flowed (not a workload nothing overlapped).
    assert patch["pushes"] > 0
    # Surgical invalidation keeps the cache warm through writes.
    assert cache["hit_ratio_gain"] >= 2.0, (
        f"surgical hit ratio only {cache['hit_ratio_gain']:.1f}x blunt")
    assert cache["surgical_survivals"] > 0


if __name__ == "__main__":
    run_all()
