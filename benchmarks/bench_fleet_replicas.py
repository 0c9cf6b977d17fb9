"""Replicated-fleet chaos benchmark: correctness and availability under
disk faults, a mid-run replica crash, and 2x admission overload.

Not a figure of the paper — this is the acceptance gate of the
replicated serving tier:

* **Chaos phase** — a 3-replica :class:`~repro.service.replica.ReplicaSet`
  (bounded-stale reads, per-replica breakers) serves an oracle-checked
  kNN workload with interleaved inserts/deletes while 5% of queries
  hit an injected disk fault (the per-read failure rate is calibrated
  against the measured reads-per-query), and one replica is
  hard-killed halfway through.  Every served answer is compared against
  a brute-force oracle over the *fresh* dataset — stale-served answers
  included, which is exactly the
  :func:`~repro.service.staleness.shrunk_stale_region` soundness
  contract.  The gate: **zero** incorrect answers, availability >= 99%.
  (Faults target the query phases ``nn``/``tpnn``/``result``/
  ``influence``; the mutation path stays reliable so the oracle is
  exact — serving correctness is what this phase measures.)

* **Overload phase** — a fresh admission-gated service
  (``max_queue_depth=0``: every excess request is a queue-full fast
  reject) takes 2x its capacity in offered load.  First a query parked
  inside the server holds the one execution slot while a second client
  offers its requests, so every offer is shed whatever the thread
  scheduler does; then the slot is released and two clients run free.
  The gate: rejects are decided in under 1 ms (p99, client-side), and
  the latency of *accepted* queries stays within 2x of the unloaded
  p99.

Both phases append flat metrics to the schema-versioned
``BENCH_fleet_replicas.json`` regression trail (see
``benchmarks/compare.py``; availability is guarded higher-is-better).
"""

from __future__ import annotations

import json
import math
import random
import sys
import threading
from time import perf_counter, sleep

import pytest

from common import SCALE, print_table, run_once, write_bench_record

from repro.core.api import KNNRequest
from repro.geometry import Rect
from repro.service import (
    AdmissionConfig,
    AdmissionRejectedError,
    BreakerConfig,
    QueryService,
    ReplicaConfig,
    ReplicaSet,
    ResilienceConfig,
    RetryBudgetConfig,
    RetryPolicy,
    build_service,
)
from repro.storage import FaultPlan, inject_faults

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

REPLICAS = 3
#: Fault incidence per *query*: 5% of queries hit a disk fault.  The
#: simulator faults per page read, so the per-read rate is calibrated
#: against the measured reads-per-query (a kNN + TPNN influence pass
#: touches dozens of pages; 5% per read would fail ~85% of queries —
#: no replication factor survives that, and it is not what "5% disk
#: faults" means for a serving fleet).
FAULT_INCIDENCE = 0.05
MAX_STALE = 4
K = 3

if SCALE == "smoke":
    CHAOS_N, CHAOS_QUERIES = 1_500, 360
    OVERLOAD_N, UNLOADED_QUERIES, OVERLOAD_QUERIES = 8_000, 150, 150
else:
    CHAOS_N, CHAOS_QUERIES = 10_000, 2_000
    OVERLOAD_N, UNLOADED_QUERIES, OVERLOAD_QUERIES = 50_000, 500, 500

#: Disk phases queries charge reads to (updates use none of these).
QUERY_PHASES = ("nn", "tpnn", "result", "influence")


def _calibrated_read_rate(points, rng, queries: int = 40) -> float:
    """The per-read failure rate giving ``FAULT_INCIDENCE`` per query,
    measured against a throwaway server running the bench workload."""
    from repro.core.server import LocationServer

    probe = LocationServer.from_points(points, universe=UNIT, capacity=128)
    for _ in range(queries):
        probe.answer(KNNRequest((rng.random(), rng.random()), k=K))
    reads = sum(probe.io_stats.node_accesses_by_phase().values())
    avg = max(1.0, reads / queries)
    return 1.0 - (1.0 - FAULT_INCIDENCE) ** (1.0 / avg)


def _brute_knn_set(fresh, q, k):
    """Oracle kNN oid set; None when the k-th distance is tied."""
    ranked = sorted((math.dist(xy, q), oid) for oid, xy in fresh.items())
    if len(ranked) > k and ranked[k][0] - ranked[k - 1][0] < 1e-9:
        return None
    return {oid for _, oid in ranked[:k]}


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# phase 1: chaos — faults + mid-run crash, oracle-checked
# ----------------------------------------------------------------------
def run_chaos(seed: int = 20030609):
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(CHAOS_N)]
    fresh = {i: xy for i, xy in enumerate(points)}

    # The ejection threshold is set so random faults do not trip it
    # but the killed replica — failing every single attempt — trips
    # within a dozen queries.
    rs = ReplicaSet.from_points(
        points, replicas=REPLICAS, universe=UNIT, capacity=128,
        config=ReplicaConfig(
            replication_lag=2, default_max_stale=MAX_STALE,
            breaker=BreakerConfig(failure_threshold=10,
                                  reset_timeout_s=0.05)))
    service = QueryService(rs, resilience=ResilienceConfig(
        retry=RetryPolicy(max_attempts=6, base_delay_s=0.0005,
                          max_delay_s=0.005),
        breaker=None,  # per-replica breakers handle ejection
        retry_budget=RetryBudgetConfig(max_retries=512, window_s=1.0),
        seed=seed))
    read_rate = _calibrated_read_rate(points, random.Random(seed + 1))
    plan = FaultPlan(seed=seed,
                     phase_failure_rates={p: read_rate
                                          for p in QUERY_PHASES})
    for replica in rs.replicas:
        inject_faults(replica.server.tree, plan)

    victim = 1  # a non-primary: mutations keep flowing after the crash
    next_oid = 1_000_000
    inserted = []
    attempted = served = incorrect = errors = stale_hits = 0
    t0 = perf_counter()
    for i in range(CHAOS_QUERIES):
        if i == CHAOS_QUERIES // 2:
            rs.kill(victim)  # hard crash, never revived
        if i % 48 == 47:  # the background health check a deployment runs
            rs.probe_health()
        if i % 8 == 3:  # interleave mutations (~12% of ticks)
            if inserted and rng.random() < 0.4:
                oid = inserted.pop(rng.randrange(len(inserted)))
                x, y = fresh.pop(oid)
                service.delete_object(oid, x, y)
            else:
                oid, next_oid = next_oid, next_oid + 1
                x, y = rng.random(), rng.random()
                service.insert_object(oid, x, y)
                fresh[oid] = (x, y)
                inserted.append(oid)
        q = (rng.random(), rng.random())
        attempted += 1
        try:
            resp = service.answer(KNNRequest(q, k=K, max_stale=MAX_STALE))
        except Exception:
            errors += 1
            continue
        served += 1
        if getattr(resp, "staleness", 0):
            stale_hits += 1
        oracle = _brute_knn_set(fresh, q, K)
        if oracle is not None and {e.oid for e in resp.result} != oracle:
            incorrect += 1
    elapsed = perf_counter() - t0

    counters = service.metrics.snapshot()["counters"]
    snap = rs.snapshot()
    service.close()
    return {
        "queries": attempted,
        "served": served,
        "errors": errors,
        "incorrect": incorrect,
        "availability": served / attempted,
        "stale_served": stale_hits,
        "failovers": rs.failovers,
        "retries": counters.get("service.retries", 0),
        "victim_state": snap["replicas"][victim]["state"],
        "elapsed_s": elapsed,
    }


# ----------------------------------------------------------------------
# phase 2: overload — 2x offered load through the admission gate
# ----------------------------------------------------------------------
def run_overload(seed: int = 4096):
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(OVERLOAD_N)]
    service = build_service(
        points, universe=UNIT,
        resilience=ResilienceConfig(
            breaker=None,
            admission=AdmissionConfig(
                max_concurrency=1, max_queue_depth=0,
                reduce_at=4.0, cache_only_at=6.0, reject_at=8.0)))

    def one_query():
        q = (rng.random(), rng.random())
        return service.answer(KNNRequest(q, k=10))

    # Unloaded baseline: sequential, every request is admitted.
    unloaded_ms = []
    for _ in range(UNLOADED_QUERIES):
        t0 = perf_counter()
        one_query()
        unloaded_ms.append((perf_counter() - t0) * 1e3)

    accepted_ms, reject_ms = [], []
    lock = threading.Lock()

    def offer(crng: random.Random) -> bool:
        """One client request; True when it was admitted."""
        q = (crng.random(), crng.random())
        t0 = perf_counter()
        try:
            service.answer(KNNRequest(q, k=10))
        except AdmissionRejectedError:
            with lock:
                reject_ms.append((perf_counter() - t0) * 1e3)
            return False
        with lock:
            accepted_ms.append((perf_counter() - t0) * 1e3)
        return True

    # Held slot: a query parked inside the server keeps the single
    # execution slot while a second client offers its requests.  The
    # gate has no queue, so each offer is fast-rejected whatever the
    # scheduler does.  The parked query is kept out of accepted_ms.
    server = service.server
    parked, release = threading.Event(), threading.Event()
    answer = server.answer

    def park(request):
        parked.set()
        release.wait()
        return answer(request)

    server.answer = park
    holder = threading.Thread(target=one_query)
    holder.start()
    assert parked.wait(timeout=60), "the held query never reached the server"
    del server.answer  # only the holder parks
    crng = random.Random(seed - 1)
    held_admitted = sum(offer(crng) for _ in range(OVERLOAD_QUERIES))
    release.set()
    holder.join()

    # Free-running 2x overload: two clients against the slot; the
    # losing client is fast-rejected and backs off briefly before
    # re-offering, as a real client would.
    def client(client_seed: int):
        crng = random.Random(client_seed)
        for _ in range(OVERLOAD_QUERIES):
            if not offer(crng):
                sleep(0.0002)  # client backoff after a shed

    threads = [threading.Thread(target=client, args=(seed + i,))
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    admission = service.admission.snapshot()
    service.close()
    return {
        "unloaded_p99_ms": _quantile(unloaded_ms, 0.99),
        "accepted_p99_ms": _quantile(accepted_ms, 0.99),
        "fast_reject_p99_ms": _quantile(reject_ms, 0.99),
        "accepted": len(accepted_ms),
        "rejected": len(reject_ms),
        "rejected_queue_full": admission["rejected_queue_full"],
        "held_admitted": held_admitted,
    }


# ----------------------------------------------------------------------
# the bench
# ----------------------------------------------------------------------
def run_all(seed: int = 20030609):
    chaos = run_chaos(seed)
    overload = run_overload()
    print_table(
        f"Fleet chaos: {REPLICAS} replicas, {FAULT_INCIDENCE:.0%} per-query "
        f"disk faults, replica 1 killed at query {CHAOS_QUERIES // 2}",
        ["queries", "served", "errors", "incorrect", "availability",
         "stale", "failovers", "retries"],
        [(chaos["queries"], chaos["served"], chaos["errors"],
          chaos["incorrect"], chaos["availability"], chaos["stale_served"],
          chaos["failovers"], chaos["retries"])])
    print_table(
        "Fleet overload: 2x offered load, queue depth 0",
        ["unloaded_p99", "accepted_p99", "reject_p99", "accepted",
         "rejected"],
        [(overload["unloaded_p99_ms"], overload["accepted_p99_ms"],
          overload["fast_reject_p99_ms"], overload["accepted"],
          overload["rejected"])])
    metrics = {
        "availability": chaos["availability"],
        "incorrect": chaos["incorrect"],
        "chaos_queries": chaos["queries"],
        "chaos_errors": chaos["errors"],
        "stale_served": chaos["stale_served"],
        "failovers": chaos["failovers"],
        "unloaded_p99_ms": overload["unloaded_p99_ms"],
        "accepted_p99_ms": overload["accepted_p99_ms"],
        "fast_reject_p99_ms": overload["fast_reject_p99_ms"],
        "overload_rejected": overload["rejected"],
    }
    write_bench_record(
        "replicas", metrics,
        context={"replicas": REPLICAS, "fault_incidence": FAULT_INCIDENCE,
                 "max_stale": MAX_STALE, "scale": SCALE},
        prefix="fleet")
    print()
    print(f"=== fleet chaos JSON (REPRO_SCALE={SCALE}) ===")
    print(json.dumps({"chaos": chaos, "overload": overload},
                     indent=2, sort_keys=True))
    sys.stdout.flush()
    return chaos, overload


@pytest.mark.chaos
def test_fleet_chaos_gate(benchmark):
    chaos, overload = run_once(benchmark, run_all)
    # Correctness is never traded for availability.
    assert chaos["incorrect"] == 0
    assert chaos["availability"] >= 0.99
    # The crash was survived, not avoided: traffic really failed over.
    assert chaos["failovers"] >= 1
    assert chaos["victim_state"] == "down"
    # Overload gate: sheds decide fast, accepted queries stay fast.
    assert overload["rejected"] > 0
    assert overload["held_admitted"] == 0  # the held slot shed every offer
    assert overload["fast_reject_p99_ms"] < 1.0
    # 0.5 ms absolute grace absorbs scheduler jitter on sub-ms queries.
    assert overload["accepted_p99_ms"] <= (
        2.0 * overload["unloaded_p99_ms"] + 0.5)


if __name__ == "__main__":
    run_all()
