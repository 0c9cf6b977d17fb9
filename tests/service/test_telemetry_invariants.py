"""The telemetry accounts of one stack agree under concurrent clients.

The metrics registry, the SLO engine, the trace ring, the phase
profiler and the event log each keep their own account of the same
queries.  Four client threads drive one fully instrumented
``build_service`` stack (shards, validity cache, admission control,
SLO engine, tail sampling, profiler) with every query kind, while
injected disk faults and admission pressure produce failures and
sheds; afterwards the accounts must agree exactly.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro import (
    AdmissionConfig,
    CacheConfig,
    KNNRequest,
    ProbKNNRequest,
    RKNNRequest,
    RangeRequest,
    ResilienceConfig,
    SLOConfig,
    SLOEngine,
    TailSamplingConfig,
    WindowRequest,
    build_service,
)
from repro.service import BreakerConfig, RetryPolicy
from repro.storage import FaultPlan, inject_faults

pytestmark = pytest.mark.obs

THREADS = 4
PER_THREAD = 60
#: Wall-clock bound on the whole concurrent phase (seconds).
BUDGET_S = 60.0


def _requests(seed: int):
    rnd = random.Random(seed)
    # A few hot spots, so that later queries land in cached regions.
    spots = [(0.3, 0.3), (0.7, 0.6), (0.5, 0.8)]
    out = []
    for i in range(PER_THREAD):
        cx, cy = spots[rnd.randrange(len(spots))]
        pos = (cx + rnd.gauss(0.0, 0.01), cy + rnd.gauss(0.0, 0.01))
        kind = i % 6
        if kind in (0, 1):
            out.append(KNNRequest(pos, k=2))
        elif kind == 2:
            out.append(WindowRequest(pos, 0.05, 0.05))
        elif kind == 3:
            out.append(RangeRequest(pos, 0.04))
        elif kind == 4:
            out.append(RKNNRequest(pos, k=1))
        else:
            out.append(ProbKNNRequest(pos, uncertainty=0.01, k=1))
    return out


def _labelled_sum(counters, family: str) -> int:
    prefix = family + "{"
    return sum(v for k, v in counters.items()
               if k.startswith(prefix) and "query_kind=" in k)


def test_telemetry_accounts_agree_under_four_client_threads():
    rnd = random.Random(7)
    points = [(rnd.random(), rnd.random()) for _ in range(800)]
    service = build_service(
        points, shards=2,
        cache=CacheConfig(capacity=64, grid=8),
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                              max_delay_s=0.0),
            breaker=BreakerConfig(failure_threshold=10_000),
            admission=AdmissionConfig(max_concurrency=2, max_queue_depth=2,
                                      queue_timeout_ms=2.0)),
        # Budgets loose enough that burn never browns the stack out:
        # the sheds here come from admission pressure alone.
        slo=SLOEngine([
            SLOConfig("availability", target=0.9),
            SLOConfig("latency", objective="latency", threshold_ms=2.0,
                      target=0.5)]),
        tail=TailSamplingConfig(keep_1_in=3, slow_ms=5.0, decision_window=8),
        profile=True)
    for shard in service.server.shards:
        inject_faults(shard.server.tree,
                      FaultPlan(seed=shard.sid, read_failure_rate=0.01))

    attempts = [0] * THREADS
    failures = [0] * THREADS
    start = threading.Barrier(THREADS)

    def client(t: int) -> None:
        start.wait(timeout=BUDGET_S)
        for request in _requests(seed=t):
            attempts[t] += 1
            try:
                service.answer(request)
            except Exception:  # sheds and exhausted retries: counted below
                failures[t] += 1

    previous = sys.getswitchinterval()
    sys.setswitchinterval(5e-5)
    try:
        threads = [threading.Thread(target=client, args=(t,), daemon=True)
                   for t in range(THREADS)]
        deadline = time.monotonic() + BUDGET_S
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(t.is_alive() for t in threads), "clients overran"
    finally:
        sys.setswitchinterval(previous)
        service.close()

    counters = service.metrics.snapshot()["counters"]
    queries = counters.get("service.queries", 0)
    errors = counters.get("service.errors", 0)
    shed = counters.get("service.admission.rejected", 0)
    assert sum(attempts) == THREADS * PER_THREAD
    assert queries + errors == sum(attempts)
    assert errors == sum(failures)
    assert queries > 0

    # Per-kind labelled series add up to the unlabelled totals.
    for family in ("service.queries", "service.cache.hits", "service.errors",
                   "service.admission.rejected", "service.retries"):
        assert _labelled_sum(counters, family) == counters.get(family, 0), \
            family

    # The SLO engine observed every answered query and every failure
    # except the sheds (mitigation, not symptom).
    service.slo.evaluate()
    for name, row in service.slo.snapshot()["slos"].items():
        observed = row["observed"]
        assert observed["good"] + observed["bad"] == queries + errors - shed, \
            name

    # Every finished or failed query left one trace: the profiler saw
    # each, and the tail sampler decided each.
    traced = queries + errors
    assert service.profiler.snapshot()["seen"] == traced
    sampling = service.traces.sampling_stats()
    by_reason = sampling["retained_by_reason"]
    assert (sampling["healthy_seen"] + sum(by_reason.values())
            - by_reason.get("sampled", 0)) == traced

    # One query.start and one query.finish or query.error per request.
    emitted = service.events.stats()["emitted"]
    assert emitted["query"] == 2 * traced
