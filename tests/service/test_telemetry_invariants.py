"""The telemetry accounts of one stack agree under concurrent clients.

The metrics registry, the SLO engine, the trace ring, the phase
profiler and the event log each keep their own account of the same
queries.  Four client threads drive one fully instrumented
``build_service`` stack (shards, validity cache, admission control,
SLO engine, tail sampling, profiler) with every query kind, while
injected disk faults and admission pressure produce failures and
sheds; afterwards the accounts must agree exactly.

Within one sequential trace the spans account for the trace's time:
every span's self-time (its duration minus its children's) and the
root's uncovered time sum to the trace duration.  And each trace
accounts for the query's reads: its node accesses, plus those of any
answer a lagging replica computed and dropped, are what the query
charged to the disks of the trees behind the stack.
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
    ExecutionConfig,
    KNNRequest,
    ProbKNNRequest,
    RKNNRequest,
    RangeRequest,
    ReplicaConfig,
    ResilienceConfig,
    SLOConfig,
    SLOEngine,
    TailSamplingConfig,
    WindowRequest,
    build_service,
)
from repro.datasets.synthetic import uniform_points
from repro.obs import collapse_trace
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


#: Two sequential stacks: the paper's scalar single tree with a 10% LRU
#: buffer, and a 4x4-shard fan-out run inline (one worker) behind a
#: validity cache and two replicas lagging two mutations.
SEQUENTIAL_STACKS = {
    "single": dict(buffer_fraction=0.1),
    "sharded": dict(shards=4, execution=ExecutionConfig(workers=1),
                    cache=CacheConfig(capacity=64),
                    replica=ReplicaConfig(replication_lag=2), replicas=2),
}


@pytest.mark.parametrize("stack", sorted(SEQUENTIAL_STACKS))
def test_span_self_times_sum_to_the_trace_duration(stack):
    """Clipping runs inside TPNN probing, so its span nests there: a
    root-level clip span would count that time twice."""
    rnd = random.Random(3)
    points = [(rnd.random(), rnd.random()) for _ in range(1500)]
    service = build_service(points, trace_capacity=1024,
                            **SEQUENTIAL_STACKS[stack])
    with service:
        for i in range(40):
            pos = (rnd.random(), rnd.random())
            for request in (KNNRequest(pos, k=1 + i % 3),
                            WindowRequest(pos, 0.05, 0.04),
                            RangeRequest(pos, 0.03),
                            RKNNRequest(pos, k=2),
                            ProbKNNRequest(pos, uncertainty=0.01, k=2)):
                service.answer(request)
            if i % 10 == 9:
                service.insert_object(10_000 + i, rnd.random(), rnd.random())
    traces = service.recent_traces()
    assert len(traces) == 200
    assert {t.kind for t in traces} == {
        "knn", "window", "range", "rknn", "probknn"}
    over = [(t.trace_id, t.kind) for t in traces
            if abs(sum(collapse_trace(t, normalize=False).values())
                   - t.duration_ms) > 1e-6 * t.duration_ms]
    assert over == []
    clips = [(t, s) for t in traces for s in t.spans
             if s.name == "bisector_clipping"]
    if stack == "single":
        assert clips  # the scalar kNN path clips between probes
    for trace, clip in clips:
        probing = next(s for s in trace.spans if s.span_id == clip.parent_id)
        assert probing.name == "tpnn_probing"
        assert clip.offset_ms == probing.offset_ms
        assert clip.duration_ms <= probing.duration_ms


def _disk_node_accesses(server) -> int:
    """Node accesses charged so far to the disk of every tree behind
    ``server``: each replica's server, or each of its shards' trees."""
    members = [r.server for r in getattr(server, "replicas", ())] or [server]
    trees = [s.server for m in members for s in getattr(m, "shards", ())]
    trees += [m for m in members if not hasattr(m, "shards")]
    return sum(t.tree.disk.stats.total_node_accesses for t in trees)


@pytest.mark.parametrize("stack", sorted(SEQUENTIAL_STACKS))
def test_trace_node_accesses_equal_the_reads_the_query_caused(stack):
    """Per query, the trace's node accesses plus the growth of the
    replica tier's discarded-reads counter equal the growth of every
    tree's own disk counter."""
    rnd = random.Random(3)
    points = [(rnd.random(), rnd.random()) for _ in range(1500)]
    service = build_service(points, trace_capacity=1024,
                            **SEQUENTIAL_STACKS[stack])
    metrics = service.metrics
    discarded = "service.replica.discarded_node_accesses"
    mismatched, reads = [], 0
    with service:
        for i in range(40):
            pos = (rnd.random(), rnd.random())
            for request in (KNNRequest(pos, k=1 + i % 3),
                            WindowRequest(pos, 0.05, 0.04),
                            RangeRequest(pos, 0.03),
                            RKNNRequest(pos, k=2),
                            ProbKNNRequest(pos, uncertainty=0.01, k=2)):
                disk = _disk_node_accesses(service.server)
                dropped = metrics.counter_total(discarded)
                service.answer(request)
                (trace,) = service.recent_traces(1)
                caused = _disk_node_accesses(service.server) - disk
                dropped = metrics.counter_total(discarded) - dropped
                reads += caused > 0
                if trace.total_node_accesses + dropped != caused:
                    mismatched.append((trace.trace_id, trace.kind,
                                       trace.total_node_accesses, dropped,
                                       caused))
            if i % 10 == 9:
                service.insert_object(10_000 + i, rnd.random(), rnd.random())
    assert mismatched == []
    assert reads > 0


def test_only_executed_answers_are_metered_as_replica_work():
    """A cache hit on an entry a replica served ran no replica.  After
    every answer, the service's per-replica query series sum to what
    the replicas answered, its stale-serve count equals theirs, and the
    staleness SLO saw one bad observation per answer executed stale."""
    service = build_service(
        uniform_points(500, seed=1), replicas=2, cache=CacheConfig(),
        replica=ReplicaConfig(replication_lag=2, default_max_stale=2),
        slo=SLOEngine([SLOConfig("fresh", objective="staleness",
                                 target=0.5)]))
    metrics, replicas = service.metrics, service.server
    rnd = random.Random(11)
    hits = executed_stale = 0
    with service:
        for i in range(80):
            x, y = 0.5 + rnd.gauss(0.0, 0.01), 0.5 + rnd.gauss(0.0, 0.01)
            if i % 2:  # near the clients: it drops cached entries
                service.insert_object(10_000 + i, x + 0.05, y)
            before = service.cache.hits
            response = service.answer(KNNRequest((x, y), k=3))
            if service.cache.hits > before:
                hits += 1
            elif response.staleness:
                executed_stale += 1
            answered = sum(row["queries"]
                           for row in replicas.replica_snapshot())
            assert metrics.counter_total("service.replica.queries") \
                == answered, i
            stale = metrics.snapshot()["counters"].get(
                "service.replica.stale_served", 0)
            assert stale == replicas.stale_served, i
            service.slo.evaluate()
            observed = service.slo.snapshot()["slos"]["fresh"]["observed"]
            assert observed["bad"] == executed_stale, i
    # The walk exercised what it checks: hits on replica-served entries
    # and answers a lagging replica served stale.
    assert hits > 0 and executed_stale > 0
