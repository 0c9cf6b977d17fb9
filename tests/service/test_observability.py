"""Observability integration: the telemetry pipeline under a real service.

End-to-end assertions that the trace context propagates client →
service → shard workers → disk, that the event log captures the
service's life (including injected faults), and that a concurrent
Prometheus scraper only ever sees mutually consistent counters.

Marked ``obs`` so the CI chaos job (``-m "chaos or obs"``) runs them
alongside the fault-injection battery; they also run in the default
suite.
"""

from __future__ import annotations

import math
import random
import threading

import pytest

from repro import CacheConfig, KNNRequest, build_service
from repro.core import LocationServer, MobileClient
from repro.geometry import Rect
from repro.obs import (
    EventLog,
    MetricsRegistry,
    QueryTrace,
    current_trace,
    prometheus_text,
)
from repro.service import (
    BreakerConfig,
    QueryService,
    ResilienceConfig,
    RetryPolicy,
    TraceBuffer,
)
from repro.storage import FaultPlan, inject_faults

pytestmark = pytest.mark.obs


def _points(n=600, seed=42):
    rnd = random.Random(seed)
    return [(rnd.random(), rnd.random()) for _ in range(n)]


# ----------------------------------------------------------------------
# the end-to-end span tree
# ----------------------------------------------------------------------
def test_sharded_query_builds_one_tree_client_to_disk():
    service = build_service(_points(), shards=2, cache=CacheConfig(capacity=8))
    service.answer(KNNRequest((0.5, 0.5), k=4, trace_id="t-e2e"))

    trace = service.traces.find("t-e2e")
    assert trace is not None
    root_names = [s.name for s in trace.children(None)]
    assert "cache_probe" in root_names
    assert "shard_fanout" in root_names
    assert "serialization" in root_names

    fanout = trace.span("shard_fanout")
    shard_spans = trace.children(fanout)
    assert shard_spans and all(s.name.startswith("shard_")
                               for s in shard_spans)
    assert fanout.meta["shards_queried"] == len(shard_spans)
    # Disk-phase spans hang under the shard that caused them — the
    # pool-worker handoff preserved the parent chain across threads.
    disk_spans = [d for s in shard_spans for d in trace.children(s)]
    assert {d.name for d in disk_spans} >= {"index_descent"}
    # Span accounting agrees with the disk counters.
    assert sum(s.meta.get("node_accesses", 0) for s in shard_spans) == \
        trace.total_node_accesses > 0


def test_the_trace_start_trace_opens_is_the_one_kept():
    service = build_service(_points(), shards=1)
    opened = []
    answer = service.server.answer

    def spy(request):
        opened.append(current_trace().trace)
        return answer(request)

    service.server.answer = spy
    service.answer(KNNRequest((0.5, 0.5), k=2, trace_id="t-one"))
    [trace] = opened
    assert service.recent_traces()[-1] is trace
    assert service.traces.find("t-one") is trace
    assert trace.duration_ms > 0 and trace.spans


def test_query_events_are_correlated_and_ordered():
    service = build_service(_points(), shards=2, cache=CacheConfig(capacity=8))
    service.answer(KNNRequest((0.5, 0.5), k=4, trace_id="t-ev"))
    service.answer(KNNRequest((0.5, 0.5), k=4, trace_id="t-ev2"))  # hit

    events = service.events.tail(trace_id="t-ev")
    assert [e["event"] for e in events] == [
        "query.start", "cache.miss", "shard.scatter", "query.finish"]
    finish = events[-1]
    assert finish["node_accesses"] > 0
    assert finish["result_size"] == 4
    # The second, cache-served query never reached the shards.
    hit_events = [e["event"] for e in service.events.tail(trace_id="t-ev2")]
    assert hit_events == ["query.start", "cache.hit", "query.finish"]


def test_client_mints_trace_ids_and_logs_cache_answers():
    service = build_service(_points(), shards=1)
    client = MobileClient(service)
    client.knn((0.5, 0.5), k=3)
    first = service.traces.recent()[-1]
    assert len(first.trace_id) == 16  # client-minted, not service q-N
    int(first.trace_id, 16)
    # A second ask inside the validity region is answered locally; the
    # client logs it against the originating trace.
    client.knn((0.5 + 1e-9, 0.5), k=3)
    cache_events = service.events.tail(category="client")
    assert [e["event"] for e in cache_events] == ["client.cache_answer"]
    assert cache_events[0]["trace_id"] == first.trace_id


@pytest.mark.parametrize("subscribe", [False, True])
def test_client_cache_answers_mint_no_trace_ids(monkeypatch, subscribe):
    from repro.core import client as client_module

    minted = []
    real = client_module.new_trace_id
    monkeypatch.setattr(client_module, "new_trace_id",
                        lambda: minted.append(1) or real())
    service = build_service(_points(), shards=1)
    client = MobileClient(service, subscribe=subscribe)
    client.knn((0.5, 0.5), k=3)
    assert len(minted) == 1  # the one request that left the client
    for i in range(20):
        client.knn((0.5 + i * 1e-9, 0.5), k=3)
    assert client.stats.cache_answers == 20
    assert len(minted) == 1
    # Every cache answer is logged against the originating trace.
    answers = [e for e in service.events.tail(category="client")
               if e["event"] == "client.cache_answer"]
    assert len(answers) == 20
    assert {e["trace_id"] for e in answers} == {
        client.cache_entry("knn").trace_id}
    if subscribe:
        # A pushed patch refreshes the cache entry under a new id, which
        # the following cache answer reports.
        points = _points()
        nearest = min(range(len(points)), key=lambda i: math.dist(
            points[i], (0.5, 0.5)))
        assert service.delete_object(nearest, *points[nearest])
        client.knn((0.5, 0.5), k=3)
        assert client.stats.pushes_applied == 1
        assert client.stats.cache_answers == 21
        assert len(minted) == 2
        answer = service.events.tail(category="client")[-1]
        assert answer["event"] == "client.cache_answer"
        assert answer["trace_id"] == client.cache_entry("knn").trace_id
        assert answer["trace_id"] not in {e["trace_id"] for e in answers}
    client.close()


def test_no_trace_context_leaks_out_of_answer():
    service = build_service(_points(), shards=2, cache=CacheConfig(capacity=8))
    service.answer(KNNRequest((0.5, 0.5), k=3))
    assert current_trace() is None


# ----------------------------------------------------------------------
# the trace store
# ----------------------------------------------------------------------
def test_trace_buffer_find_newest_wins():
    buffer = TraceBuffer(capacity=8)
    buffer.append(QueryTrace("dup", "knn", 1.0, duration_ms=1.0))
    buffer.append(QueryTrace("dup", "knn", 2.0, duration_ms=2.0))
    assert buffer.find("dup").duration_ms == 2.0
    assert buffer.find("absent") is None


def test_trace_capacity_zero_disables_retention():
    service = QueryService(
        LocationServer.from_points(_points(), universe=Rect(0, 0, 1, 1)),
        trace_capacity=0)
    response = service.answer(KNNRequest((0.5, 0.5), k=3, trace_id="t-off"))
    assert len(response.result) == 3  # answering is unaffected
    assert len(service.traces) == 0
    assert service.traces.find("t-off") is None


# ----------------------------------------------------------------------
# scrape consistency
# ----------------------------------------------------------------------
def test_scraper_never_sees_hits_ahead_of_probes():
    """Writers bump probes *then* hits; because the registry snapshots
    all metrics in one critical section, no exposition can show more
    hits than probes."""
    metrics = MetricsRegistry()
    probes = metrics.counter("service.cache.probes")
    hits = metrics.counter("service.cache.hits")
    stop = threading.Event()
    failures = []

    def writer():
        while not stop.is_set():
            probes.inc()
            hits.inc()

    def scraper():
        import re
        pattern = re.compile(
            r"repro_service_cache_(probes|hits)_total (\d+)")
        for _ in range(200):
            found = dict(pattern.findall(prometheus_text(metrics)))
            seen_hits = int(found.get("hits", 0))
            seen_probes = int(found.get("probes", 0))
            if seen_hits > seen_probes:
                failures.append((seen_probes, seen_hits))
                return

    writers = [threading.Thread(target=writer) for _ in range(4)]
    readers = [threading.Thread(target=scraper) for _ in range(2)]
    for t in writers + readers:
        t.start()
    for t in readers:
        t.join()
    stop.set()
    for t in writers:
        t.join()
    assert not failures, f"scrape saw hits ahead of probes: {failures[:3]}"


# ----------------------------------------------------------------------
# fault events under injection (the chaos-job assertion)
# ----------------------------------------------------------------------
def test_injected_disk_faults_land_in_the_event_log():
    server = LocationServer.from_points(_points(), universe=Rect(0, 0, 1, 1))
    inject_faults(server.tree, FaultPlan(seed=13, read_failure_rate=0.2))
    service = QueryService(server, resilience=ResilienceConfig(
        retry=RetryPolicy(max_attempts=4, base_delay_s=1e-5,
                          max_delay_s=1e-4),
        breaker=BreakerConfig(failure_threshold=50, reset_timeout_s=1e-3),
        seed=5,
    ))
    rnd = random.Random(99)
    for _ in range(40):
        try:
            service.answer(KNNRequest((rnd.random(), rnd.random()), k=3))
        except Exception:
            pass  # persistent failures are fine; we assert the log

    faults = service.events.tail(category="fault")
    assert faults, "no disk fault events despite 20% read-failure rate"
    for event in faults:
        assert event["event"] in ("disk.read_failure", "disk.stuck_read")
        assert "page_id" in event and "phase" in event
        assert "trace_id" in event  # correlated to the failing query
    # Retries driven by those faults were logged too, on the same traces.
    retry_traces = {e["trace_id"]
                    for e in service.events.tail(category="retry")}
    assert retry_traces & {e["trace_id"] for e in faults}
