"""Every emitted name is in the written layer vocabulary.

docs/OBSERVABILITY.md lists, by layer, every span name, event
``category/event`` pair and metric family the stack emits, between
``<!-- vocabulary:begin -->`` and ``<!-- vocabulary:end -->``.  This
test drives one full stack through every stage of the request path and
fails on any name it emits that the table does not list, the way
``python -m repro.service.checkapi`` holds ``repro.__all__`` to
docs/API.md.  Numbered fan-out frames are normalised to ``shard_<n>``
and ``replica_<n>``.
"""

from __future__ import annotations

import pathlib
import random
import re

import pytest

from repro import (
    AdmissionConfig,
    CacheConfig,
    ExecutionConfig,
    KNNRequest,
    MobileClient,
    ProbKNNRequest,
    RKNNRequest,
    RangeRequest,
    ReplicaConfig,
    ResilienceConfig,
    RetryBudgetConfig,
    SLOConfig,
    SLOEngine,
    TailSamplingConfig,
    WindowRequest,
    build_service,
)
from repro.obs.events import EventLog
from repro.service import BreakerConfig, RetryPolicy
from repro.service.admission import (
    LEVEL_CACHE_ONLY,
    LEVEL_REDUCED,
    LEVEL_REJECT,
)
from repro.storage import FaultPlan, inject_faults

pytestmark = pytest.mark.obs

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def _vocabulary():
    """``{column: set of names}`` from the marked table's rows."""
    text = DOC.read_text(encoding="utf-8")
    block = re.search(r"<!-- vocabulary:begin -->(.*?)<!-- vocabulary:end -->",
                      text, re.S)
    assert block, f"no vocabulary block in {DOC}"
    rows = [line for line in block.group(1).splitlines()
            if line.startswith("|") and not line.startswith("|---")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    assert header == ["layer", "spans", "events", "metric families"]
    names = {column: set() for column in header}
    for row in rows[1:]:
        cells = row.strip("|").split("|")
        assert len(cells) == len(header), row
        for column, cell in zip(header, cells):
            names[column].update(re.findall(r"`([^`]+)`", cell))
    return names


def _requests(pos):
    return [KNNRequest(pos, k=2), WindowRequest(pos, 0.05, 0.05),
            RangeRequest(pos, 0.04), RKNNRequest(pos, k=1),
            ProbKNNRequest(pos, uncertainty=0.01, k=1)]


def _drive(service):
    """Every stage: hits and misses of every kind, writes, a delta
    client, subscriptions, forced brownout levels, faults that retry
    and trip the breaker, and a request no kind answers."""
    client = MobileClient(service, metrics=service.metrics, incremental=True)
    subs = [service.subscribe(KNNRequest((0.4, 0.4), k=2)),
            service.subscribe(WindowRequest((0.6, 0.6), 0.1, 0.1))]
    for i in range(30):
        pos = (0.3 + 0.01 * i, 0.5)
        for request in _requests(pos):
            service.answer(request)
        client.knn(pos, k=3)
        client.knn((pos[0] + 0.001, pos[1]), k=3)
        service.insert_object(10_000 + i, pos[0] + 0.02, pos[1])
        if i % 5 == 4:
            service.delete_object(10_000 + i, pos[0] + 0.02, pos[1])
        for sub in subs:
            sub.drain()
        subs[0].move((0.4 + 0.005 * i, 0.4))
    service.answer_many([KNNRequest((0.5, 0.5), k=2)])
    for level in (LEVEL_REDUCED, LEVEL_CACHE_ONLY, LEVEL_REJECT):
        service.admission.forced_level = level
        for j in range(4):
            for pos in ((0.35, 0.5), (0.71 + 0.01 * j, 0.33)):
                try:
                    service.answer(KNNRequest(pos, k=2))
                except Exception:  # sheds: counted and traced
                    pass
    service.admission.forced_level = None
    trees = [shard.server.tree for replica in service.server.replicas
             for shard in replica.server.shards]
    for tree in trees:
        inject_faults(tree, FaultPlan(seed=1, read_failure_rate=1.0))
    for j in range(6):
        with pytest.raises(Exception):
            service.answer(KNNRequest((0.25 + 0.01 * j, 0.7), k=2))
    for tree in trees:
        tree.disk = tree.disk.replaced
    for j in range(4):
        service.answer(KNNRequest((0.26 + 0.01 * j, 0.28), k=2))
    with pytest.raises(TypeError):
        service.answer("bogus")


def test_every_emitted_name_is_in_the_vocabulary():
    rnd = random.Random(5)
    points = [(rnd.uniform(0.2, 0.8), rnd.uniform(0.2, 0.8))
              for _ in range(600)]
    service = build_service(
        points, shards=2, replicas=2,
        replica=ReplicaConfig(replication_lag=2, default_max_stale=2,
                              breaker=BreakerConfig(reset_timeout_s=0.0)),
        execution=ExecutionConfig(workers=1),
        cache=CacheConfig(capacity=256, grid=8),
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0,
                              max_delay_s=0.0),
            breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=0.0),
            retry_budget=RetryBudgetConfig(max_retries=3, window_s=3600.0),
            admission=AdmissionConfig(max_concurrency=4)),
        slo=SLOEngine([
            SLOConfig("availability", target=0.9),
            SLOConfig("latency", objective="latency", threshold_ms=50.0,
                      target=0.5),
            SLOConfig("fresh", objective="staleness", target=0.5)]),
        tail=TailSamplingConfig(keep_1_in=1),
        profile=True, events=EventLog(capacity=100_000),
        trace_capacity=100_000)
    with service:
        _drive(service)
    spans = {re.sub(r"_\d+$", "_<n>", s.name)
             for trace in service.recent_traces() for s in trace.spans}
    events = {f"{e['category']}/{e['event']}" for e in service.events.tail()}
    snap = service.metrics.snapshot()
    families = {key.split("{")[0]
                for part in ("counters", "gauges", "histograms")
                for key in snap[part]}

    vocabulary = _vocabulary()
    assert spans - vocabulary["spans"] == set()
    assert events - vocabulary["events"] == set()
    assert families - vocabulary["metric families"] == set()
    # The walk reached what the stack description promises.
    assert {"cache_probe", "retry_backoff", "shard_<n>", "replica_<n>",
            "serialization"} <= spans
    assert {"breaker/breaker.trip", "retry/query.retry",
            "admission/admission.brownout", "admission/admission.reject",
            "push/push.subscribe", "client/client.cache_answer",
            "replica/replica.stale_served", "query/query.error"} <= events
    assert {"service.queries.delta", "service.continuous.subscriptions",
            "slo.burn_rate", "service.replica.queries"} <= families
