"""Concurrency stress: exact counters and deadlock-free batch dispatch.

The metrics registry promises lossless accounting under concurrency,
and the query service promises that batched dispatch over a pool —
even with injected disk latency and injected faults — always drains.
Both claims are exact, so the tests assert exact totals, and a
watchdog timeout turns a deadlock into a failure instead of a hang.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import LocationServer
from repro.core.api import KNNRequest, QueryBudget, RangeRequest, WindowRequest
from repro.obs import MetricsRegistry
from repro.service import (
    BreakerConfig,
    QueryService,
    ResilienceConfig,
    RetryPolicy,
)
from repro.storage import FaultPlan, inject_faults

pytestmark = pytest.mark.chaos


def _run_threads(target, num_threads: int, timeout_s: float = 30.0):
    """Start ``num_threads`` of ``target(tid)``; join with a watchdog."""
    errors = []

    def wrapped(tid):
        try:
            target(tid)
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(t,), daemon=True)
               for t in range(num_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout_s)
    alive = [t for t in threads if t.is_alive()]
    assert not alive, f"deadlock: {len(alive)} threads still running"
    assert not errors, f"worker raised: {errors[0]!r}"


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
def test_counter_is_exact_under_contention():
    registry = MetricsRegistry()
    threads, per_thread = 16, 5_000

    def hammer(tid):
        counter = registry.counter("stress.hits")
        for _ in range(per_thread):
            counter.inc()
        registry.counter(f"stress.thread.{tid}").inc(per_thread)

    _run_threads(hammer, threads)
    snap = registry.snapshot()["counters"]
    assert snap["stress.hits"] == threads * per_thread
    for tid in range(threads):
        assert snap[f"stress.thread.{tid}"] == per_thread


def test_histogram_records_every_sample_under_contention():
    registry = MetricsRegistry()
    threads, per_thread = 8, 2_000

    def hammer(tid):
        hist = registry.histogram("stress.latency")
        for i in range(per_thread):
            hist.record(float(tid * per_thread + i))

    _run_threads(hammer, threads)
    hist = registry.snapshot()["histograms"]["stress.latency"]
    assert hist["count"] == threads * per_thread


def test_gauge_last_write_wins_but_never_corrupts():
    registry = MetricsRegistry()

    def hammer(tid):
        g = registry.gauge("stress.level")
        for i in range(1_000):
            g.set(float(tid))
            g.add(0.0)

    _run_threads(hammer, 8)
    assert registry.gauge("stress.level").value in [float(t) for t in range(8)]


# ----------------------------------------------------------------------
# service dispatch under injected latency and faults
# ----------------------------------------------------------------------
def _service(points, latency: bool, faults: bool):
    server = LocationServer.from_points(points)
    service = QueryService(server, resilience=ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay_s=1e-4,
                          max_delay_s=1e-3),
        breaker=BreakerConfig(failure_threshold=10_000),  # stay closed
    ))
    plan = FaultPlan(
        seed=17,
        read_failure_rate=0.02 if faults else 0.0,
        latency_mean_s=1e-5 if latency else 0.0,
        latency_rate=0.5,
    )
    if latency or faults:
        inject_faults(server.tree, plan)
    return service


def _requests(n, seed=0):
    rnd = random.Random(seed)
    reqs = []
    for i in range(n):
        pos = (rnd.random(), rnd.random())
        if i % 3 == 0:
            reqs.append(KNNRequest(pos, k=1 + i % 4))
        elif i % 3 == 1:
            reqs.append(WindowRequest(pos, 0.08, 0.08))
        else:
            reqs.append(RangeRequest(pos, 0.05))
    return reqs


def test_dispatch_batch_drains_under_injected_latency(uniform_1k):
    service = _service(uniform_1k, latency=True, faults=False)
    requests = _requests(60)
    done = {}

    def run():
        with ThreadPoolExecutor(max_workers=8) as pool:
            done["responses"] = service.answer_many(requests,
                                                    executor=pool)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60.0)
    assert not worker.is_alive(), "answer_many deadlocked"
    responses = done["responses"]
    assert len(responses) == len(requests)
    # Order preserved: response i answers request i.
    for req, resp in zip(requests, responses):
        if isinstance(req, KNNRequest):
            assert len(resp.result) == req.k
    counters = service.metrics.snapshot()["counters"]
    assert counters["service.queries"] == len(requests)
    assert counters["service.batches"] == 1


def test_concurrent_batches_account_every_query_exactly(uniform_1k):
    """Many threads dispatching batches (with retries happening inside):
    the per-kind query counters still sum exactly."""
    service = _service(uniform_1k, latency=True, faults=True)
    threads, per_batch = 8, 15

    def hammer(tid):
        requests = _requests(per_batch, seed=tid)
        for req in requests:
            try:
                service.answer(req)
            except Exception as exc:
                if not getattr(exc, "transient", False):
                    raise

    _run_threads(hammer, threads, timeout_s=60.0)
    counters = service.metrics.snapshot()["counters"]
    total = threads * per_batch
    answered = counters.get("service.queries", 0)
    errored = counters.get("service.errors", 0)
    assert answered + errored == total
    by_kind = sum(counters.get(f'service.queries{{query_kind="{kind}"}}', 0)
                  for kind in ("knn", "window", "range"))
    errors_by_kind = sum(
        counters.get(f'service.errors{{query_kind="{kind}"}}', 0)
        for kind in ("knn", "window", "range"))
    assert by_kind == answered
    assert errors_by_kind == errored


def test_budgeted_batch_under_latency_degrades_but_completes(uniform_1k):
    service = _service(uniform_1k, latency=True, faults=False)
    budget = QueryBudget(max_node_accesses=5)
    requests = [KNNRequest((0.1 + 0.01 * i, 0.5), k=3, budget=budget)
                for i in range(30)]
    with ThreadPoolExecutor(max_workers=6) as pool:
        responses = service.answer_many(requests, executor=pool)
    assert len(responses) == 30
    degraded = [r for r in responses if r.detail.degraded]
    assert degraded, "tight budget should degrade some responses"
    counters = service.metrics.snapshot()["counters"]
    assert counters.get("service.degraded", 0) == len(degraded)
