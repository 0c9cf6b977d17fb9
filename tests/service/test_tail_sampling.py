"""Tail-based trace sampling: decision-at-end retention in TraceBuffer."""

from __future__ import annotations

import pytest

from repro.obs import QueryTrace, Span
from repro.service import TailSamplingConfig, TraceBuffer

pytestmark = pytest.mark.obs


def _trace(i: int, duration_ms: float = 1.0, error: str = None,
           degraded: bool = False, kind: str = "knn") -> QueryTrace:
    return QueryTrace(trace_id=f"t{i}", kind=kind, started_at=0.0,
                      duration_ms=duration_ms, error=error,
                      degraded=degraded,
                      spans=[Span("index_descent", 0.0, duration_ms,
                                  span_id=f"s{i}")])


def test_config_validation():
    with pytest.raises(ValueError):
        TailSamplingConfig(keep_1_in=0)
    with pytest.raises(ValueError):
        TailSamplingConfig(slow_ms=0.0)
    with pytest.raises(ValueError):
        TailSamplingConfig(decision_window=-1)


def test_errored_degraded_and_slow_always_kept():
    buf = TraceBuffer(capacity=64, tail=TailSamplingConfig(
        keep_1_in=1000, slow_ms=50.0, decision_window=0))
    buf.append(_trace(0, error="boom"))
    buf.append(_trace(1, degraded=True))
    buf.append(_trace(2, duration_ms=80.0))
    reasons = {t.trace_id: t.retention_reason for t in buf.recent()}
    assert reasons == {"t0": "error", "t1": "degraded", "t2": "slow"}


def test_healthy_downsampled_deterministically():
    buf = TraceBuffer(capacity=64, tail=TailSamplingConfig(
        keep_1_in=3, decision_window=0))
    for i in range(9):
        buf.append(_trace(i))
    kept = [t.trace_id for t in buf.recent()]
    assert kept == ["t0", "t3", "t6"]  # 1-in-3: the 1st, 4th, 7th
    stats = buf.sampling_stats()
    assert stats["healthy_seen"] == 9
    assert stats["downsampled"] == 6
    assert stats["retained_by_reason"] == {"sampled": 3}


def test_pending_window_keeps_newest_findable():
    """A healthy trace that will be downsampled stays findable until it
    ages out of the decision window."""
    buf = TraceBuffer(capacity=64, tail=TailSamplingConfig(
        keep_1_in=1000, decision_window=4))
    buf.append(_trace(0))            # sampled (the 1st healthy)
    buf.append(_trace(1))            # verdict: drop — but still pending
    assert buf.find("t1") is not None
    assert buf.find("t1").retention_reason is None
    for i in range(2, 7):            # age t1 out of the 4-deep window
        buf.append(_trace(i))
    assert buf.find("t1") is None
    assert buf.find("t0") is not None          # committed to the ring
    assert buf.sampling_stats()["downsampled"] >= 1


def test_slo_violation_check_pins_traces():
    buf = TraceBuffer(capacity=64, tail=TailSamplingConfig(
        keep_1_in=1000, decision_window=0))
    buf.violation_check = (
        lambda kind, ms: "lat-slo" if ms > 10.0 else None)
    buf.append(_trace(0, duration_ms=5.0))     # healthy → 1-in-N
    buf.append(_trace(1, duration_ms=25.0))    # violates → pinned
    reasons = {t.trace_id: t.retention_reason for t in buf.recent()}
    assert reasons == {"t0": "sampled", "t1": "slo:lat-slo"}
    assert buf.sampling_stats()["retained_by_reason"]["slo"] == 1


def test_retention_reason_annotates_root_span():
    buf = TraceBuffer(capacity=64, tail=TailSamplingConfig(
        decision_window=0))
    buf.append(_trace(0, error="boom"))
    [trace] = buf.recent()
    assert trace.spans[0].meta["retention_reason"] == "error"
    assert trace.as_dict()["retention_reason"] == "error"


def test_ring_capacity_still_bounds_retained():
    buf = TraceBuffer(capacity=3, tail=TailSamplingConfig(
        keep_1_in=1, decision_window=0))
    for i in range(10):
        buf.append(_trace(i, error="x"))
    assert len(buf.recent()) == 3
    assert buf.dropped > 0


def test_without_tail_config_behavior_is_legacy():
    buf = TraceBuffer(capacity=4)
    for i in range(6):
        buf.append(_trace(i))
    assert [t.trace_id for t in buf.recent()] == ["t2", "t3", "t4", "t5"]
    assert all(t.retention_reason is None for t in buf.recent())
    stats = buf.sampling_stats()
    assert stats["tail_sampling"] is False
    assert stats["downsampled"] == 0


def test_query_service_end_to_end_tail_sampling(uniform_1k):
    """Through the real service: errors pinned, healthy downsampled."""
    from repro.core import LocationServer
    from repro.core.api import KNNRequest
    from repro.service import QueryService

    service = QueryService(
        LocationServer.from_points(uniform_1k),
        tail=TailSamplingConfig(keep_1_in=5, decision_window=0))
    for i in range(10):
        service.answer(KNNRequest((0.1 + 0.05 * i, 0.5), k=2))
    with pytest.raises(TypeError):
        service.answer("nonsense")
    reasons = [t.retention_reason for t in service.recent_traces()]
    assert reasons.count("sampled") == 2      # 10 healthy, 1-in-5
    assert reasons.count("error") == 1
    snap = service.stats_snapshot()["service"]["trace_sampling"]
    assert snap["tail_sampling"] is True
    assert snap["downsampled"] == 8
