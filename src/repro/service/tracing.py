"""Trace retention: the bounded ring the service keeps finished traces in.

Each query's record is the :class:`~repro.obs.context.QueryTrace` that
:func:`~repro.obs.context.start_trace` opened for it; once the query
finishes the service appends it to a :class:`TraceBuffer`, a bounded
ring with id lookup (:meth:`TraceBuffer.find`) and optional tail-based
sampling (:class:`TailSamplingConfig`) — the store behind the
``/traces/<id>`` endpoint.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.obs.context import QueryTrace

__all__ = ["TailSamplingConfig", "TraceBuffer"]


@dataclass(frozen=True)
class TailSamplingConfig:
    """Tail-based retention policy for a :class:`TraceBuffer`.

    Decisions are made at trace *end* (tail-based): errored, degraded,
    slow (``>= slow_ms``) and SLO-violating traces are always kept;
    healthy traces keep a deterministic 1-in-``keep_1_in``.  Traces sit
    in a ``decision_window``-deep pending deque before the verdict is
    applied, so the most recent traces are always findable (live
    debugging) even when they would be downsampled.
    """

    keep_1_in: int = 10
    slow_ms: Optional[float] = None
    decision_window: int = 64

    def __post_init__(self):
        if self.keep_1_in < 1:
            raise ValueError("keep_1_in must be >= 1 (keep 1-in-N)")
        if self.slow_ms is not None and self.slow_ms <= 0:
            raise ValueError("slow_ms must be positive")
        if self.decision_window < 0:
            raise ValueError("decision_window must be non-negative")


class TraceBuffer:
    """A thread-safe ring buffer of the most recent query traces.

    ``capacity=0`` is a true no-op sink: :meth:`append` returns without
    taking the lock (or touching anything), so high-QPS fleets can
    disable trace retention without contention.

    With a :class:`TailSamplingConfig` the buffer becomes a
    **tail-based sampler**: the retention decision is made when the
    trace *ends* (so it can see the outcome), recorded as
    ``retention_reason`` on the trace and its root span, and applied
    only once the trace ages out of the pending decision window — the
    newest ``decision_window`` traces are always findable regardless of
    their verdict.  ``violation_check`` (set by the service when an
    SLO engine is attached) is called as ``(kind, duration_ms)`` and
    returns the name of a violated latency SLO, or None.
    """

    def __init__(self, capacity: int = 256,
                 tail: Optional[TailSamplingConfig] = None):
        if capacity < 0:
            raise ValueError("trace capacity must be non-negative")
        self._capacity = capacity
        #: Fast-path flag read without the lock on every append.
        self._enabled = capacity > 0
        self.tail = tail
        #: Hook: (kind, duration_ms) -> violated latency-SLO name | None.
        self.violation_check = None
        self._traces: Deque[QueryTrace] = deque(maxlen=capacity or None)
        self._pending: Deque[QueryTrace] = deque()
        self._lock = threading.Lock()
        self._dropped = 0
        self._healthy_seen = 0
        self._downsampled = 0
        self._retained_by_reason: Dict[str, int] = {}

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Traces discarded because the buffer was full."""
        return self._dropped

    def append(self, trace: QueryTrace) -> None:
        if not self._enabled:
            return
        if self.tail is None:
            with self._lock:
                self._retain_locked(trace)
            return
        with self._lock:
            reason = self._decide_locked(trace)
            if reason is not None:
                trace.retention_reason = reason
                family = reason.split(":")[0]
                self._retained_by_reason[family] = (
                    self._retained_by_reason.get(family, 0) + 1)
                self._annotate_root(trace, reason)
            pending = self._pending
            pending.append(trace)
            while len(pending) > self.tail.decision_window:
                aged = pending.popleft()
                if aged.retention_reason is None:
                    self._downsampled += 1
                else:
                    self._retain_locked(aged)

    def _retain_locked(self, trace: QueryTrace) -> None:
        if len(self._traces) == self._capacity:
            self._dropped += 1  # the append below evicts the oldest
        self._traces.append(trace)

    def _decide_locked(self, trace: QueryTrace) -> Optional[str]:
        """The tail verdict: why this finished trace must be kept."""
        if trace.error is not None:
            return "error"
        if trace.degraded:
            return "degraded"
        tail = self.tail
        if tail.slow_ms is not None and trace.duration_ms >= tail.slow_ms:
            return "slow"
        check = self.violation_check
        if check is not None:
            violated = check(trace.kind, trace.duration_ms)
            if violated:
                return f"slo:{violated}"
        # Healthy: deterministic 1-in-N (the first, the N+1th, …).
        self._healthy_seen += 1
        if (self._healthy_seen - 1) % tail.keep_1_in == 0:
            return "sampled"
        return None

    @staticmethod
    def _annotate_root(trace: QueryTrace, reason: str) -> None:
        roots, _children = trace.tree()
        if roots:
            roots[0].meta["retention_reason"] = reason

    def find(self, trace_id: str) -> Optional[QueryTrace]:
        """The retained trace with ``trace_id`` (newest wins), or None.

        Pending (not-yet-committed) traces are searched first: the
        newest traces are always reachable under tail sampling.
        """
        with self._lock:
            for trace in reversed(self._pending):
                if trace.trace_id == trace_id:
                    return trace
            for trace in reversed(self._traces):
                if trace.trace_id == trace_id:
                    return trace
        return None

    def recent(self, n: Optional[int] = None) -> List[QueryTrace]:
        """The most recent ``n`` traces (all retained ones by default)."""
        with self._lock:
            traces = [*self._traces, *self._pending]
        return traces if n is None else traces[-n:]

    def sampling_stats(self) -> Dict[str, object]:
        """Tail-sampling accounting (all zeros without a tail config)."""
        with self._lock:
            return {
                "tail_sampling": self.tail is not None,
                "pending": len(self._pending),
                "retained": len(self._traces),
                "healthy_seen": self._healthy_seen,
                "downsampled": self._downsampled,
                "retained_by_reason": dict(self._retained_by_reason),
            }

    def __len__(self) -> int:
        return len(self._traces) + len(self._pending)

