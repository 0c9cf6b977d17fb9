"""The structured event log: bounded, thread-safe, sampled JSONL.

An :class:`EventLog` is the audit trail of a running service: query
starts and finishes, cache hits and misses, shard visits and prunes,
retries, breaker transitions, injected disk faults.  Events are plain
dicts (JSON-serializable by construction), retained in a bounded ring,
and **sampled per category** so a fleet doing thousands of queries a
second can keep, say, 1-in-100 ``query`` events while recording every
``fault`` — the log survives load instead of thrashing it.

Sampling is deterministic (a per-category counter, keep-every-Nth),
so a replayed run logs the same events.  Appends outside the retained
window are counted, never silently lost: :meth:`EventLog.stats`
reports emitted / sampled-out / dropped per category.

``capacity=0`` turns the log into a counting no-op sink: nothing is
retained, nothing is locked on the hot path beyond one counter update.

The ring holds compact records (a tuple per event); the event dicts
are built when they are read (:meth:`EventLog.tail`), since most
retained events are overwritten before anyone reads them.
"""

from __future__ import annotations

import io
import json
import threading
import time
from collections import deque
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.context import current_trace

__all__ = ["EventLog"]


class EventLog:
    """A bounded, thread-safe, per-category-sampled event sink.

    ``sample`` maps a category to its keep rate as "1 in N": a category
    mapped to ``10`` retains every 10th event (the first, the 11th, …).
    Unmapped categories keep everything.  ``capacity`` bounds the
    retained ring; older events are dropped (and counted) as new ones
    arrive.
    """

    def __init__(self, capacity: int = 4096,
                 sample: Optional[Mapping[str, int]] = None):
        if capacity < 0:
            raise ValueError("event capacity must be non-negative")
        self.capacity = capacity
        self.sample: Dict[str, int] = dict(sample) if sample else {}
        for category, n in self.sample.items():
            if int(n) < 1:
                raise ValueError(
                    f"sample rate for {category!r} must be >= 1 (keep 1-in-N)")
            self.sample[category] = int(n)
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity if capacity else None)
        self._seq = 0
        self._emitted: Dict[str, int] = {}
        self._sampled_out: Dict[str, int] = {}
        self._dropped = 0

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def emit(self, category: str, *, trace_id: Optional[str] = None,
             span_id: Optional[str] = None, **fields) -> bool:
        """Record one event; returns True when it was retained.

        ``trace_id`` defaults to the active trace context's, so events
        emitted under a trace are correlated automatically.
        """
        if trace_id is None:
            ctx = current_trace()
            if ctx is not None:
                trace_id = ctx.trace_id
                if span_id is None:
                    span_id = ctx.span_id
        with self._lock:
            seq = self._seq = self._seq + 1
            emitted = self._emitted[category] = (
                self._emitted.get(category, 0) + 1)
            keep_nth = self.sample.get(category, 1)
            if keep_nth > 1 and (emitted - 1) % keep_nth:
                self._sampled_out[category] = (
                    self._sampled_out.get(category, 0) + 1)
                return False
            if self.capacity == 0:
                self._dropped += 1
                return False
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(
                (seq, _now(), category, trace_id, span_id, fields))
            return True

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------
    def tail(self, n: Optional[int] = None,
             category: Optional[str] = None,
             trace_id: Optional[str] = None) -> List[Dict[str, object]]:
        """The most recent ``n`` retained events (filtered, oldest first)."""
        with self._lock:
            records = list(self._events)
        if category is not None:
            records = [r for r in records if r[2] == category]
        if trace_id is not None:
            records = [r for r in records if r[3] == trace_id]
        if n is not None:
            records = records[-n:]
        return [_event(r) for r in records]

    def to_jsonl(self, n: Optional[int] = None,
                 category: Optional[str] = None) -> str:
        """The tail as JSON Lines (one event per line)."""
        out = io.StringIO()
        for event in self.tail(n, category=category):
            out.write(json.dumps(event, sort_keys=True))
            out.write("\n")
        return out.getvalue()

    def stats(self) -> Dict[str, object]:
        """Accounting: per-category emitted/sampled-out, drops, size."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "retained": len(self._events),
                "emitted": dict(self._emitted),
                "sampled_out": dict(self._sampled_out),
                "dropped": self._dropped,
            }

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def _event(record: Tuple) -> Dict[str, object]:
    """The event dict of one retained record."""
    seq, ts, category, trace_id, span_id, fields = record
    event: Dict[str, object] = {"seq": seq, "ts": ts, "category": category}
    if trace_id is not None:
        event["trace_id"] = trace_id
    if span_id is not None:
        event["span_id"] = span_id
    event.update(fields)
    return event


def _now() -> float:
    """Wall-clock epoch — a hook point so tests can avoid real clocks."""
    return time.time()
