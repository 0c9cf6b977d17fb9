"""Trace-context propagation: one trace id from client to disk.

A :class:`TraceContext` names the trace (``trace_id``) and the span
under which new work should hang (``span_id``); the active context
lives in a :mod:`contextvars` variable, so any layer — the validity
cache, a shard worker, the simulated disk — can open a child span or
emit a correlated event without the caller threading anything through
its signature.

Thread pools do not inherit context automatically; the scatter-gather
path captures the active context with :func:`current_trace` before
submitting and re-activates it in each worker with :func:`attach` — the
explicit handoff that keeps per-shard spans parented under the query's
fan-out span.

One query, one record: :func:`start_trace` opens a :class:`QueryTrace`
(``ctx.trace``), every closing span appends itself to it, and the query
service fills in the outcome and keeps that same object — it is what
``/traces/<id>`` serves.

Timestamps: every span records a **monotonic** offset/duration
(``perf_counter`` relative to the trace's origin) while the trace keeps
one wall-clock epoch, so exporters can reconstruct absolute times
without ever mixing the two clocks.

Every query opens a trace and several spans, so :func:`start_trace`
and :func:`span` are small slotted classes rather than generator
functions.

This module is dependency-free (stdlib only) on purpose: the storage
layer imports it, and it must never import the storage layer back.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from time import perf_counter, time
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "QueryTrace",
    "TraceContext",
    "PHASE_SPANS",
    "current_trace",
    "start_trace",
    "span",
    "attach",
    "emit_event",
    "new_trace_id",
]

#: Disk phase name → trace span name (the stage vocabulary the paper's
#: processing pipeline uses; unknown phases surface under their own name).
PHASE_SPANS = {
    "nn": "index_descent",
    "result": "index_descent",
    "tpnn": "tpnn_probing",
    "influence": "influence_probing",
}


@dataclass(slots=True)
class Span:
    """One timed stage of a query's processing.

    ``span_id``/``parent_id`` place the span in its trace's tree;
    spans with ``parent_id is None`` are children of the trace root.
    """

    name: str
    #: Milliseconds after the trace's monotonic origin this span began.
    offset_ms: float
    duration_ms: float
    #: Free-form annotations (node accesses in the span's phase, …).
    meta: Dict[str, object] = field(default_factory=dict)
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        out = {
            "name": self.name,
            "offset_ms": self.offset_ms,
            "duration_ms": self.duration_ms,
        }
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


@dataclass(slots=True)
class QueryTrace:
    """The record of one query: opened by :func:`start_trace`, filled in
    while the query runs, finished and kept by the service.

    Every span any layer closes under the trace appends itself to
    :attr:`spans`; :meth:`finish` stamps the duration and puts the spans
    in start order.  The record needs no lock: taking the next number
    from an :func:`itertools.count` and appending to a list are each one
    atomic step under the interpreter lock.  Traces are plain data —
    :meth:`as_dict` is JSON-serializable.
    """

    trace_id: str
    kind: str
    #: Unix timestamp the query arrived (wall clock).
    started_at: float
    #: ``perf_counter()`` value span offsets are measured against; with
    #: ``started_at`` this yields correct absolute span timestamps.
    monotonic_origin: float = 0.0
    duration_ms: float = 0.0
    spans: List[Span] = field(default_factory=list)
    #: Node accesses this query caused, by disk phase.
    node_accesses: Dict[str, int] = field(default_factory=dict)
    #: Page faults this query caused, by disk phase.
    page_faults: Dict[str, int] = field(default_factory=dict)
    transfer_bytes: int = 0
    result_size: int = 0
    #: Set when the request failed; the exception text.
    error: Optional[str] = None
    #: Transparent retries the service performed for this query.
    retries: int = 0
    #: True when the response shipped a degraded (shrunk) validity
    #: region because the query budget ran out.
    degraded: bool = False
    #: Why the tail sampler kept this trace ("error" / "degraded" /
    #: "slow" / "slo:<name>" / "sampled"); None without tail sampling.
    retention_reason: Optional[str] = None
    #: Duck-typed event sink (see :class:`repro.obs.events.EventLog`).
    events: object = field(default=None, init=False, repr=False,
                           compare=False)
    _ids: Iterator[int] = field(default_factory=lambda: itertools.count(1),
                                init=False, repr=False, compare=False)

    @property
    def total_node_accesses(self) -> int:
        return sum(self.node_accesses.values())

    def finish(self) -> "QueryTrace":
        """Stamp the duration and sort the spans by start offset, in place.

        Call it once the query has returned or raised: every span has
        closed by then (a shard fan-out returns, or re-raises, only
        after all of its jobs ended).
        """
        self.duration_ms = (perf_counter() - self.monotonic_origin) * 1e3
        self.spans.sort(key=_offset)
        return self

    def span(self, name: str) -> Optional[Span]:
        """The first span called ``name``, if any."""
        for s in self.spans:
            if s.name == name:
                return s
        return None

    def tree(self) -> Tuple[List[Span], Dict[str, List[Span]]]:
        """The span tree: ``(roots, children by parent span id)``.

        A root is a span with no parent, or with a parent that is not in
        this trace.  Both keep span order.
        """
        spans = self.spans
        ids = {s.span_id for s in spans}
        roots: List[Span] = []
        children: Dict[str, List[Span]] = {}
        for s in spans:
            parent = s.parent_id
            if parent is None or parent not in ids:
                roots.append(s)
            else:
                kids = children.get(parent)
                if kids is None:
                    children[parent] = [s]
                else:
                    kids.append(s)
        return roots, children

    def children(self, parent: Optional[Span]) -> List[Span]:
        """The direct children of ``parent`` (trace-root spans for None)."""
        roots, children = self.tree()
        if parent is None or parent.span_id is None:
            return roots
        return children.get(parent.span_id, [])

    def as_dict(self) -> Dict[str, object]:
        out = {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "started_at": self.started_at,
            "monotonic_origin": self.monotonic_origin,
            "duration_ms": self.duration_ms,
            "spans": [s.as_dict() for s in self.spans],
            "node_accesses": dict(self.node_accesses),
            "page_faults": dict(self.page_faults),
            "transfer_bytes": self.transfer_bytes,
            "result_size": self.result_size,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.retries:
            out["retries"] = self.retries
        if self.degraded:
            out["degraded"] = True
        if self.retention_reason is not None:
            out["retention_reason"] = self.retention_reason
        return out


def _offset(span_: Span) -> float:
    return span_.offset_ms


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The active trace and the span new child work hangs under."""

    trace_id: str
    #: The current span (parent of children opened under this context);
    #: ``None`` at the trace root.
    span_id: Optional[str]
    #: The record every span under this context lands in.
    trace: QueryTrace = field(repr=False, compare=False)

    @property
    def started_at(self) -> float:
        """Wall-clock epoch of the trace start."""
        return self.trace.started_at

    def elapsed_ms(self) -> float:
        return (perf_counter() - self.trace.monotonic_origin) * 1e3

    def spans(self) -> List[Span]:
        """All spans recorded on this trace so far (start order)."""
        return sorted(self.trace.spans, key=_offset)

    def add_span(self, name: str, offset_ms: float, duration_ms: float,
                 meta: Optional[Dict[str, object]] = None,
                 parent_id: Optional[str] = None) -> Span:
        """Record a pre-measured span (for after-the-fact accounting)."""
        trace = self.trace
        span_ = Span(name, offset_ms, duration_ms,
                     dict(meta) if meta else {}, f"s{next(trace._ids)}",
                     parent_id if parent_id is not None else self.span_id)
        trace.spans.append(span_)
        return span_


_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_obs_trace", default=None)


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return os.urandom(8).hex()


def current_trace() -> Optional[TraceContext]:
    """The active trace context of this thread/task, if any."""
    return _CURRENT.get()


class start_trace:
    """Begin (and activate) a new trace; ``with`` yields its root context.

    The trace is a :class:`QueryTrace` of ``kind`` (``ctx.trace``):
    every span opened — by any layer, on any thread holding the
    context — lands in its :attr:`~QueryTrace.spans`.
    """

    __slots__ = ("_trace_id", "_events", "_kind", "_token")

    def __init__(self, trace_id: Optional[str] = None, events=None,
                 kind: str = ""):
        self._trace_id = trace_id
        self._events = events
        self._kind = kind

    def __enter__(self) -> TraceContext:
        trace_id = self._trace_id
        if trace_id is None:
            trace_id = new_trace_id()
        trace = QueryTrace(trace_id, self._kind, time(), perf_counter())
        trace.events = self._events
        ctx = TraceContext(trace_id, None, trace)
        self._token = _CURRENT.set(ctx)
        return ctx

    def __exit__(self, *exc_info) -> bool:
        _CURRENT.reset(self._token)
        return False


class span:
    """Open a child span under the active context (no-op without one).

    ``with`` yields the in-flight :class:`Span` so callers can annotate
    ``span.meta``; offset and duration are filled in on exit.  Yields
    ``None`` when no trace is active — the zero-overhead fast path.
    """

    __slots__ = ("_name", "_meta", "_span", "_trace", "_start", "_token")

    def __init__(self, name: str, meta: Optional[Dict[str, object]] = None):
        self._name = name
        self._meta = meta

    def __enter__(self) -> Optional[Span]:
        ctx = _CURRENT.get()
        if ctx is None:
            self._span = None
            return None
        trace = self._trace = ctx.trace
        meta = self._meta
        span_ = self._span = Span(self._name, 0.0, 0.0,
                                  dict(meta) if meta else {},
                                  f"s{next(trace._ids)}", ctx.span_id)
        child = TraceContext(ctx.trace_id, span_.span_id, trace)
        self._start = perf_counter()
        self._token = _CURRENT.set(child)
        return span_

    def __exit__(self, *exc_info) -> bool:
        span_ = self._span
        if span_ is None:
            return False
        _CURRENT.reset(self._token)
        end = perf_counter()
        trace = self._trace
        span_.offset_ms = (self._start - trace.monotonic_origin) * 1e3
        span_.duration_ms = (end - self._start) * 1e3
        trace.spans.append(span_)
        return False


@contextmanager
def attach(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Re-activate a captured context (the pool-thread handoff).

    ``attach(None)`` is a no-op, so call sites can hand off
    ``current_trace()`` unconditionally.
    """
    if ctx is None:
        yield None
        return
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


def emit_event(category: str, **fields) -> None:
    """Emit a structured event against the active trace's sink.

    A no-op without an active trace or when the trace has no event
    sink; the event is stamped with the trace and current span ids.
    """
    ctx = _CURRENT.get()
    if ctx is None:
        return
    events = ctx.trace.events
    if events is None:
        return
    events.emit(category, trace_id=ctx.trace_id, span_id=ctx.span_id,
                **fields)
