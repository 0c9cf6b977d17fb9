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
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "TraceContext",
    "PHASE_SPAN_NAMES",
    "current_trace",
    "start_trace",
    "span",
    "attach",
    "emit_event",
    "new_trace_id",
]

#: Disk phase name → trace span name (the stage vocabulary the paper's
#: processing pipeline uses; unknown phases surface under their own name).
PHASE_SPAN_NAMES = {
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


class _TraceState:
    """The shared, thread-safe record of one in-flight trace.

    It needs no lock: taking the next number from an
    :func:`itertools.count` and appending to a list are each one atomic
    step under the interpreter lock (the query service numbers its
    trace ids the same way), and readers sort a copy.
    """

    __slots__ = ("trace_id", "started_at", "origin", "events",
                 "_spans", "_ids")

    def __init__(self, trace_id: str, events=None):
        self.trace_id = trace_id
        #: Wall-clock epoch the trace started (for absolute timestamps).
        self.started_at = time()
        #: Monotonic origin every span offset is measured against.
        self.origin = perf_counter()
        #: Duck-typed event sink (see :class:`repro.obs.events.EventLog`).
        self.events = events
        self._spans: List[Span] = []
        self._ids = itertools.count(1)

    def next_span_id(self) -> str:
        return f"s{next(self._ids)}"

    def add(self, span_: Span) -> None:
        self._spans.append(span_)

    def spans(self) -> List[Span]:
        """The spans recorded so far, in chronological (start) order."""
        return sorted(self._spans, key=_offset)


def _offset(span_: Span) -> float:
    return span_.offset_ms


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The active trace and the span new child work hangs under."""

    trace_id: str
    #: The current span (parent of children opened under this context);
    #: ``None`` at the trace root.
    span_id: Optional[str]
    _state: _TraceState

    @property
    def started_at(self) -> float:
        """Wall-clock epoch of the trace start."""
        return self._state.started_at

    @property
    def origin(self) -> float:
        """``perf_counter()`` value at the trace start."""
        return self._state.origin

    @property
    def events(self):
        return self._state.events

    def elapsed_ms(self) -> float:
        return (perf_counter() - self._state.origin) * 1e3

    def spans(self) -> List[Span]:
        """All spans recorded on this trace so far (start order)."""
        return self._state.spans()

    def add_span(self, name: str, offset_ms: float, duration_ms: float,
                 meta: Optional[Dict[str, object]] = None,
                 parent_id: Optional[str] = None) -> Span:
        """Record a pre-measured span (for after-the-fact accounting)."""
        state = self._state
        span_ = Span(name, offset_ms, duration_ms,
                     dict(meta) if meta else {}, state.next_span_id(),
                     parent_id if parent_id is not None else self.span_id)
        state.add(span_)
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

    Every span opened — by any layer, on any thread holding the
    context — lands in the yielded context's span collection.
    """

    __slots__ = ("_trace_id", "_events", "_token")

    def __init__(self, trace_id: Optional[str] = None, events=None):
        self._trace_id = trace_id
        self._events = events

    def __enter__(self) -> TraceContext:
        trace_id = self._trace_id
        state = _TraceState(trace_id if trace_id is not None
                            else new_trace_id(), events=self._events)
        ctx = TraceContext(state.trace_id, None, state)
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

    __slots__ = ("_name", "_meta", "_span", "_state", "_start", "_token")

    def __init__(self, name: str, meta: Optional[Dict[str, object]] = None):
        self._name = name
        self._meta = meta

    def __enter__(self) -> Optional[Span]:
        ctx = _CURRENT.get()
        if ctx is None:
            self._span = None
            return None
        state = self._state = ctx._state
        meta = self._meta
        span_ = self._span = Span(self._name, 0.0, 0.0,
                                  dict(meta) if meta else {},
                                  state.next_span_id(), ctx.span_id)
        child = TraceContext(ctx.trace_id, span_.span_id, state)
        self._start = perf_counter()
        self._token = _CURRENT.set(child)
        return span_

    def __exit__(self, *exc_info) -> bool:
        span_ = self._span
        if span_ is None:
            return False
        _CURRENT.reset(self._token)
        end = perf_counter()
        state = self._state
        span_.offset_ms = (self._start - state.origin) * 1e3
        span_.duration_ms = (end - self._start) * 1e3
        state.add(span_)
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
    events = ctx._state.events
    if events is None:
        return
    events.emit(category, trace_id=ctx.trace_id, span_id=ctx.span_id,
                **fields)
