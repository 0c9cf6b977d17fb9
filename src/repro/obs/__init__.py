"""repro.obs — the end-to-end telemetry pipeline.

One query, one trace: a :class:`TraceContext` carrying a ``trace_id``
and the current span flows — via :mod:`contextvars`, with explicit
handoff across thread pools — from the mobile client through the query
service, the validity cache, the sharded scatter-gather workers, the
location server, the R*-tree descent and down to the simulated disk's
phase blocks.  Every layer hangs child spans and structured events off
whatever context is active, so a completed query's trace is a real
parent/child span **tree** (per-shard children, disk-level leaves)
instead of a flat list of service-side timings.

The pieces:

* :mod:`repro.obs.context` — :class:`TraceContext`, ``start_trace`` /
  ``span`` / ``attach`` / ``current_trace``: propagation itself, and
  :class:`QueryTrace`, the one record per query that ``start_trace``
  opens and the service keeps.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`: labelled
  counters, gauges and histograms in one thread-safe registry every
  layer reports into, keyed by :func:`series_key`.
* :mod:`repro.obs.events` — :class:`EventLog`, a bounded, thread-safe,
  per-category-sampled structured event sink (JSONL).
* :mod:`repro.obs.exporters` — Prometheus text exposition for a
  :class:`MetricsRegistry`, the Chrome ``trace_event``
  (Perfetto-loadable) exporter, and ``span_tree``.
* :mod:`repro.obs.http` — :class:`ObservabilityServer`, a stdlib
  ``http.server`` endpoint serving ``/metrics``, ``/traces/<id>``,
  ``/events``, ``/slo``, ``/profile/flame``, ``/healthz``/``/readyz``
  and friends for a running
  :class:`~repro.service.service.QueryService`.
* :mod:`repro.obs.slo` — :class:`SLOEngine` / :class:`SLOConfig`:
  declarative availability/latency/staleness objectives tracked with
  multi-window multi-burn-rate alerting, driving the admission
  controller's brownout ladder.
* :mod:`repro.obs.profile` — :class:`PhaseProfiler`: span trees folded
  into per-phase self-time tables and collapsed-stack flamegraphs.

``repro.obs`` imports no other ``repro`` package: the storage layer,
the core and the service tier all build on it.

See docs/OBSERVABILITY.md for the trace-context model, the event
schema, and how to open an exported trace in Perfetto.
"""

from repro.obs.context import (
    QueryTrace,
    Span,
    TraceContext,
    attach,
    current_trace,
    emit_event,
    new_trace_id,
    span,
    start_trace,
)
from repro.obs.events import EventLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_series_key,
    series_key,
)
from repro.obs.exporters import (
    chrome_trace,
    prometheus_text,
    span_tree,
    write_chrome_trace,
)
from repro.obs.profile import PhaseProfiler, collapse_trace
from repro.obs.slo import SLOConfig, SLOEngine

__all__ = [
    "QueryTrace",
    "Span",
    "TraceContext",
    "attach",
    "current_trace",
    "emit_event",
    "new_trace_id",
    "span",
    "start_trace",
    "EventLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "series_key",
    "parse_series_key",
    "chrome_trace",
    "prometheus_text",
    "span_tree",
    "write_chrome_trace",
    "ObservabilityServer",
    "PhaseProfiler",
    "collapse_trace",
    "SLOConfig",
    "SLOEngine",
]


def __getattr__(name):
    # The HTTP endpoint pulls in http.server, email and ssl -- about
    # 3 MB of resident memory -- so it is imported on first use only.
    if name == "ObservabilityServer":
        from repro.obs.http import ObservabilityServer
        return ObservabilityServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
