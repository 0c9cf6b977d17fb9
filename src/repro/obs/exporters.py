"""Exporters: Prometheus text exposition and Chrome trace events.

Two dialects out of one telemetry pipeline:

* :func:`prometheus_text` renders a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot in the
  Prometheus text exposition format (version 0.0.4) — counters become
  ``_total`` series, gauges stay plain, histograms with bucket bounds
  surface as native Prometheus histograms (cumulative ``_bucket{le=}``
  series plus ``_sum``/``_count``) and bucketless histograms as
  summaries with ``quantile`` labels.  The registry is dimensional:
  snapshot keys are canonical series keys
  (``service.queries{query_kind="knn"}``), so labels pass straight
  through to the exposition — parsed and re-rendered with the
  registry's own :func:`~repro.obs.metrics.parse_series_key` and
  :func:`~repro.obs.metrics.series_key`.

* :func:`chrome_trace` converts a :class:`~repro.obs.context.QueryTrace`
  span tree into the Chrome ``trace_event`` JSON format, loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Span
  timestamps combine the trace's wall-clock epoch with each span's
  monotonic offset, so absolute times are correct without ever mixing
  the two clocks.  Per-shard subtrees get their own track (tid) so the
  scatter-gather fan-out is visible as actual parallelism.

:func:`span_tree` is the ``/traces/<id>`` JSON shape: the same spans,
nested parent → children.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Tuple

from repro.obs.metrics import parse_series_key, series_key

__all__ = ["prometheus_text", "chrome_trace", "write_chrome_trace",
           "span_tree"]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_QUANTILES = (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99"))


def _metric_name(family: str, namespace: str) -> str:
    mangled = re.sub(r"[^a-zA-Z0-9_]", "_", family)
    return f"{namespace}_{mangled}" if namespace else mangled


def _value_str(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(metrics, namespace: str = "repro") -> str:
    """Render a metrics registry in Prometheus text exposition format.

    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry`
    (or anything with its ``snapshot()`` shape); the whole exposition
    is produced from **one** consistent snapshot, so cross-metric
    invariants (hits never ahead of probes) hold inside one scrape.
    """
    snap = metrics.snapshot()
    lines: List[str] = []

    def group(values) -> Dict[str, List[Tuple[Dict[str, str], object]]]:
        # Group series keys into families so each family gets one
        # HELP/TYPE header regardless of how many label sets it has.
        families: Dict[str, List[Tuple[Dict[str, str], object]]] = {}
        for key in sorted(values):
            family, labels = parse_series_key(key)
            families.setdefault(family, []).append((labels, values[key]))
        return families

    def render_scalar(kind_name: str, prom_type: str, values):
        for family, series in sorted(group(values).items()):
            metric = _metric_name(family, namespace)
            if prom_type == "counter":
                metric += "_total"
            lines.append(f"# HELP {metric} {family} ({kind_name})")
            lines.append(f"# TYPE {metric} {prom_type}")
            for labels, value in series:
                lines.append(f"{series_key(metric, labels)} "
                             f"{_value_str(value)}")

    def emit_summary(metric, labels, hist):
        for key, quantile in _QUANTILES:
            q_labels = dict(labels, quantile=quantile)
            lines.append(f"{series_key(metric, q_labels)} "
                         f"{_value_str(hist[key])}")
        lines.append(f"{series_key(metric + '_sum', labels)} "
                     f"{_value_str(hist['sum'])}")
        lines.append(f"{series_key(metric + '_count', labels)} "
                     f"{_value_str(hist['count'])}")

    def emit_buckets(metric, labels, hist):
        buckets = hist["buckets"]
        for le in sorted(buckets,
                         key=lambda s: float("inf") if s == "+Inf"
                         else float(s)):
            b_labels = dict(labels, le=le)
            lines.append(f"{series_key(metric + '_bucket', b_labels)} "
                         f"{_value_str(buckets[le])}")
        lines.append(f"{series_key(metric + '_sum', labels)} "
                     f"{_value_str(hist['sum'])}")
        lines.append(f"{series_key(metric + '_count', labels)} "
                     f"{_value_str(hist['count'])}")

    def render_histograms(values):
        for family, series in sorted(group(values).items()):
            metric = _metric_name(family, namespace)
            # A family is a native Prometheus histogram only when every
            # series carries bucket counts; otherwise fall back to the
            # reservoir-quantile summary rendering.
            native = all("buckets" in hist for _, hist in series)
            prom_type = "histogram" if native else "summary"
            lines.append(f"# HELP {metric} {family} (histogram)")
            lines.append(f"# TYPE {metric} {prom_type}")
            for labels, hist in series:
                if native:
                    emit_buckets(metric, labels, hist)
                else:
                    emit_summary(metric, labels, hist)

    render_scalar("counter", "counter", snap.get("counters", {}))
    render_scalar("gauge", "gauge", snap.get("gauges", {}))
    render_histograms(snap.get("histograms", {}))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# span trees and Chrome trace events
# ----------------------------------------------------------------------
def _by_offset(spans) -> list:
    return sorted(spans, key=lambda s: s.offset_ms)


def span_tree(trace) -> Dict[str, object]:
    """A trace's spans nested parent → children (the ``/traces/<id>`` shape).

    Spans without a ``parent_id`` (including legacy flat spans) are
    children of the trace root.  Children are ordered by start offset.
    """
    roots, children = trace.tree()

    def node(s) -> Dict[str, object]:
        out = s.as_dict()
        kids = children.get(s.span_id) if s.span_id is not None else None
        out["children"] = [node(k) for k in _by_offset(kids)] if kids else []
        return out

    return {
        "trace_id": trace.trace_id,
        "kind": trace.kind,
        "started_at": trace.started_at,
        "duration_ms": trace.duration_ms,
        "node_accesses": dict(trace.node_accesses),
        "spans": [node(s) for s in _by_offset(roots)],
    }


_SHARD_SPAN = re.compile(r"^shard_(\d+)$")


def _assign_tracks(trace) -> List[int]:
    """tid per span (by position): shard subtrees get their own track,
    everything else renders on tid 1."""
    roots, children = trace.tree()
    tracks: Dict[int, int] = {}
    todo = [(s, 1) for s in roots]
    while todo:
        s, tid = todo.pop()
        m = _SHARD_SPAN.match(s.name)
        if m:
            tid = 2 + int(m.group(1))
        tracks[id(s)] = tid
        if s.span_id is not None:
            todo.extend((kid, tid) for kid in children.get(s.span_id, ()))
    return [tracks.get(id(s), 1) for s in trace.spans]


def chrome_trace(trace) -> Dict[str, object]:
    """A trace as Chrome ``trace_event`` JSON (Perfetto-loadable).

    Timestamps are absolute: the trace's wall-clock ``started_at``
    epoch plus each span's monotonic offset, in microseconds.
    """
    base_us = trace.started_at * 1e6
    events: List[Dict[str, object]] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": f"repro trace {trace.trace_id}"}},
        {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
         "args": {"name": "service"}},
    ]
    spans = list(trace.spans)
    tracks = _assign_tracks(trace)
    named_tracks = {}
    for s, tid in zip(spans, tracks):
        m = _SHARD_SPAN.match(s.name)
        if m and tid not in named_tracks:
            named_tracks[tid] = f"shard {m.group(1)}"
    for tid, name in sorted(named_tracks.items()):
        events.append({"ph": "M", "pid": 1, "tid": tid,
                       "name": "thread_name", "args": {"name": name}})
    # The query itself as the top-level slice.
    events.append({
        "ph": "X", "pid": 1, "tid": 1,
        "name": f"{trace.kind} query",
        "cat": "query",
        "ts": base_us,
        "dur": max(trace.duration_ms, 0.0) * 1e3,
        "args": {"trace_id": trace.trace_id,
                 "node_accesses": dict(trace.node_accesses),
                 "result_size": trace.result_size},
    })
    for s, tid in zip(spans, tracks):
        args: Dict[str, object] = {k: v for k, v in s.meta.items()}
        if s.span_id is not None:
            args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        events.append({
            "ph": "X", "pid": 1, "tid": tid,
            "name": s.name,
            "cat": "span",
            "ts": base_us + s.offset_ms * 1e3,
            "dur": max(s.duration_ms, 0.0) * 1e3,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace, path) -> str:
    """Write :func:`chrome_trace` JSON to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(trace), fh, indent=2, sort_keys=True)
    return str(path)
