"""Exporters: Prometheus line format, span trees, Chrome trace JSON."""

from __future__ import annotations

import json
import re

import pytest

from repro.obs import chrome_trace, prometheus_text, span_tree, \
    write_chrome_trace
from repro.obs import MetricsRegistry, QueryTrace, Span

# One sample line of the text exposition format (version 0.0.4):
# metric name, optional {labels}, a value.
_EXPOSITION_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" [0-9.eE+-]+(Inf)?$")


def _registry() -> MetricsRegistry:
    m = MetricsRegistry()
    m.counter("service.queries").inc(5)
    m.counter("service.queries", labels={"query_kind": "knn"}).inc(3)
    m.counter("service.queries", labels={"query_kind": "window"}).inc(2)
    m.counter("service.cache.probes").inc(7)
    m.counter("service.shard.queries",
              labels={"shard": "3", "replica": "1"}).inc(4)
    m.counter("service.node_accesses", labels={"phase": "nn"}).inc(11)
    m.gauge("service.fleet.clients").set(16)
    h = m.histogram("service.latency_ms",
                    labels={"query_kind": "knn", "degraded": "false"},
                    buckets=(1.0, 2.5, 10.0))
    for v in (1.0, 2.0, 3.0, 4.0):
        h.record(v)
    s = m.histogram("service.batch_size")
    for v in (1.0, 2.0, 3.0, 4.0):
        s.record(v)
    return m


@pytest.mark.obs
def test_prometheus_golden_lines():
    """Pinned text-format output for labeled metrics: format drift —
    label ordering, escaping, bucket rendering — fails loudly here."""
    text = prometheus_text(_registry())
    lines = text.splitlines()
    # The unlabeled series is the pre-aggregated total; labeled series
    # carry the dimensional breakdown on the same family.
    assert 'repro_service_queries_total 5' in lines
    assert 'repro_service_queries_total{query_kind="knn"} 3' in lines
    assert 'repro_service_queries_total{query_kind="window"} 2' in lines
    # Multi-label series render keys sorted.
    assert ('repro_service_shard_queries_total'
            '{replica="1",shard="3"} 4') in lines
    assert 'repro_service_node_accesses_total{phase="nn"} 11' in lines
    assert 'repro_service_cache_probes_total 7' in lines
    assert 'repro_service_fleet_clients 16.0' in lines
    # Bucketed histograms render native: cumulative le= series + +Inf.
    assert ('repro_service_latency_ms_bucket'
            '{degraded="false",le="1",query_kind="knn"} 1') in lines
    assert ('repro_service_latency_ms_bucket'
            '{degraded="false",le="2.5",query_kind="knn"} 2') in lines
    assert ('repro_service_latency_ms_bucket'
            '{degraded="false",le="10",query_kind="knn"} 4') in lines
    assert ('repro_service_latency_ms_bucket'
            '{degraded="false",le="+Inf",query_kind="knn"} 4') in lines
    assert ('repro_service_latency_ms_sum'
            '{degraded="false",query_kind="knn"} 10.0') in lines
    assert ('repro_service_latency_ms_count'
            '{degraded="false",query_kind="knn"} 4') in lines
    # Bucketless histograms keep the summary rendering
    # (nearest-rank p50 of [1,2,3,4] is 3.0).
    assert 'repro_service_batch_size{quantile="0.5"} 3.0' in lines
    assert 'repro_service_batch_size_sum 10.0' in lines
    # Label values are escaped (quote, backslash, newline) exactly as
    # the registry keys them; a registry of its own, because the
    # exposition regex below admits no escaped quotes.
    escaped = MetricsRegistry()
    escaped.counter("svc.x", labels={"path": 'a"b\\c\nd'}).inc(2)
    assert (r'repro_svc_x_total{path="a\"b\\c\nd"} 2'
            in prometheus_text(escaped).splitlines())


def test_prometheus_exposition_parses():
    """Every line is a comment or a well-formed sample; each family has
    exactly one TYPE header."""
    text = prometheus_text(_registry())
    assert text.endswith("\n")
    types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, prom_type = line.split(" ")
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = prom_type
        elif not line.startswith("#"):
            assert _EXPOSITION_LINE.match(line), f"bad sample line: {line!r}"
            metric = re.split(r"[{ ]", line, maxsplit=1)[0]
            family = re.sub(r"_(sum|count|bucket)$", "", metric)
            assert metric in types or family in types, (
                f"sample {metric} has no TYPE header")
    assert types["repro_service_queries_total"] == "counter"
    assert types["repro_service_fleet_clients"] == "gauge"
    assert types["repro_service_latency_ms"] == "histogram"
    assert types["repro_service_batch_size"] == "summary"


def _trace() -> QueryTrace:
    return QueryTrace(
        trace_id="t-x", kind="knn", started_at=1_700_000_000.0,
        monotonic_origin=10.0, duration_ms=5.0,
        node_accesses={"nn": 7}, result_size=3,
        spans=[
            Span("cache_probe", 0.1, 0.2, span_id="s1"),
            Span("shard_fanout", 0.4, 4.0, span_id="s2"),
            Span("shard_3", 0.5, 1.5, span_id="s3", parent_id="s2",
                 meta={"sid": 3}),
            Span("index_descent", 0.6, 1.0, span_id="s4", parent_id="s3"),
            Span("serialization", 4.5, 0.3, span_id="s5"),
        ])


def test_span_tree_nests_children():
    tree = span_tree(_trace())
    assert tree["trace_id"] == "t-x"
    roots = [node["name"] for node in tree["spans"]]
    assert roots == ["cache_probe", "shard_fanout", "serialization"]
    fanout = tree["spans"][1]
    assert [c["name"] for c in fanout["children"]] == ["shard_3"]
    shard = fanout["children"][0]
    assert [c["name"] for c in shard["children"]] == ["index_descent"]


def test_span_tree_handles_legacy_flat_spans():
    trace = QueryTrace(trace_id="t-flat", kind="window", started_at=0.0,
                       spans=[Span("index_descent", 0.0, 1.0),
                              Span("serialization", 1.0, 0.1)])
    tree = span_tree(trace)
    assert [node["name"] for node in tree["spans"]] == [
        "index_descent", "serialization"]
    assert all(node["children"] == [] for node in tree["spans"])


def test_chrome_trace_structure_and_clocks():
    trace = _trace()
    doc = chrome_trace(trace)
    events = doc["traceEvents"]
    base_us = trace.started_at * 1e6
    # Metadata names the process and the shard track.
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in meta)
    assert any(e["args"].get("name") == "shard 3" for e in meta)
    # The query slice and one slice per span, all absolute-time stamped.
    slices = [e for e in events if e["ph"] == "X"]
    assert len(slices) == 1 + len(trace.spans)
    query = next(e for e in slices if e["cat"] == "query")
    assert query["ts"] == base_us
    assert query["dur"] == trace.duration_ms * 1e3
    shard = next(e for e in slices if e["name"] == "shard_3")
    assert shard["tid"] == 2 + 3  # its own track
    assert shard["ts"] == base_us + 0.5 * 1e3
    descent = next(e for e in slices if e["name"] == "index_descent")
    assert descent["tid"] == shard["tid"]  # children inherit the track
    probe = next(e for e in slices if e["name"] == "cache_probe")
    assert probe["tid"] == 1
    json.dumps(doc)  # serializable as-is


def test_write_chrome_trace_round_trips(tmp_path):
    path = write_chrome_trace(_trace(), tmp_path / "trace.json")
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["displayTimeUnit"] == "ms"
    assert any(e["name"] == "knn query" for e in doc["traceEvents"])
