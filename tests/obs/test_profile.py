"""Phase profiling: stack collapse, self-time, sampling, flamegraphs."""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import PhaseProfiler, collapse_trace
from repro.service import QueryTrace, Span

pytestmark = pytest.mark.obs


def _trace(kind: str = "knn", duration_ms: float = 10.0,
           spans=None) -> QueryTrace:
    return QueryTrace(trace_id="t", kind=kind, started_at=0.0,
                      duration_ms=duration_ms, spans=spans or [])


def _spans():
    return [
        Span("cache_probe", 0.0, 1.0, span_id="a"),
        Span("shard_fanout", 1.0, 8.0, span_id="b"),
        Span("shard_3", 1.5, 4.0, span_id="c", parent_id="b"),
        Span("index_descent", 2.0, 3.0, span_id="d", parent_id="c"),
    ]


class TestCollapse:
    def test_self_time_subtracts_direct_children(self):
        stacks = collapse_trace(_trace(spans=_spans()))
        assert stacks[("knn", "cache_probe")] == pytest.approx(1.0)
        # shard_fanout: 8.0 minus its child shard_3's 4.0.
        assert stacks[("knn", "shard_fanout")] == pytest.approx(4.0)
        assert stacks[("knn", "shard_fanout", "shard")] == pytest.approx(1.0)
        assert stacks[("knn", "shard_fanout", "shard", "index_descent")] \
            == pytest.approx(3.0)

    def test_uncovered_root_time_charged_to_kind(self):
        # duration 10, root spans cover 1 + 8 = 9 → 1 ms to ("knn",).
        stacks = collapse_trace(_trace(spans=_spans()))
        assert stacks[("knn",)] == pytest.approx(1.0)

    def test_self_time_clamped_at_zero(self):
        spans = [Span("parent", 0.0, 1.0, span_id="p"),
                 Span("child", 0.0, 5.0, span_id="c", parent_id="p")]
        stacks = collapse_trace(_trace(duration_ms=5.0, spans=spans))
        assert stacks[("knn", "parent")] == 0.0
        assert stacks[("knn", "parent", "child")] == pytest.approx(5.0)

    def test_numbered_frames_normalized_by_default(self):
        stacks = collapse_trace(_trace(spans=_spans()))
        assert not any("shard_3" in stack for stack in stacks)
        raw = collapse_trace(_trace(spans=_spans()), normalize=False)
        assert ("knn", "shard_fanout", "shard_3") in raw

    def test_flat_legacy_spans_hang_off_the_root(self):
        spans = [Span("index_descent", 0.0, 2.0),
                 Span("serialization", 2.0, 1.0)]
        stacks = collapse_trace(_trace(duration_ms=3.0, spans=spans))
        assert stacks[("knn", "index_descent")] == pytest.approx(2.0)
        assert stacks[("knn", "serialization")] == pytest.approx(1.0)

    def test_orphan_parent_ids_treated_as_roots(self):
        spans = [Span("lost", 0.0, 2.0, span_id="x", parent_id="gone")]
        stacks = collapse_trace(_trace(duration_ms=2.0, spans=spans))
        assert stacks[("knn", "lost")] == pytest.approx(2.0)


class TestProfiler:
    def test_aggregates_across_traces(self):
        prof = PhaseProfiler()
        prof.record(_trace(spans=_spans()))
        prof.record(_trace(spans=_spans()))
        table = {row["phase"]: row for row in prof.phase_table()}
        assert table["cache_probe"]["samples"] == 2
        assert table["cache_probe"]["self_ms"] == pytest.approx(2.0)
        # total_ms for shard_fanout includes everything beneath it.
        assert table["shard_fanout"]["total_ms"] \
            == pytest.approx(2 * (4.0 + 1.0 + 3.0))

    def test_table_sorted_by_self_time(self):
        prof = PhaseProfiler()
        prof.record(_trace(spans=_spans()))
        table = prof.phase_table()
        selfs = [row["self_ms"] for row in table]
        assert selfs == sorted(selfs, reverse=True)

    def test_sampling_is_deterministic(self):
        prof = PhaseProfiler(sample_1_in=3)
        for _ in range(7):
            prof.record(_trace(spans=_spans()))
        snap = prof.snapshot()
        assert snap["seen"] == 7
        assert snap["sampled"] == 3  # traces 1, 4, 7

    def test_overflow_folds_into_other(self):
        prof = PhaseProfiler(max_stacks=2)
        for i in range(5):
            spans = [Span(f"phase{i}", 0.0, 1.0, span_id="s")]
            prof.record(_trace(kind=f"kind{i}", duration_ms=1.0, spans=spans))
        snap = prof.snapshot()
        assert snap["overflowed"] > 0
        assert ("(other)",) in {tuple(s) for s in prof._stacks}
        assert len(prof._stacks) <= 2 + 1  # cap + the (other) bucket

    def test_flamegraph_collapsed_stack_format(self):
        prof = PhaseProfiler()
        prof.record(_trace(spans=_spans()))
        lines = prof.flamegraph().splitlines()
        assert "knn;cache_probe 1000" in lines
        assert "knn;shard_fanout;shard;index_descent 3000" in lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack and value.isdigit()  # integer microseconds

    def test_snapshot_json_and_reset(self):
        prof = PhaseProfiler()
        prof.record(_trace(spans=_spans()))
        snap = prof.snapshot()
        json.dumps(snap)
        assert snap["stacks"] > 0 and snap["phases"]
        prof.reset()
        snap = prof.snapshot()
        assert snap == {"seen": 0, "sampled": 0, "sample_1_in": 1,
                        "stacks": 0, "overflowed": 0, "phases": []}

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PhaseProfiler(sample_1_in=0)
        with pytest.raises(ValueError):
            PhaseProfiler(max_stacks=0)


# ----------------------------------------------------------------------
# the reference: the recursive walk collapse_trace replaced
# ----------------------------------------------------------------------
def _reference_collapse(trace, normalize: bool = True
                        ) -> Dict[Tuple[str, ...], float]:
    def frame(name: str) -> str:
        if normalize:
            m = re.match(r"^(shard|replica)_\d+$", name)
            if m:
                return m.group(1)
        return name

    spans = list(trace.spans)
    by_id = {s.span_id: s for s in spans if s.span_id is not None}
    children: Dict[Optional[str], List] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)
    root = frame(trace.kind)
    stacks: Dict[Tuple[str, ...], float] = {}

    def add(stack, ms):
        stacks[stack] = stacks.get(stack, 0.0) + max(ms, 0.0)

    def walk(span, prefix):
        stack = prefix + (frame(span.name),)
        kids = children.get(span.span_id, []) if span.span_id else []
        add(stack, span.duration_ms - sum(k.duration_ms for k in kids))
        for kid in kids:
            walk(kid, stack)

    roots = children.get(None, [])
    for span in roots:
        walk(span, (root,))
    add((root,), trace.duration_ms - sum(s.duration_ms for s in roots))
    return stacks


_NAMES = ["cache_probe", "shard_fanout", "shard_0", "shard_3", "shard_12",
          "replica_1", "index_descent", "tpnn_probing", "serialization"]


@st.composite
def _span_trees(draw):
    n = draw(st.integers(0, 16))
    spans = []
    for i in range(n):
        legacy = draw(st.integers(0, 9)) == 0  # a flat span without ids
        earlier = [f"s{j}" for j in range(1, i + 1)] or [None]
        # Crowding children under the first few spans makes the sums
        # of three and more durations whose rounding depends on order.
        parent = draw(st.one_of(
            st.none(), st.just("gone"), st.sampled_from(earlier[:3]),
            st.sampled_from(earlier)))
        spans.append(Span(
            draw(st.sampled_from(_NAMES)),
            draw(st.floats(0.0, 50.0)),
            draw(st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 500.0))),
            span_id=None if legacy else f"s{i + 1}",
            parent_id=parent))
    spans = draw(st.permutations(spans))
    return _trace(kind=draw(st.sampled_from(["knn", "shard_2"])),
                  duration_ms=draw(st.floats(0.0, 600.0)), spans=spans)


# 0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1: a walk that
# sums children or roots in another order changes the profile's bits.
_ORDERED_SUMS = _trace(duration_ms=1.0, spans=[
    Span("shard_fanout", 0.0, 1.0, span_id="f"),
    *(Span(f"shard_{i}", 0.0, d, span_id=f"s{i}", parent_id="f")
      for i, d in enumerate((0.1, 0.2, 0.3)))])
_ORDERED_ROOTS = _trace(duration_ms=1.0, spans=[
    Span(name, 0.0, d, span_id=name)
    for name, d in (("cache_probe", 0.1), ("admission_wait", 0.2),
                    ("serialization", 0.3))])


@settings(deadline=None, max_examples=300)
@given(_span_trees(), st.booleans())
@example(_ORDERED_SUMS, True)
@example(_ORDERED_ROOTS, True)
def test_iterative_collapse_matches_the_recursive_walk(trace, normalize):
    """Same stacks, first seen in the same order, with bit-identical
    self-time sums — so profiles, table order and overflow match."""
    got = collapse_trace(trace, normalize=normalize)
    want = _reference_collapse(trace, normalize=normalize)
    assert list(got.items()) == list(want.items())
