"""Phase profiling: span trees folded into self-time tables and flames.

Every finished :class:`~repro.service.tracing.QueryTrace` already
carries a span tree — ``cache_probe``, ``shard_fanout`` and its
per-shard workers, ``disk_read`` phase blocks, kernel batches.  The
:class:`PhaseProfiler` is a sampling hook over that stream: traces are
collapsed into stacks (root frame = query kind, child frames = span
names), each frame charged its **self time** (duration minus direct
children), and equal stacks aggregated across traces.

Two read shapes come out:

* :meth:`PhaseProfiler.phase_table` — per-phase totals (calls,
  self-time, total time), the "where do the milliseconds go" table;
* :meth:`PhaseProfiler.flamegraph` — the collapsed-stack text format
  (``kind;shard_fanout;shard;disk_read 1234`` — one stack per line,
  value in integer microseconds of self time) consumed directly by
  ``flamegraph.pl``, speedscope, or any FlameGraph-compatible viewer;
  served at ``/profile/flame`` and via ``python -m repro obs --flame``.

Numbered fan-out frames (``shard_3``, ``replica_1``) are normalized to
their family name (``shard``, ``replica``) by default so stack
cardinality stays bounded at fleet width; disable with
``normalize=False`` to keep per-shard attribution.
"""

from __future__ import annotations

import functools
import re
import threading
from typing import Dict, List, Tuple

__all__ = ["PhaseProfiler", "collapse_trace"]

_NUMBERED = re.compile(r"^(shard|replica)_\d+$")


# Span names are a small vocabulary (the stages plus one name per shard
# and replica), so a bounded memo answers nearly every lookup.
@functools.lru_cache(maxsize=4096)
def _normalized(name: str) -> str:
    """``name`` with a fan-out number dropped (``shard_3`` → ``shard``)."""
    m = _NUMBERED.match(name)
    return m.group(1) if m else name


def _verbatim(name: str) -> str:
    return name


def collapse_trace(trace, normalize: bool = True
                   ) -> Dict[Tuple[str, ...], float]:
    """One trace's spans as {stack tuple: self-time ms}.

    The root frame is the trace's query kind; span stacks follow
    parent links (flat legacy spans hang off the root).  A span's self
    time is its duration minus its direct children's durations,
    clamped at zero (children overlapping their parent's end never
    drive it negative).  Trace time
    not covered by any root span is charged to the root frame itself.
    """
    spans = trace.spans
    ids = {s.span_id for s in spans}
    roots: List = []
    children: Dict[str, List] = {}
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

    frame = _normalized if normalize else _verbatim
    root = frame(trace.kind)
    stacks: Dict[Tuple[str, ...], float] = {}
    # Depth-first, children in span order: the order the stacks are
    # first seen and their self times summed in, so the profile table
    # fills (and its float sums round) the same way on every run.
    todo = [(span, (root,)) for span in reversed(roots)]
    while todo:
        span, prefix = todo.pop()
        stack = (*prefix, frame(span.name))
        ms = span.duration_ms
        kids = children.get(span.span_id) if span.span_id else None
        if kids:
            ms -= sum([k.duration_ms for k in kids])
            todo.extend([(kid, stack) for kid in reversed(kids)])
        stacks[stack] = stacks.get(stack, 0.0) + (0.0 if ms < 0.0 else ms)
    ms = trace.duration_ms - sum([s.duration_ms for s in roots])
    stacks[(root,)] = stacks.get((root,), 0.0) + (0.0 if ms < 0.0 else ms)
    return stacks


class PhaseProfiler:
    """Aggregates collapsed span stacks across sampled traces.

    ``sample_1_in`` keeps every Nth trace (deterministic counter, so a
    replayed run profiles the same queries); ``max_stacks`` bounds the
    table — overflow stacks fold into a single ``(other)`` frame so
    the profile stays honest about what it dropped.
    """

    def __init__(self, sample_1_in: int = 1, max_stacks: int = 512,
                 normalize: bool = True):
        if sample_1_in < 1:
            raise ValueError("sample_1_in must be >= 1 (keep 1-in-N)")
        if max_stacks < 1:
            raise ValueError("max_stacks must be positive")
        self.sample_1_in = int(sample_1_in)
        self.max_stacks = int(max_stacks)
        self.normalize = normalize
        self._lock = threading.Lock()
        #: stack tuple → [samples, self_ms]
        self._stacks: Dict[Tuple[str, ...], List[float]] = {}
        self._seen = 0
        self._sampled = 0
        self._overflowed = 0

    # ------------------------------------------------------------------
    # the write path (called by the service per retained trace)
    # ------------------------------------------------------------------
    def record(self, trace) -> None:
        with self._lock:
            self._seen += 1
            if (self._seen - 1) % self.sample_1_in:
                return
            self._sampled += 1
            for stack, ms in collapse_trace(trace, self.normalize).items():
                entry = self._stacks.get(stack)
                if entry is None:
                    if len(self._stacks) >= self.max_stacks:
                        self._overflowed += 1
                        stack = ("(other)",)
                        entry = self._stacks.get(stack)
                        if entry is None:
                            entry = self._stacks[stack] = [0, 0.0]
                    else:
                        entry = self._stacks[stack] = [0, 0.0]
                entry[0] += 1
                entry[1] += ms

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------
    def phase_table(self) -> List[Dict[str, object]]:
        """Per-phase totals, heaviest self-time first.

        A *phase* is a leaf frame name (``cache_probe``, ``disk_read``,
        ``shard``…); ``self_ms`` sums that frame's own time wherever it
        appears, ``total_ms`` adds everything below it too.
        """
        with self._lock:
            stacks = {s: (e[0], e[1]) for s, e in self._stacks.items()}
        phases: Dict[str, Dict[str, float]] = {}
        for stack, (samples, self_ms) in stacks.items():
            leaf = stack[-1]
            row = phases.setdefault(
                leaf, {"samples": 0, "self_ms": 0.0, "total_ms": 0.0})
            row["samples"] += samples
            row["self_ms"] += self_ms
        # total = self + everything appearing beneath this frame.
        for stack, (_, self_ms) in stacks.items():
            for frame in set(stack):
                if frame in phases:
                    phases[frame]["total_ms"] += self_ms
        return [
            {"phase": name, "samples": int(row["samples"]),
             "self_ms": row["self_ms"], "total_ms": row["total_ms"]}
            for name, row in sorted(phases.items(),
                                    key=lambda kv: -kv[1]["self_ms"])
        ]

    def flamegraph(self) -> str:
        """Collapsed-stack text: ``frame;frame;frame <self_us>`` lines."""
        with self._lock:
            stacks = {s: e[1] for s, e in self._stacks.items()}
        lines = [f"{';'.join(stack)} {int(round(ms * 1000.0))}"
                 for stack, ms in sorted(stacks.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            head = {
                "seen": self._seen,
                "sampled": self._sampled,
                "sample_1_in": self.sample_1_in,
                "stacks": len(self._stacks),
                "overflowed": self._overflowed,
            }
        head["phases"] = self.phase_table()
        return head

    def reset(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._seen = self._sampled = self._overflowed = 0
