"""Per-phase access statistics."""

from __future__ import annotations

from collections import Counter
from typing import Dict


class AccessStats:
    """Node-access and page-fault counts, attributed to named phases.

    Phases let one experiment split a single buffer-sharing run into the
    components the paper plots separately — e.g. Figure 27 stacks the
    cost of the initial NN query and the cost of the follow-up TPNN
    queries, while Figure 34 stacks the result window query and the
    influence-object window query.
    """

    __slots__ = ("node_accesses", "page_faults")

    def __init__(self) -> None:
        self.node_accesses: Counter = Counter()
        self.page_faults: Counter = Counter()

    def record(self, phase: str, fault: bool) -> None:
        """Record one node access (and optionally one page fault)."""
        self.node_accesses[phase] += 1
        if fault:
            self.page_faults[phase] += 1

    @property
    def total_node_accesses(self) -> int:
        return sum(self.node_accesses.values())

    @property
    def total_page_faults(self) -> int:
        return sum(self.page_faults.values())

    def node_accesses_by_phase(self) -> Dict[str, int]:
        return dict(self.node_accesses)

    def page_faults_by_phase(self) -> Dict[str, int]:
        return dict(self.page_faults)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot (the service-layer report format)."""
        return {
            "node_accesses": dict(self.node_accesses),
            "page_faults": dict(self.page_faults),
            "total_node_accesses": self.total_node_accesses,
            "total_page_faults": self.total_page_faults,
        }

    def reset(self) -> None:
        self.node_accesses.clear()
        self.page_faults.clear()

    def merge(self, other) -> None:
        """Accumulate another run's counts (an :class:`AccessStats` or an
        :class:`AccessDelta`) into this one."""
        self.node_accesses.update(other.node_accesses)
        self.page_faults.update(other.page_faults)

    def measure(self) -> "AccessDelta":
        """Measure what these counters record inside a ``with`` block.

        ``with stats.measure() as io:`` yields an :class:`AccessDelta`
        that holds, once the block exits (normally or by an exception),
        the per-phase node accesses and page faults recorded here
        meanwhile.  This is how one query's I/O is charged at the disk
        that served it: the caller measures only the counters of the
        disk it queried, never a merged view of a fleet.
        """
        return AccessDelta(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AccessStats(NA={self.total_node_accesses}, "
                f"PA={self.total_page_faults}, "
                f"phases={sorted(self.node_accesses)})")


class AccessDelta:
    """The accesses an :class:`AccessStats` recorded during a ``with``
    block (see :meth:`AccessStats.measure`).

    ``node_accesses`` / ``page_faults`` are plain per-phase dicts, empty
    until the block exits and without zero phases after; like an
    :class:`AccessStats` it can be merged into another one.
    """

    __slots__ = ("_stats", "_na0", "_pf0", "node_accesses", "page_faults")

    def __init__(self, stats: AccessStats) -> None:
        self._stats = stats
        self.node_accesses: Dict[str, int] = {}
        self.page_faults: Dict[str, int] = {}

    def __enter__(self) -> "AccessDelta":
        self._na0 = dict(self._stats.node_accesses)
        self._pf0 = dict(self._stats.page_faults)
        return self

    def __exit__(self, *exc_info) -> bool:
        self.node_accesses = _gained(self._stats.node_accesses, self._na0)
        self.page_faults = _gained(self._stats.page_faults, self._pf0)
        return False

    @property
    def total_node_accesses(self) -> int:
        return sum(self.node_accesses.values())


def _gained(now: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {phase: count - before.get(phase, 0)
            for phase, count in now.items()
            if count != before.get(phase, 0)}
