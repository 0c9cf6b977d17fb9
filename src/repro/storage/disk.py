"""The simulated disk: where node accesses become NA/PA statistics."""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

from repro.obs.context import PHASE_SPAN_NAMES, current_trace
from repro.obs.context import span as obs_span
from repro.storage.buffer import LRUBufferPool
from repro.storage.counters import AccessStats

DEFAULT_PHASE = "default"

#: Signature of a phase listener: ``(phase_name, elapsed_seconds)``,
#: called once per completed :meth:`DiskSimulator.phase` block.
PhaseListener = Callable[[str, float], None]


class DiskSimulator:
    """Counts node accesses and page faults through an optional buffer.

    The index calls :meth:`read` for every node it touches.  Experiments
    wrap query executions in :meth:`phase` blocks so costs can be
    attributed ("nn" vs "tpnn", "result" vs "influence"), and size the
    buffer with :meth:`set_buffer`.  The service layer installs a
    :data:`PhaseListener` to turn those same blocks into wall-clock
    trace spans.
    """

    __slots__ = ("stats", "_buffer", "_phase", "_listener")

    def __init__(self, buffer_pages: int = 0):
        self.stats = AccessStats()
        self._buffer: Optional[LRUBufferPool] = (
            LRUBufferPool(buffer_pages) if buffer_pages > 0 else None
        )
        self._phase = DEFAULT_PHASE
        self._listener: Optional[PhaseListener] = None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_buffer(self, pages: int) -> None:
        """(Re)install an LRU buffer of ``pages`` pages (0 disables it)."""
        self._buffer = LRUBufferPool(pages) if pages > 0 else None

    @property
    def buffer(self) -> Optional[LRUBufferPool]:
        return self._buffer

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def read(self, page_id: int) -> None:
        """Register an access to ``page_id`` under the current phase."""
        fault = True if self._buffer is None else self._buffer.access(page_id)
        self.stats.record(self._phase, fault)

    def invalidate(self, page_id: int) -> None:
        """Forget a page (freed by the index) from the buffer."""
        if self._buffer is not None:
            self._buffer.invalidate(page_id)

    # ------------------------------------------------------------------
    # phases and lifecycle
    # ------------------------------------------------------------------
    def set_phase_listener(self, listener: Optional[PhaseListener]
                           ) -> Optional[PhaseListener]:
        """Install (or clear) the phase listener; returns the previous one."""
        previous = self._listener
        self._listener = listener
        return previous

    def phase(self, name: str) -> "_PhaseBlock":
        """Attribute enclosed accesses to phase ``name`` (re-entrant).

        Under an active trace context (:mod:`repro.obs.context`) the
        block also records a disk-level child span — the leaf of the
        query's span tree — annotated with the node accesses and page
        faults the phase charged to this disk.
        """
        return _PhaseBlock(self, name)

    def reset_stats(self) -> None:
        """Zero the counters; the buffer contents stay warm."""
        self.stats.reset()

    def cold_restart(self) -> None:
        """Zero the counters and empty the buffer."""
        self.stats.reset()
        if self._buffer is not None:
            self._buffer.clear()


class _PhaseBlock:
    """One :meth:`DiskSimulator.phase` block: the phase switch, the
    listener call and, under a trace, the disk span around them."""

    __slots__ = ("_disk", "_name", "_previous", "_start", "_scope",
                 "_span", "_na0", "_pf0")

    def __init__(self, disk: DiskSimulator, name: str):
        self._disk = disk
        self._name = name

    def __enter__(self) -> None:
        disk, name = self._disk, self._name
        if current_trace() is not None:
            self._scope = obs_span(PHASE_SPAN_NAMES.get(name, name),
                                   meta={"phase": name})
            self._span = self._scope.__enter__()
            self._na0 = disk.stats.node_accesses[name]
            self._pf0 = disk.stats.page_faults[name]
        else:
            self._scope = None
        self._previous = disk._phase
        disk._phase = name
        self._start = perf_counter() if disk._listener is not None else 0.0

    def __exit__(self, *exc_info) -> bool:
        disk, name = self._disk, self._name
        try:
            if self._scope is not None:
                meta = self._span.meta
                meta["node_accesses"] = (
                    disk.stats.node_accesses[name] - self._na0)
                meta["page_faults"] = disk.stats.page_faults[name] - self._pf0
            disk._phase = self._previous
            if disk._listener is not None:
                disk._listener(name, perf_counter() - self._start)
        finally:
            if self._scope is not None:
                self._scope.__exit__(*exc_info)
        return False
