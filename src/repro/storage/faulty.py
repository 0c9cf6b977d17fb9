"""Seeded fault injection for the simulated disk.

:class:`FaultyDiskSimulator` wraps (by subclassing) the
:class:`~repro.storage.disk.DiskSimulator` every R*-tree consults on
node reads, and executes a deterministic :class:`FaultPlan`: per-phase
read failures surface as :class:`PageReadError`, reads can be delayed by
a seeded latency distribution, and the buffer pool can be made *stuck*
for a window of reads (every access misses, nothing is admitted) — the
three failure shapes a paged server actually exhibits under slow or
dying disks.

Determinism: all randomness comes from one ``random.Random`` seeded by
the plan, and the stuck-buffer window is keyed on the global read
counter, so a single-threaded replay of the same access sequence
produces the same faults read-for-read.  Under concurrency the *draw
order* follows thread interleaving, but the marginal fault rate and the
explicitly pinned ``fail_reads`` indices are unaffected.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.obs.context import emit_event
from repro.storage.disk import DiskSimulator

__all__ = ["PageReadError", "FaultPlan", "FaultyDiskSimulator",
           "inject_faults"]


class PageReadError(OSError):
    """A simulated unrecoverable read of one page.

    ``transient`` marks the error as retryable for the service layer's
    retry policy and the client's stale-cache fallback (duck-typed so
    the storage layer needs no dependency on them).
    """

    transient = True

    def __init__(self, page_id: int, phase: str, read_index: int):
        super().__init__(
            f"simulated read failure of page {page_id} "
            f"(phase {phase!r}, read #{read_index})")
        self.page_id = page_id
        self.phase = phase
        self.read_index = read_index


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic description of how the disk misbehaves.

    ``read_failure_rate`` applies to every phase unless overridden in
    ``phase_failure_rates`` (keyed by the disk-phase name, e.g. ``"nn"``
    or ``"tpnn"``).  ``fail_reads`` pins specific 1-based read indices
    that always fail — the deterministic hook chaos tests use to script
    exact failure sequences.

    ``latency_mean_s`` injects an exponentially distributed sleep on a
    ``latency_rate`` fraction of reads (every read by default), the
    heavy-tailed shape of a contended spindle.

    ``stuck_buffer_at``/``stuck_buffer_reads`` describe a window of the
    read sequence during which the buffer pool is stuck: every read in
    the window is charged as a fault and the pool is neither consulted
    nor updated.
    """

    seed: int = 0
    read_failure_rate: float = 0.0
    phase_failure_rates: Mapping[str, float] = field(default_factory=dict)
    fail_reads: Tuple[int, ...] = ()
    latency_mean_s: float = 0.0
    latency_rate: float = 1.0
    stuck_buffer_at: Optional[int] = None
    stuck_buffer_reads: int = 0

    def __post_init__(self):
        object.__setattr__(self, "phase_failure_rates",
                           dict(self.phase_failure_rates))
        object.__setattr__(self, "fail_reads",
                           tuple(int(i) for i in self.fail_reads))
        for rate in (self.read_failure_rate, self.latency_rate,
                     *self.phase_failure_rates.values()):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("fault rates must be in [0, 1]")
        if self.latency_mean_s < 0.0:
            raise ValueError("latency_mean_s must be non-negative")

    def failure_rate(self, phase: str) -> float:
        return self.phase_failure_rates.get(phase, self.read_failure_rate)


class FaultyDiskSimulator(DiskSimulator):
    """A :class:`DiskSimulator` that executes a :class:`FaultPlan`.

    Build one directly, or graft a plan onto an existing tree with
    :func:`inject_faults` (which keeps the tree's buffer and statistics).
    Injected-fault accounting is kept separate from the paper's NA/PA
    statistics in :attr:`injected`.
    """

    __slots__ = ("plan", "injected", "_rng", "_reads", "_sleep", "replaced")

    def __init__(self, plan: FaultPlan, buffer_pages: int = 0,
                 sleep=time.sleep):
        super().__init__(buffer_pages)
        self.plan = plan
        self.injected: Dict[str, float] = {
            "read_failures": 0, "latency_events": 0,
            "latency_seconds": 0.0, "stuck_reads": 0,
        }
        self._rng = random.Random(plan.seed)
        self._reads = 0
        self._sleep = sleep

    @property
    def reads_attempted(self) -> int:
        """Total reads attempted (including ones that failed)."""
        return self._reads

    def _stuck(self, read_index: int) -> bool:
        start = self.plan.stuck_buffer_at
        if start is None:
            return False
        return start <= read_index < start + self.plan.stuck_buffer_reads

    def read(self, page_id: int) -> None:
        self._reads += 1
        index = self._reads
        plan = self.plan
        if plan.latency_mean_s > 0.0 and (
                plan.latency_rate >= 1.0
                or self._rng.random() < plan.latency_rate):
            delay = self._rng.expovariate(1.0 / plan.latency_mean_s)
            self.injected["latency_events"] += 1
            self.injected["latency_seconds"] += delay
            self._sleep(delay)
        rate = plan.failure_rate(self._phase)
        if index in plan.fail_reads or (
                rate > 0.0 and self._rng.random() < rate):
            # The access was attempted: charge it (as a fault — the read
            # never came back from the buffer) before failing.
            self.stats.record(self._phase, True)
            self.injected["read_failures"] += 1
            emit_event("fault", event="disk.read_failure", page_id=page_id,
                       phase=self._phase, read_index=index)
            raise PageReadError(page_id, self._phase, index)
        if self._stuck(index):
            # Stuck pool: bypass the buffer entirely — a guaranteed
            # fault that neither hits nor admits pages.
            self.injected["stuck_reads"] += 1
            self.stats.record(self._phase, True)
            emit_event("fault", event="disk.stuck_read", page_id=page_id,
                       phase=self._phase, read_index=index)
            return
        super().read(page_id)

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable fault-injection accounting."""
        return {
            "reads_attempted": self._reads,
            **{k: v for k, v in self.injected.items()},
        }


def inject_faults(tree, plan: FaultPlan,
                  sleep=time.sleep) -> FaultyDiskSimulator:
    """Replace ``tree.disk`` with a faulty wrapper executing ``plan``.

    The existing access statistics and buffer pool are carried over, so
    NA/PA accounting and buffer warmth are continuous across the swap.
    Returns the installed :class:`FaultyDiskSimulator`; the previous
    disk is kept on its ``replaced`` attribute for restoration.
    """
    old = tree.disk
    faulty = FaultyDiskSimulator(plan, sleep=sleep)
    faulty.stats = old.stats
    faulty._buffer = old.buffer
    faulty._phase = old._phase
    faulty.replaced = old
    tree.disk = faulty
    return faulty
