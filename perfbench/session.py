"""One assembled stack driven by one seeded crowd: the load loop.

The loop is closed: one position update at a time, each sent when the
previous one returned.  Only the calls into the program are timed:
updates through ``MobileClient`` and mutations through
``QueryService``.  Trajectory steps, mutation picking and oracle checks
happen between timed intervals.

Times are kept in reference-speed seconds.  The speed of a shared
virtual CPU is not steady: on a 2-vCPU VM it flips between two levels
about 2x apart every few tens of milliseconds (thread CPU time slows
as much, so it is not stolen time), which would swamp every difference
between two versions of the program.  So a fixed pure-Python probe is timed
between every two updates, and each update (with its mutation) is
scaled by ``REFERENCE_PROBE_S`` over the mean of the probes just before
and just after it: at the reference speed the scale is 1 and times are
plain wall-clock times.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional

from perfbench.oracle import DatasetMirror, check_answer
from perfbench.workloads import (
    Crowd,
    MutationScript,
    Workload,
    client_update,
    request_for,
)


#: The probe's duration at the reference speed (2-vCPU x86-64 VM,
#: Python 3.11, the slower of its two usual speeds), seconds.
REFERENCE_PROBE_S = 130e-6


def speed_probe() -> float:
    """Seconds the fixed probe takes now."""
    start = perf_counter()
    acc = {}
    for i in range(400):
        key = i % 23
        acc[key] = acc.get(key, 0.0) + (i * 0.5) ** 0.5
    sorted(acc.items())
    return perf_counter() - start


@dataclass
class Counts:
    """Deterministic protocol counts at some point of a run."""

    updates: int = 0
    server_queries: int = 0
    bytes: int = 0
    node_accesses: int = 0


class Session:
    """The seeded crowd (and mutation script) over one service."""

    def __init__(self, workload: Workload, seed: int, points, service):
        self.workload = workload
        self.service = service
        self.mirror = DatasetMirror(points)
        self.crowd = Crowd(workload, points, service, seed)
        self.mutations = (MutationScript(workload, points, seed)
                          if workload.mutate_every else None)
        #: Client-observed seconds of updates that needed the server.
        self.server_latency: List[float] = []
        #: Seconds of every successful update.
        self.latency: List[float] = []
        #: Seconds spent in the program up to the end of each update
        #: (its mutation included).
        self.cum_busy: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.checked: Counter = Counter()
        self.incorrect: List[str] = []
        #: Seconds spent inside the program (updates and mutations).
        self.busy = 0.0
        #: Reference seconds per wall-clock second, per update.
        self.scales: List[float] = []
        self.prefix: Optional[Counts] = None

    # -- one step --------------------------------------------------------
    def _call(self, i: int):
        """Advance slot ``i % C`` and time its client's update."""
        c = i % self.workload.clients
        kind = self.crowd.kinds[c]
        client, pos = self.crowd.step(c)
        start = perf_counter()
        try:
            answer = client_update(client, kind, self.workload, pos)
            error = None
        except Exception as exc:  # counted as failed; the run goes on
            answer, error = None, exc
        end = perf_counter()
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors[type(error).__name__] += 1
        return client, kind, pos, answer, error, start, end

    def _check(self, i: int, client, kind: str, pos, answer) -> None:
        if answer is None or i % self.workload.check_every:
            return
        self.checked[_origin(client, kind)] += 1
        problem = check_answer(self.mirror,
                               request_for(kind, self.workload, pos), answer)
        if problem is not None:
            self.incorrect.append(f"update {i}: {problem}")

    def _mutate(self, i: int) -> float:
        """The mutation due after update ``i``, if any; its wall seconds."""
        if self.mutations is None or (i + 1) % self.workload.mutate_every:
            return 0.0
        op, oid, x, y = self.mutations.next(self.crowd.positions())
        start = perf_counter()
        try:
            if op == "insert":
                self.service.insert_object(oid, x, y)
                done = True
            else:
                done = self.service.delete_object(oid, x, y)
        except Exception as exc:  # counted as failed; the run goes on
            done = None
            self.errors[f"{op}:{type(exc).__name__}"] += 1
        took = perf_counter() - start
        self.attempted += 1
        if not done:
            self.failed += 1
            if done is False:
                self.errors[f"{op}:refused"] += 1
            return took
        if op == "insert":
            self.mirror.insert(oid, x, y)
        else:
            self.mirror.delete(oid)
        return took

    def counts(self) -> Counts:
        stats = self.crowd.stats()
        return Counts(
            updates=stats.position_updates,
            server_queries=stats.server_queries,
            bytes=stats.bytes_received,
            node_accesses=self.service.metrics.counter_total(
                "service.node_accesses"))

    # -- the loop --------------------------------------------------------
    def run(self, seconds: float, prefix: int, deadline: float) -> None:
        """One update at a time until ``prefix`` updates are done and
        ``seconds`` were spent in the program (or ``deadline`` passes)."""
        before = speed_probe()
        i = 0
        while (i < prefix or self.busy < seconds) and perf_counter() < deadline:
            client, kind, pos, answer, error, start, end = self._call(i)
            after = speed_probe()
            scale = 2.0 * REFERENCE_PROBE_S / (before + after)
            before = after
            self.scales.append(scale)
            self._check(i, client, kind, pos, answer)
            mutation = self._mutate(i)
            took = (end - start) * scale
            self.busy += took + mutation * scale
            if error is None:
                self.latency.append(took)
                if client.last_served == "server":
                    self.server_latency.append(took)
            self.cum_busy.append(self.busy)
            i += 1
            if i == prefix:
                self.prefix = self.counts()
        if self.prefix is None:  # stopped by the deadline
            self.prefix = self.counts()

    def close(self) -> None:
        self.crowd.close()
        self.service.close()


def _origin(client, kind: str) -> str:
    """How the checked answer reached the client."""
    served = client.last_served
    entry = client.cache_entry(kind)
    response = entry.response if entry is not None else None
    if served == "stale":
        return "client-stale"
    if getattr(response, "staleness", 0):
        return "replica-stale"
    detail = getattr(response, "detail", None)
    if served == "cache" and getattr(detail, "origin", None) == "patch":
        return "push-patch"
    return "client-cache" if served == "cache" else "server"


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: The tail quantile reported, and the samples it needs beyond it.
_TAIL_Q = 0.99
_TAIL_BEYOND = 10


def tail_quantile(n: int) -> float:
    """The highest quantile up to p99 with ten of ``n`` samples past it."""
    if n <= _TAIL_BEYOND:
        return 0.5
    return max(0.5, min(_TAIL_Q, 1.0 - _TAIL_BEYOND / n))

