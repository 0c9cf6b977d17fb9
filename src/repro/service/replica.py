"""The replicated serving tier: routing, failover, bounded-stale reads.

:class:`ReplicaSet` fronts N independent server replicas (each a
:class:`~repro.core.server.LocationServer` or
:class:`~repro.service.shard.ShardedServer` over the same dataset) and
implements the same narrow server interface the
:class:`~repro.service.service.QueryService` talks to — so a
replicated deployment is ``QueryService(ReplicaSet.from_points(...))``
and every existing layer (cache, tracing, metrics, retries, breaker)
composes unchanged.

**Routing** — queries are routed by consistent hashing over the
quantized query location (a proxy for client affinity: a mobile client
re-querying from nearby positions keeps hitting the same replica, and
with it that replica's warm buffer pool).  Each replica owns
:data:`VIRTUAL_NODES` points on the hash ring, so when a replica is
ejected its keys redistribute evenly over the survivors.

**Health and failover** — every replica carries its own
:class:`~repro.service.faults.CircuitBreaker`.  A transient failure on
one replica records against its breaker and the query *fails over*
mid-flight to the next candidate on the ring; a tripped breaker ejects
the replica from routing until its reset timeout half-opens it.
:meth:`probe_health` issues a tiny kNN probe through each breaker — a
background health check that both detects silent death and drives
half-open recovery without user traffic.  :meth:`kill` / :meth:`revive`
are the chaos hooks (a killed replica fails like a crashed process).

**Bounded-stale reads** — replica 0 is the synchronous primary;
mutations apply to it immediately and append to every other replica's
``pending`` backlog, which drains lazily, keeping at most
``replication_lag`` mutations outstanding (0 = synchronous
replication).  A request's ``max_stale`` (default
``ReplicaConfig.default_max_stale``, default 0 = fresh reads only)
bounds the backlog length a serving replica may carry; staler replicas
are skipped.  Every stale-served answer has its validity region
conservatively shrunk against the backlog snapshot
(:func:`~repro.service.staleness.shrunk_stale_region`) so it is
provably correct **for the primary's current dataset** — when the
shrink is impossible (the answer would be wrong at the query point
itself) the replica is skipped as unserveable.  Correctness is never
traded for availability; only region size is.

Every answer is a :class:`~repro.service.staleness.ServedResponse`,
the replica's own :class:`~repro.core.api.Response` under the region
it may serve (the shrunk one when it lagged), reporting the serving
replica, the epoch actually served, the staleness, and the failover
count; the class attribute ``concurrent_safe = True`` tells the service
layer queries need no global lock (each replica serializes on its own
lock, so distinct replicas answer in parallel).
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.api import KNNRequest, Mutation, QueryRequest, query_semantics
from repro.geometry import Rect
from repro.kernel import ExecutionConfig
from repro.obs.context import emit_event
from repro.obs.context import span as obs_span
from repro.service.faults import BreakerConfig, CircuitBreaker, CircuitOpenError
from repro.service.retry import is_transient
from repro.service.shard import build_server
from repro.service.staleness import ServedResponse, shrunk_stale_region
from repro.storage.counters import AccessDelta, AccessStats

__all__ = [
    "ReplicaConfig",
    "Replica",
    "ReplicaSet",
    "NoReplicaAvailableError",
    "ReplicaDownError",
]


#: Ring points per replica; more = smoother key redistribution.
VIRTUAL_NODES = 32
#: Resolution of the location quantization used as the affinity key.
AFFINITY_GRID = 64


class NoReplicaAvailableError(RuntimeError):
    """Every replica was ejected, down, too stale, or unserveable."""

    transient = True


class ReplicaDownError(RuntimeError):
    """The routed replica is hard-killed (the chaos crash signal)."""

    transient = True

    def __init__(self, rid: int):
        super().__init__(f"replica {rid} is down")
        self.rid = rid


@dataclass(frozen=True)
class ReplicaConfig:
    """Behaviour of a :class:`ReplicaSet`.

    ``replication_lag`` bounds each non-primary replica's pending
    backlog (0 = synchronous replication); ``default_max_stale`` is the
    staleness bound applied to requests that carry none (None keeps the
    fail-safe default of fresh reads only); ``breaker`` configures the
    per-replica ejection breaker (None disables ejection).
    """

    replication_lag: int = 0
    default_max_stale: Optional[int] = None
    breaker: Optional[BreakerConfig] = field(
        default_factory=lambda: BreakerConfig(failure_threshold=3,
                                              reset_timeout_s=0.25))

    def __post_init__(self):
        if self.replication_lag < 0:
            raise ValueError("replication_lag must be non-negative")
        if self.default_max_stale is not None and self.default_max_stale < 0:
            raise ValueError("default_max_stale must be non-negative")


@dataclass
class Replica:
    """One member of the set: a server plus its health/lag state."""

    rid: int
    server: object  # LocationServer | ShardedServer (narrow interface)
    breaker: Optional[CircuitBreaker]
    pending: Deque[Mutation] = field(default_factory=deque)
    lock: threading.RLock = field(default_factory=threading.RLock)
    alive: bool = True
    queries: int = 0
    stale_served: int = 0

    @property
    def staleness(self) -> int:
        return len(self.pending)

    @property
    def state(self) -> str:
        if not self.alive:
            return "down"
        return self.breaker.state if self.breaker is not None else "closed"


class ReplicaSet:
    """N replicas answering as one fault-tolerant, bounded-stale server."""

    #: Queries serialize per replica, not globally — the service layer
    #: skips its lock and lets replicas answer in parallel.
    concurrent_safe = True

    def __init__(self, servers: Sequence[object],
                 config: Optional[ReplicaConfig] = None,
                 clock=None):
        if not servers:
            raise ValueError("a replica set needs at least one server")
        self.config = config if config is not None else ReplicaConfig()
        breaker_kwargs = {} if clock is None else {"clock": clock}
        self.replicas: List[Replica] = [
            Replica(rid=rid, server=server,
                    breaker=(CircuitBreaker(self.config.breaker,
                                            **breaker_kwargs)
                             if self.config.breaker is not None else None))
            for rid, server in enumerate(servers)
        ]
        self._mutation_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.failovers = 0
        self.ejected_skips = 0
        self.stale_skips = 0
        self.unserveable_stale = 0
        self.stale_served = 0
        self.replication_retries = 0
        self._ring = self._build_ring()
        self._closed = False
        #: Set by bind_metrics: failovers are counted, and attributed to
        #: the replica that failed, as they happen.
        self._metrics = None

    def bind_metrics(self, registry) -> None:
        """Report replica-routing counters into ``registry`` with labels.

        Failovers land in ``service.replica.failovers`` and in
        ``service.replica.failovers{replica=}`` against the *failing*
        replica, whether or not the query is finally served — the
        service layer sees only served responses — and each replica's
        sharded server (when it is one) is bound with a ``replica``
        label riding on its ``service.shard.*`` series.
        """
        self._metrics = registry
        for replica in self.replicas:
            bind = getattr(replica.server, "bind_metrics", None)
            if bind is not None:
                bind(registry, extra_labels={"replica": str(replica.rid)})

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Sequence, *, replicas: int = 2,
                    shards: int = 1, universe: Optional[Rect] = None,
                    capacity: Optional[int] = None, fill: float = 0.7,
                    buffer_fraction: float = 0.0,
                    execution: Optional[ExecutionConfig] = None,
                    config: Optional[ReplicaConfig] = None,
                    clock=None) -> "ReplicaSet":
        """Build ``replicas`` independent servers over the same data.

        Each replica owns its own tree(s), disk(s) and buffers —
        ``shards > 1`` makes every replica a ``shards``×``shards``
        :class:`~repro.service.shard.ShardedServer`.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        servers = [build_server(points, shards=shards, universe=universe,
                                capacity=capacity, fill=fill,
                                buffer_fraction=buffer_fraction,
                                execution=execution)
                   for _ in range(replicas)]
        return cls(servers, config=config, clock=clock)

    # ------------------------------------------------------------------
    # consistent-hash routing
    # ------------------------------------------------------------------
    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def _build_ring(self) -> List[Tuple[int, int]]:
        ring = [(self._hash(f"replica-{r.rid}:vn-{v}"), r.rid)
                for r in self.replicas
                for v in range(VIRTUAL_NODES)]
        ring.sort()
        return ring

    def _candidates(self, request: QueryRequest) -> List[Replica]:
        """All replicas, in ring order from the request's affinity key.

        The first entry is the preferred (affine) replica; the rest are
        the failover order.  Ejected/stale replicas are skipped by the
        caller, so keys of an ejected replica naturally fall to the
        next live node on the ring.
        """
        loc = query_semantics(request).location(request)
        cell = self.universe.grid_index((float(loc[0]), float(loc[1])),
                                        AFFINITY_GRID, AFFINITY_GRID)
        key = self._hash(f"cell-{cell[0]}:{cell[1]}")
        start = bisect_right(self._ring, (key, len(self.replicas)))
        seen = set()
        out: List[Replica] = []
        by_rid = {r.rid: r for r in self.replicas}
        for i in range(len(self._ring)):
            _h, rid = self._ring[(start + i) % len(self._ring)]
            if rid not in seen:
                seen.add(rid)
                out.append(by_rid[rid])
                if len(out) == len(self.replicas):
                    break
        return out

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            setattr(self, name, getattr(self, name) + amount)

    # ------------------------------------------------------------------
    # the query path: route -> (skip | serve | fail over)
    # ------------------------------------------------------------------
    def answer(self, request: QueryRequest) -> ServedResponse:
        """Answer via the affine replica, failing over transparently.

        Raises :class:`NoReplicaAvailableError` when every replica is
        ejected, down, too stale for the request's bound, or stale-
        unserveable; non-transient errors propagate immediately.
        """
        bound = getattr(request, "max_stale", None)
        if bound is None:
            bound = self.config.default_max_stale
        if bound is None:
            bound = 0  # fail-safe default: fresh reads only
        primary_epoch = self.epoch
        last_exc: Optional[Exception] = None
        failovers = 0
        for replica in self._candidates(request):
            if replica.breaker is not None:
                try:
                    replica.breaker.before_call()
                except CircuitOpenError as exc:
                    self._count("ejected_skips")
                    last_exc = exc
                    continue
            outcome, payload = self._try_replica(replica, request, bound,
                                                 failovers)
            if outcome == "served":
                return payload
            if outcome == "stale_skip":
                self._count("stale_skips")
                emit_event("replica", event="replica.stale_skip",
                           rid=replica.rid, staleness=payload, bound=bound)
                continue
            if outcome == "unserveable":
                self._count("unserveable_stale")
                emit_event("replica", event="replica.stale_unserveable",
                           rid=replica.rid, staleness=payload)
                continue
            # outcome == "failed": transient failure, fail over.
            last_exc = payload
            failovers += 1
            self._count("failovers")
            if self._metrics is not None:
                self._metrics.counter("service.replica.failovers").inc()
                self._metrics.counter(
                    "service.replica.failovers",
                    labels={"replica": str(replica.rid)}).inc()
            emit_event("replica", event="replica.failover", rid=replica.rid,
                       error=f"{type(payload).__name__}: {payload}")
        if last_exc is not None:
            raise last_exc
        raise NoReplicaAvailableError(
            f"no replica can serve within staleness bound {bound}")

    def _try_replica(self, replica: Replica, request: QueryRequest,
                     bound: int, failovers: int):
        """One serving attempt; returns ``(outcome, payload)``.

        Outcomes: ``("served", ServedResponse)``, ``("failed", exc)``
        for transient failures (non-transient ones raise through),
        ``("stale_skip", staleness)``, ``("unserveable", staleness)``.
        """
        with obs_span(f"replica_{replica.rid}",
                      meta={"rid": replica.rid}) as span_:
            try:
                with replica.lock:
                    if not replica.alive:
                        raise ReplicaDownError(replica.rid)
                    backlog = list(replica.pending)
                    staleness = len(backlog)
                    if staleness > bound:
                        return "stale_skip", staleness
                    served_epoch = replica.server.epoch
                    with replica.server.io_stats.measure() as io:
                        response = replica.server.answer(request)
            except Exception as exc:
                if not is_transient(exc):
                    raise
                if replica.breaker is not None:
                    replica.breaker.record_failure()
                return "failed", exc
            if replica.breaker is not None:
                replica.breaker.record_success()
            if span_ is not None:
                span_.meta.update({
                    "staleness": staleness,
                    "node_accesses": io.total_node_accesses,
                })
            if backlog:
                region = shrunk_stale_region(request, response, backlog,
                                             self.universe)
                if region is None:
                    self._discard_io(io)
                    return "unserveable", staleness
                response = replace(response, region=region)
                replica.stale_served += 1
                self._count("stale_served")
                emit_event("replica", event="replica.stale_served",
                           rid=replica.rid, staleness=staleness)
            replica.queries += 1
            return "served", ServedResponse(
                **vars(response), replica_id=replica.rid,
                epoch=served_epoch, staleness=staleness,
                # The shrink accounts for the whole backlog snapshot, so
                # the answer is valid at the primary epoch it implies.
                valid_for_epoch=served_epoch + staleness,
                failovers=failovers,
                node_accesses=io.node_accesses,
                page_faults=io.page_faults)

    def _discard_io(self, io: AccessDelta) -> None:
        """Charge the reads of an answer that was computed and then
        dropped as stale-unserveable, or of a health probe, to the
        ``service.replica.discarded_*{phase=}`` counters — never to a
        served query, so per-query node accesses keep their meaning."""
        if self._metrics is None:
            return
        for phase, count in io.node_accesses.items():
            self._metrics.counter("service.replica.discarded_node_accesses",
                                  labels={"phase": phase}).inc(count)
        for phase, count in io.page_faults.items():
            self._metrics.counter("service.replica.discarded_page_faults",
                                  labels={"phase": phase}).inc(count)

    # ------------------------------------------------------------------
    # mutations: synchronous primary, lazily-draining replicas
    # ------------------------------------------------------------------
    def insert_object(self, oid: int, x: float, y: float) -> None:
        with self._mutation_lock:
            primary = self.replicas[0]
            with primary.lock:
                primary.server.insert_object(oid, x, y)
            self._replicate(Mutation("insert", int(oid), float(x), float(y)))

    def delete_object(self, oid: int, x: float, y: float) -> bool:
        with self._mutation_lock:
            primary = self.replicas[0]
            with primary.lock:
                removed = primary.server.delete_object(oid, x, y)
            if removed:  # only mutations that actually happened replicate
                self._replicate(
                    Mutation("delete", int(oid), float(x), float(y)))
            return removed

    def _replicate(self, mutation: Mutation) -> None:
        lag = self.config.replication_lag
        for replica in self.replicas[1:]:
            with replica.lock:
                replica.pending.append(mutation)
                if not replica.alive:
                    continue  # backlog accrues; revive() catches up
                while len(replica.pending) > lag:
                    head = replica.pending.popleft()
                    try:
                        self._apply_locked(replica, head)
                    except Exception:
                        # A faulty follower must not poison the write
                        # path: re-queue in order and stop — the replica
                        # is simply more stale (reads skip or shrink),
                        # and the next mutation or sync() retries.
                        replica.pending.appendleft(head)
                        self._count("replication_retries")
                        emit_event("replica", event="replica.apply_failed",
                                   rid=replica.rid, op=mutation.op)
                        break

    @staticmethod
    def _apply_locked(replica: Replica, mutation: Mutation) -> None:
        if mutation.op == "insert":
            replica.server.insert_object(mutation.oid, mutation.x, mutation.y)
        else:
            replica.server.delete_object(mutation.oid, mutation.x, mutation.y)

    def sync(self) -> None:
        """Drain every replica's backlog (replication barrier)."""
        for replica in self.replicas[1:]:
            with replica.lock:
                while replica.pending:
                    self._apply_locked(replica, replica.pending.popleft())

    # ------------------------------------------------------------------
    # health: probes and the chaos hooks
    # ------------------------------------------------------------------
    def probe_health(self) -> List[Dict[str, object]]:
        """Probe every replica with a tiny kNN query through its breaker.

        Failures record against the breaker (driving ejection of a dead
        replica without waiting for user traffic to hit it); successes
        drive half-open recovery.  No query owns a probe's reads, so
        they go to ``service.replica.discarded_*{phase=}``.  Returns
        per-replica status rows.
        """
        center = ((self.universe.xmin + self.universe.xmax) / 2.0,
                  (self.universe.ymin + self.universe.ymax) / 2.0)
        out = []
        for replica in self.replicas:
            status = "ok"
            if replica.breaker is not None:
                try:
                    replica.breaker.before_call()
                except CircuitOpenError:
                    out.append(self._health_row(replica, "ejected"))
                    continue
            try:
                with replica.lock:
                    if not replica.alive:
                        raise ReplicaDownError(replica.rid)
                    with replica.server.io_stats.measure() as io:
                        replica.server.answer(KNNRequest(center))
                    self._discard_io(io)
            except Exception as exc:
                status = "failed"
                if replica.breaker is not None and is_transient(exc):
                    replica.breaker.record_failure()
            else:
                if replica.breaker is not None:
                    replica.breaker.record_success()
            out.append(self._health_row(replica, status))
        return out

    def _health_row(self, replica: Replica, status: str) -> Dict[str, object]:
        return {
            "rid": replica.rid,
            "status": status,
            "alive": replica.alive,
            "state": replica.state,
            "staleness": replica.staleness,
        }

    def kill(self, rid: int) -> None:
        """Chaos hook: hard-kill a replica (requests to it fail)."""
        replica = self._by_rid(rid)
        replica.alive = False
        emit_event("replica", event="replica.kill", rid=rid)

    def revive(self, rid: int) -> None:
        """Chaos hook: bring a killed replica back, catching up its
        backlog first (a rejoining replica re-syncs before serving)."""
        replica = self._by_rid(rid)
        with replica.lock:
            while replica.pending:
                self._apply_locked(replica, replica.pending.popleft())
            replica.alive = True
        emit_event("replica", event="replica.revive", rid=rid)

    def _by_rid(self, rid: int) -> Replica:
        for replica in self.replicas:
            if replica.rid == rid:
                return replica
        raise KeyError(f"no replica {rid}")

    # ------------------------------------------------------------------
    # the narrow server interface (what QueryService composes against)
    # ------------------------------------------------------------------
    @property
    def _primary(self) -> Replica:
        return self.replicas[0]

    @property
    def epoch(self) -> int:
        return self._primary.server.epoch

    @property
    def universe(self) -> Rect:
        return self._primary.server.universe

    @property
    def num_points(self) -> int:
        return self._primary.server.num_points

    @property
    def num_pages(self) -> int:
        return self._primary.server.num_pages

    @property
    def queries_processed(self) -> int:
        return sum(r.server.queries_processed for r in self.replicas)

    @property
    def io_stats(self) -> AccessStats:
        merged = AccessStats()
        for r in self.replicas:
            merged.merge(r.server.io_stats)
        return merged

    def reset_io_stats(self) -> None:
        for r in self.replicas:
            r.server.reset_io_stats()

    def disk_snapshot(self) -> Dict[str, object]:
        """Aggregated disk state plus the per-replica breakdown."""
        out = {
            "stats": self.io_stats.as_dict(),
            "buffer": None,
            "replicas": self.replica_snapshot(),
        }
        primary_snap = self._primary.server.disk_snapshot()
        if "shards" in primary_snap:
            out["shards"] = primary_snap["shards"]
        return out

    def replica_snapshot(self) -> List[Dict[str, object]]:
        """JSON-serializable per-replica health/lag/traffic rows."""
        rows = []
        for r in self.replicas:
            rows.append({
                "rid": r.rid,
                "alive": r.alive,
                "state": r.state,
                "staleness": r.staleness,
                "epoch": r.server.epoch,
                "queries": r.queries,
                "stale_served": r.stale_served,
                "breaker": (r.breaker.snapshot()
                            if r.breaker is not None else None),
            })
        return rows

    def snapshot(self) -> Dict[str, object]:
        """Set-level counters plus the per-replica rows."""
        return {
            "replicas": self.replica_snapshot(),
            "epoch": self.epoch,
            "failovers": self.failovers,
            "ejected_skips": self.ejected_skips,
            "stale_skips": self.stale_skips,
            "stale_served": self.stale_served,
            "unserveable_stale": self.unserveable_stale,
            "replication_retries": self.replication_retries,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down every replica's worker pools (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for r in self.replicas:
            close = getattr(r.server, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
