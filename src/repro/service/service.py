"""The instrumented query service: a concurrent front-end to the server.

:class:`QueryService` is what a deployment puts between its fleet of
mobile clients and a :class:`~repro.core.server.LocationServer`.  Every
query runs under a propagated trace context
(:func:`repro.obs.context.start_trace`): the service opens the trace,
the layers below — cache probe, scatter-gather shard workers, the
R*-tree's simulated disk — attach their own child spans to it, and the
record the trace opened, a :class:`~repro.obs.context.QueryTrace`, is
finished and retained with its span *tree*.  Alongside the trace, each
stage emits structured events into the service's
:class:`~repro.obs.events.EventLog` (query start/finish, cache
hit/miss, shard scatter, retries, breaker transitions, disk faults),
and counters and latency/bytes histograms land in one
:class:`~repro.obs.metrics.MetricsRegistry` shared by every layer.

Concurrency model: the service accepts requests from any number of
threads; the index/disk portion of each query runs under the service
lock (the paper's server owns a single simulated disk, whose phase
attribution and buffer state are inherently serial — a
:class:`~repro.service.shard.ShardedServer` parallelizes *inside* that
critical section across its per-shard disks), while cache checks,
serialization accounting, metrics and tracing happen outside it.
:meth:`answer_many` answers a whole batch through an executor — the
per-tick dispatch unit the simulated fleet uses.

With a :class:`~repro.service.cache.ValidityCache` attached, every
cacheable request is first probed against the cached validity regions
(the ``cache_probe`` span): a hit is served with **zero node
accesses** — it never reaches the server, the breaker, or the retry
loop, which also means a warm cache keeps absorbing traffic while the
disk is tripped open.  Misses execute normally and the response is
admitted under the region it carries.

The service quacks like a :class:`LocationServer` where it matters
(``answer``, ``epoch``, updates), so a
:class:`~repro.core.client.MobileClient` can be pointed straight at it
and every query it issues is traced and metered.  It talks to the
server only through the narrow instrumentation interface
(``answer`` / ``io_stats`` / ``disk_snapshot`` / ``num_points``), so
any server implementing it — the single-tree
:class:`LocationServer` or the sharded scatter-gather fleet — slots in
unchanged; :func:`build_service` assembles the whole stack from raw
points.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from concurrent.futures import Executor
from dataclasses import dataclass, is_dataclass, replace
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.api import (
    Mutation,
    QueryBudget,
    QueryRequest,
    Response,
    query_semantics,
)
from repro.core.server import LocationServer
from repro.core.validity import CompositeValidityRegion, ValidityDisk
from repro.geometry import Rect
from repro.kernel import ExecutionConfig
from repro.obs.context import (
    QueryTrace,
    TraceContext,
    emit_event,
    start_trace,
)
from repro.obs.events import EventLog
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.slo import SLOEngine
from repro.service.continuous import (
    ContinuousConfig,
    Subscription,
    SubscriptionHub,
)
from repro.service.admission import (
    LEVEL_CACHE_ONLY,
    LEVEL_NAMES,
    LEVEL_NORMAL,
    LEVEL_REDUCED,
    LEVEL_REJECT,
    AdmissionConfig,
    AdmissionController,
    AdmissionRejectedError,
)
from repro.service.cache import CacheConfig, ValidityCache
from repro.service.faults import BreakerConfig, CircuitBreaker, CircuitOpenError
from repro.service.replica import ReplicaConfig, ReplicaSet
from repro.service.retry import (
    RetryBudget,
    RetryBudgetConfig,
    RetryPolicy,
    is_transient,
)
from repro.service.shard import build_server
from repro.service.tracing import TailSamplingConfig, TraceBuffer

__all__ = ["QueryService", "ResilienceConfig", "build_service"]


class _Executed(NamedTuple):
    """The execute stage's outcome: the server's answer, the reads of
    the attempt that produced it, and the epoch it is valid for."""

    response: Response
    node_accesses: Dict[str, int]
    page_faults: Dict[str, int]
    epoch: int


@dataclass(frozen=True)
class ResilienceConfig:
    """How a :class:`QueryService` behaves when the disk misbehaves.

    ``retry`` governs transparent retries of transient failures;
    ``breaker`` (None disables it) isolates the server once failures
    persist; ``default_budget`` is applied to every request that does
    not carry its own, turning overload into degraded responses rather
    than latency pileups.  ``seed`` makes the retry jitter reproducible.

    ``retry_budget`` (None disables it) caps *total* retries per
    rolling window across all queries, so concurrent failures — a
    replica dying under load — cannot amplify into a retry storm.
    ``admission`` (None disables it) puts the
    :class:`~repro.service.admission.AdmissionController` in front of
    execution: a concurrency/queue gate with deadline-aware fast
    reject and the graded brownout ladder.
    """

    retry: RetryPolicy = RetryPolicy()
    breaker: Optional[BreakerConfig] = BreakerConfig()
    default_budget: Optional[QueryBudget] = None
    seed: int = 0
    retry_budget: Optional[RetryBudgetConfig] = None
    admission: Optional[AdmissionConfig] = None


class QueryService:
    """An instrumented, thread-safe facade over a :class:`LocationServer`."""

    def __init__(self, server: LocationServer,
                 metrics: Optional[MetricsRegistry] = None,
                 trace_capacity: int = 256,
                 resilience: Optional[ResilienceConfig] = None,
                 cache: Optional[ValidityCache] = None,
                 events: Optional[EventLog] = None,
                 continuous: Optional[ContinuousConfig] = None,
                 slo: Optional[SLOEngine] = None,
                 tail: Optional[TailSamplingConfig] = None,
                 profile=False,
                 sleep=time.sleep):
        self.server = server
        self.cache = cache
        self.continuous = continuous
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: The structured event log every traced stage reports into.
        self.events = events if events is not None else EventLog()
        # Layers that meter themselves (shard fan-out workers, replica
        # routing) report into the service registry with their own
        # label dimensions; the replica tier logs its lifecycle events,
        # which no query's trace carries, into the service's event log.
        bind = getattr(server, "bind_metrics", None)
        if bind is not None:
            bind(self.metrics)
        bind_events = getattr(server, "bind_events", None)
        if bind_events is not None:
            bind_events(self.events)
        #: The SLO engine, if objectives are declared: every finished or
        #: failed query is observed, and its recommended brownout level
        #: becomes the admission controller's floor (see _slo_tick).
        self.slo = slo
        if self.slo is not None and self.slo.metrics is None:
            self.slo.metrics = self.metrics
        self.traces = TraceBuffer(trace_capacity, tail=tail)
        if self.slo is not None and tail is not None:
            self.traces.violation_check = self.slo.latency_violation
        #: The phase profiler (a PhaseProfiler, or truthy for defaults):
        #: finished span trees are folded into per-phase self-time.
        if isinstance(profile, PhaseProfiler):
            self.profiler: Optional[PhaseProfiler] = profile
        else:
            self.profiler = PhaseProfiler() if profile else None
        self.resilience = resilience
        self.breaker: Optional[CircuitBreaker] = None
        if resilience is not None and resilience.breaker is not None:
            self.breaker = CircuitBreaker(resilience.breaker)
        self.retry_budget: Optional[RetryBudget] = None
        if resilience is not None and resilience.retry_budget is not None:
            self.retry_budget = RetryBudget(resilience.retry_budget)
        self.admission: Optional[AdmissionController] = None
        if resilience is not None and resilience.admission is not None:
            self.admission = AdmissionController(resilience.admission)
        self._retry_rng = random.Random(
            resilience.seed if resilience is not None else 0)
        self._rng_lock = threading.Lock()
        self._sleep = sleep
        self._lock = threading.RLock()
        #: Serializes whole mutations (server apply + cache fix-up +
        #: subscription fan-out) so surgical epoch re-stamping and push
        #: ordering both see one-step epoch transitions.
        self._mutation_lock = threading.Lock()
        self._hub: Optional[SubscriptionHub] = None
        self._hub_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # the LocationServer surface clients rely on
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.server.epoch

    @property
    def universe(self):
        return self.server.universe

    def insert_object(self, oid: int, x: float, y: float) -> None:
        with self._mutation_lock:
            if getattr(self.server, "concurrent_safe", False):
                self.server.insert_object(oid, x, y)
            else:
                with self._lock:
                    self.server.insert_object(oid, x, y)
            self._after_mutation("insert", oid, x, y)
        self.metrics.counter("service.updates.insert").inc()

    def delete_object(self, oid: int, x: float, y: float) -> bool:
        with self._mutation_lock:
            if getattr(self.server, "concurrent_safe", False):
                removed = self.server.delete_object(oid, x, y)
            else:
                with self._lock:
                    removed = self.server.delete_object(oid, x, y)
            if removed:
                self._after_mutation("delete", oid, x, y)
        self.metrics.counter("service.updates.delete").inc()
        return removed

    def _after_mutation(self, op: str, oid: int, x: float, y: float) -> None:
        """Cache fix-up + subscription fan-out for one applied mutation.

        Runs under the mutation lock: surgical invalidation re-stamps
        survivors to the post-mutation epoch, and subscription pushes
        are enqueued — in mutation order — before the mutating call
        returns.
        """
        if self.cache is not None:
            dropped = self.cache.invalidate_mutation(
                op, oid, x, y, epoch=self.server.epoch)
            self.metrics.counter("service.cache.surgical_drops").inc(dropped)
        if self._hub is not None:
            self._hub.notify(Mutation(op, int(oid), float(x), float(y)))

    # ------------------------------------------------------------------
    # continuous queries (server push)
    # ------------------------------------------------------------------
    def subscribe(self, request: QueryRequest, *,
                  queue_capacity: Optional[int] = None) -> Subscription:
        """Register ``request`` as a continuous query (server push).

        The initial fetch runs through the full traced/resilient
        :meth:`answer` path (kNN requests are widened by the configured
        margin); afterwards every applied mutation is folded into the
        subscription state and pushed — as an O(delta) patch carrying
        the complete latest result + region, or an invalidation when
        the margin is exhausted — over the subscription's bounded
        queue.  See :mod:`repro.service.continuous`.
        """
        return self._ensure_hub().subscribe(
            request, queue_capacity=queue_capacity)

    @property
    def hub(self) -> Optional[SubscriptionHub]:
        """The push hub, if any subscription was ever registered."""
        return self._hub

    def _ensure_hub(self) -> SubscriptionHub:
        with self._hub_lock:
            if self._hub is None:
                self._hub = SubscriptionHub(
                    self, config=self.continuous, metrics=self.metrics,
                    events=self.events)
        return self._hub

    # ------------------------------------------------------------------
    # the request path: admit -> probe -> execute -> price -> record
    # ------------------------------------------------------------------
    def answer(self, request: QueryRequest) -> Response:
        """Answer one typed request, tracing and metering it.

        Five stages run in order under the query's one trace: admit,
        probe (the validity cache), execute (a cache miss only: the
        admission gate, and the circuit breaker and retries around one
        server pass), price and record.  Budget-exhausted (degraded)
        responses are successes: correct results, shrunk regions.
        """
        kind = getattr(request, "kind", type(request).__name__)
        trace_id = (getattr(request, "trace_id", None)
                    or f"q-{next(self._ids)}")
        with start_trace(trace_id, events=self.events, kind=kind) as ctx:
            request, level = self._admit(request, kind, ctx.trace)
            response = self._probe(request, kind, level, ctx)
            executed = None
            if response is None:
                executed = self._execute(request, kind, level, ctx)
                response = executed.response
            self._price(response, executed, kind, ctx)
            self._record(request, response, executed, kind, ctx.trace)
            return response

    def _admit(self, request: QueryRequest, kind: str,
               trace: QueryTrace) -> Tuple[QueryRequest, int]:
        """Stage 1: refuse a request no registered kind answers or that
        is not a dataclass (budgets are set with ``replace``), apply the
        default budget, and sample the brownout level — once per query,
        so one request sees one consistent shedding policy."""
        emit_event("query", event="query.start", kind=kind)
        default = (self.resilience.default_budget
                   if self.resilience is not None else None)
        try:
            query_semantics(request)
            if not is_dataclass(request):
                raise TypeError(f"not a request dataclass: {request!r}")
            if default is not None and getattr(request, "budget",
                                               None) is None:
                request = replace(request, budget=default)
        except TypeError as exc:
            self._fail(trace, kind, exc)
        level = LEVEL_NORMAL
        if self.admission is not None:
            level = self.admission.level()
            self.metrics.gauge("service.admission.level").set(level)
            if level >= LEVEL_REJECT:
                self._shed(trace, kind, AdmissionRejectedError(
                    "brownout: shedding all load"))
        return request, level

    def _probe(self, request: QueryRequest, kind: str, level: int,
               ctx: TraceContext) -> Optional[Response]:
        """Stage 2: the cache front door.  A hit never touches the
        server, the breaker, or the retry loop — zero node accesses, by
        contract; a ``cache_only`` brownout shrinks its region."""
        if self.cache is None:
            return None
        start = perf_counter()
        cached = self.cache.probe(request, self.server.epoch)
        ctx.add_span("cache_probe",
                     offset_ms=(start - ctx.trace.monotonic_origin) * 1e3,
                     duration_ms=(perf_counter() - start) * 1e3,
                     meta={"hit": cached is not None})
        if cached is None:
            self.metrics.counter("service.cache.misses").inc()
            emit_event("cache", event="cache.miss", kind=kind)
            return None
        self._count("service.cache.hits", kind)
        emit_event("cache", event="cache.hit", kind=kind)
        # Only the distance order of kNN hits can differ at the new
        # point; re-ranking keeps a replica's annotation.
        response = query_semantics(request).serve_cached(request, cached)
        if level >= LEVEL_CACHE_ONLY:
            response = self._brownout_shrink(request, response, kind)
        self.metrics.gauge("service.cache.size").set(len(self.cache))
        return response

    def _execute(self, request: QueryRequest, kind: str, level: int,
                 ctx: TraceContext) -> _Executed:
        """Stage 3: run a cache miss on the server and admit its answer.

        A miss under a cache-only brownout never executes — that is the
        whole point of the level: the disk is saturated.  Otherwise the
        admission gate takes a slot (fast reject when it cannot), a
        ``reduced`` brownout clamps the budget, and the breaker-and-retry
        loop runs :meth:`_execute_once`.
        """
        trace = ctx.trace
        if level >= LEVEL_CACHE_ONLY:
            self._shed(trace, kind, AdmissionRejectedError(
                "brownout: cache-only, request missed"))
        acquired = False
        if self.admission is not None:
            budget = getattr(request, "budget", None)
            gate_start = exec_start = perf_counter()
            try:
                wait_ms = self.admission.try_acquire(deadline_ms=(
                    budget.deadline_ms if budget is not None else None))
            except AdmissionRejectedError as exc:
                # Fast reject: meter how fast (the <1ms contract).
                self.metrics.histogram("service.admission.reject_ms").record(
                    (perf_counter() - gate_start) * 1e3)
                self._shed(trace, kind, exc)
            acquired = True
        # Everything past the acquire runs under the finally that
        # releases the slot — a failure anywhere here must not leak
        # admission concurrency.
        try:
            if acquired:
                self.metrics.counter("service.admission.accepted").inc()
                if wait_ms > 0.0:
                    ctx.add_span("admission_wait", offset_ms=(
                        gate_start - trace.monotonic_origin) * 1e3,
                        duration_ms=wait_ms)
                    self.metrics.histogram(
                        "service.admission.wait_ms").record(wait_ms)
                if level >= LEVEL_REDUCED:
                    request = self._brownout_budget(request, kind)
                exec_start = perf_counter()
            executed = self._retrying(request, kind, ctx)
        finally:
            if acquired:
                self.admission.release((perf_counter() - exec_start) * 1e3)
        if self.cache is not None:
            self.cache.admit(request, executed.response, executed.epoch)
            self.metrics.gauge("service.cache.size").set(len(self.cache))
        return executed

    def _retrying(self, request: QueryRequest, kind: str,
                  ctx: TraceContext) -> _Executed:
        """The breaker-and-retry loop around :meth:`_execute_once`.

        An open breaker rejects before any attempt.  A transient failure
        counts against the breaker and is retried while attempts and the
        retry budget last — never an admission rejection or an open
        breaker: retrying into either only deepens the problem.
        """
        breaker = self.breaker
        retry = self.resilience.retry if self.resilience is not None else None
        for attempt in itertools.count():
            if breaker is not None:
                try:
                    breaker.before_call()
                except CircuitOpenError as exc:
                    self.metrics.counter("service.breaker.rejections").inc()
                    emit_event("breaker", event="breaker.reject", kind=kind)
                    self._fail(ctx.trace, kind, exc)
            try:
                executed = self._execute_once(request)
            except Exception as exc:
                transient = is_transient(exc)
                if breaker is not None and transient:
                    if breaker.record_failure():
                        emit_event("breaker", event="breaker.trip",
                                   trips=breaker.trips)
                    if breaker.trips:
                        self.metrics.gauge("service.breaker.trips").set(
                            breaker.trips)
                if not (transient and retry is not None
                        and attempt + 1 < retry.max_attempts
                        and not isinstance(exc, (AdmissionRejectedError,
                                                 CircuitOpenError))
                        and self._spend_retry(kind)):
                    self._fail(ctx.trace, kind, exc)
                self._backoff(retry, attempt, exc, kind, ctx)
                continue
            if breaker is not None and breaker.record_success():
                emit_event("breaker", event="breaker.recover",
                           recoveries=breaker.recoveries)
            return executed

    def _spend_retry(self, kind: str) -> bool:
        """Take one retry from the service-wide budget, if there is one."""
        if self.retry_budget is None or self.retry_budget.try_spend():
            return True
        self.metrics.counter("service.retry_budget.exhausted").inc()
        emit_event("retry", event="retry.budget_exhausted", kind=kind)
        return False

    def _backoff(self, retry: RetryPolicy, attempt: int, exc: Exception,
                 kind: str, ctx: TraceContext) -> None:
        """Trace, meter and sleep the backoff before retry ``attempt + 1``."""
        with self._rng_lock:
            delay = retry.backoff_s(attempt, self._retry_rng)
        self._count("service.retries", kind)
        trace = ctx.trace
        trace.retries += 1
        error = f"{type(exc).__name__}: {exc}"
        ctx.add_span("retry_backoff",
                     offset_ms=(perf_counter() - trace.monotonic_origin) * 1e3,
                     duration_ms=delay * 1e3,
                     meta={"attempt": attempt + 1, "error": error})
        emit_event("retry", event="query.retry", attempt=attempt + 1,
                   delay_ms=delay * 1e3, error=error)
        if delay > 0.0:
            self._sleep(delay)

    def _price(self, response: Response, executed: Optional[_Executed],
               kind: str, ctx: TraceContext) -> None:
        """Stage 4: charge the trace what the query cost — the executed
        attempt's reads (a cache hit read nothing), its clip time, the
        serialized payload — then finish and keep it."""
        trace = ctx.trace
        if executed is not None:
            trace.node_accesses = executed.node_accesses
            trace.page_faults = executed.page_faults
            clip_seconds = getattr(executed.response.detail,
                                   "clip_seconds", 0.0)
            if clip_seconds:
                # Clipping runs between TPNN probes, so its time is part
                # of the (last attempt's) probing span.
                probing = next((s for s in reversed(trace.spans)
                                if s.name == "tpnn_probing"), None)
                if probing is not None:
                    ctx.add_span("bisector_clipping",
                                 offset_ms=probing.offset_ms,
                                 duration_ms=clip_seconds * 1e3,
                                 parent_id=probing.span_id)
        # Serialization: size the payload that would go on the wire.
        start = perf_counter()
        transfer = response.transfer_bytes()
        trace.result_size = (
            len(response.result) if response.added is None
            else len(response.added) + len(response.removed_ids))
        ctx.add_span("serialization",
                     offset_ms=(start - trace.monotonic_origin) * 1e3,
                     duration_ms=(perf_counter() - start) * 1e3,
                     meta={"transfer_bytes": transfer})
        trace.transfer_bytes = transfer
        trace.degraded = bool(getattr(response.detail, "degraded", False))
        if trace.degraded:
            emit_event("degraded", event="query.degraded", kind=kind)
        self._keep(trace)

    def _record(self, request: QueryRequest, response: Response,
                executed: Optional[_Executed], kind: str,
                trace: QueryTrace) -> None:
        """Stage 5: meter the finished query, observe it for the SLOs and
        log ``query.finish``.

        The fan-out shape, the replica that answered and how stale it
        was come from the execute stage's outcome only: a cache hit ran
        no shard and no replica.
        """
        m = self.metrics
        by_kind = {"query_kind": kind}
        self._count("service.queries", kind)
        if getattr(request, "previous_ids", None) is not None:
            m.counter("service.queries.delta", labels=by_kind).inc()
        if trace.degraded:
            self._count("service.degraded", kind)
        m.counter("service.bytes_on_wire").inc(trace.transfer_bytes)
        m.histogram(
            "service.latency_ms",
            labels={"query_kind": kind,
                    "degraded": "true" if trace.degraded else "false"},
            buckets=DEFAULT_LATENCY_BUCKETS_MS).record(trace.duration_ms)
        m.histogram("service.transfer_bytes", labels=by_kind).record(
            trace.transfer_bytes)
        m.histogram("service.result_size", labels=by_kind).record(
            trace.result_size)
        for phase, count in trace.node_accesses.items():
            m.counter("service.node_accesses",
                      labels={"phase": phase}).inc(count)
        for phase, count in trace.page_faults.items():
            m.counter("service.page_faults",
                      labels={"phase": phase}).inc(count)
        served = executed.response if executed is not None else None
        # Per-shard breakdowns are metered by the sharded server itself
        # (bind_metrics); the service only records the fan-out shape.
        fanout = getattr(getattr(served, "detail", None),
                         "per_shard_node_accesses", None)
        if fanout is not None:
            m.counter("service.shard.fanouts").inc()
            m.histogram("service.shard.fanout_width").record(len(fanout))
        rid = getattr(served, "replica_id", None)
        staleness = 0
        if rid is not None:
            by_replica = {"replica": str(rid)}
            m.counter("service.replica.queries", labels=by_replica).inc()
            staleness = served.staleness
            if staleness:
                m.counter("service.replica.stale_served").inc()
                m.counter("service.replica.stale_served",
                          labels=by_replica).inc()
                m.histogram("service.replica.staleness",
                            labels=by_replica).record(staleness)
        if self.slo is not None:
            self.slo.observe(kind, latency_ms=trace.duration_ms,
                             error=False, staleness=staleness)
            self._slo_tick()
        emit_event("query", event="query.finish", kind=kind,
                   duration_ms=trace.duration_ms,
                   node_accesses=trace.total_node_accesses,
                   result_size=trace.result_size)

    def _count(self, name: str, kind: str) -> None:
        """Bump a family's unlabelled total and its ``query_kind`` series
        (the totals are what stats_snapshot and the bench trails read)."""
        self.metrics.counter(name).inc()
        self.metrics.counter(name, labels={"query_kind": kind}).inc()

    # ------------------------------------------------------------------
    # admission plumbing
    # ------------------------------------------------------------------
    def _shed(self, trace: QueryTrace, kind: str,
              exc: AdmissionRejectedError) -> None:
        """Record an admission rejection and raise it — never queued."""
        self._count("service.admission.rejected", kind)
        emit_event("admission", event="admission.reject", kind=kind,
                   reason=exc.reason)
        self._fail(trace, kind, exc)

    def _brownout_budget(self, request: QueryRequest,
                         kind: str) -> QueryRequest:
        """Under a ``reduced`` brownout, clamp the request to the small
        ``brownout_budget`` — reduced kernel probe depth buys capacity,
        and the degraded-region contract keeps the answer correct.
        Only budget-less requests (or ones carrying the service-wide
        default) are clamped; an explicit caller budget wins.
        """
        cfg = self.resilience.admission
        budget = getattr(request, "budget", None)
        default = self.resilience.default_budget
        if cfg.brownout_budget is None or (
                budget is not None and budget is not default):
            return request
        self.metrics.counter("service.admission.brownout.reduced").inc()
        emit_event("admission", event="admission.brownout",
                   level="reduced", kind=kind)
        return replace(request, budget=cfg.brownout_budget)

    def _brownout_shrink(self, request: QueryRequest, response: Response,
                         kind: str) -> Response:
        """Extra conservative region shrink on cache hits served under a
        ``cache_only`` brownout: intersect the cached region with a disk
        around the query point whose radius is the region's half-extent
        scaled by ``cache_only_shrink``.  A subset of a valid region is
        valid — the shrink only makes brownout-served answers expire
        sooner, pushing the re-query to after the overload.
        """
        cfg = self.resilience.admission
        factor = cfg.cache_only_shrink
        loc = query_semantics(request).location(request)
        region = response.region
        try:
            box = region.mbr()
        except (AttributeError, ValueError):
            return response
        if box is None or loc is None or factor >= 1.0:
            return response
        half = 0.5 * min(box.xmax - box.xmin, box.ymax - box.ymin)
        disk = ValidityDisk((float(loc[0]), float(loc[1])),
                            max(half * factor, 0.0))
        shrunk = CompositeValidityRegion([region, disk])
        self.metrics.counter("service.admission.brownout.cache_only").inc()
        emit_event("admission", event="admission.brownout",
                   level="cache_only", kind=kind)
        return replace(response, region=shrunk)

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------
    def _execute_once(self, request: QueryRequest) -> _Executed:
        """One pass through the server; returns the response, this
        attempt's phase-attributed access deltas, and the dataset epoch
        the answer is valid for.  The storage layer records disk-level
        spans itself through the active trace context.

        The deltas are measured on ``server.io_stats``: the disk itself
        for a single-tree server, and for a sharded one the running
        total its shards' per-query measurements are summed into — no
        fleet-wide merge per query.  A ``concurrent_safe`` server (the
        :class:`ReplicaSet`) manages its own locking and measures its
        access deltas inside the serving replica's critical section, so
        the service lock — which would serialize the whole fleet — is
        skipped and the deltas are read off the
        :class:`~repro.service.staleness.ServedResponse`.  A
        stale-served answer is valid for the *primary* epoch its shrink
        accounted for (``valid_for_epoch``), which is the epoch the
        cache admits under.
        """
        if getattr(self.server, "concurrent_safe", False):
            response = self.server.answer(request)
            return _Executed(response, dict(response.node_accesses),
                             dict(response.page_faults),
                             response.valid_for_epoch)
        with self._lock:
            epoch = self.server.epoch
            with self.server.io_stats.measure() as io:
                response = self.server.answer(request)
        return _Executed(response, io.node_accesses, io.page_faults, epoch)

    def _keep(self, trace: QueryTrace) -> None:
        """Finish a query's trace, retain it and feed the profiler."""
        trace.finish()
        self.traces.append(trace)
        if self.profiler is not None:
            self.profiler.record(trace)

    def _fail(self, trace: QueryTrace, kind: str, exc: Exception) -> None:
        """Record a failed query and re-raise its error."""
        trace.error = f"{type(exc).__name__}: {exc}"
        self._keep(trace)
        self._count("service.errors", kind)
        emit_event("query", event="query.error", kind=kind,
                   error=trace.error)
        # Admission sheds are the *mitigation*, not the symptom: counting
        # them against availability would lock the brownout in (shed →
        # bad → burn → shed).  Everything else — including breaker
        # rejections — burns the error budget.
        if self.slo is not None and not isinstance(exc,
                                                   AdmissionRejectedError):
            self.slo.observe(kind, latency_ms=trace.duration_ms, error=True)
            self._slo_tick()
        raise exc

    def answer_many(self, requests: Sequence[QueryRequest],
                    executor: Optional[Executor] = None
                    ) -> List[Response]:
        """Answer a batch of requests, preserving order.

        With an ``executor`` the batch fans out across its workers (the
        per-tick dispatch of a simulated client fleet); without one it
        runs inline.  Either way every query is individually traced.
        The whole batch is validated against the query-type registry up
        front, so an unregistered request fails the batch before any
        work is dispatched.
        """
        for r in requests:
            query_semantics(r)  # TypeError before any query runs
        self.metrics.counter("service.batches").inc()
        self.metrics.histogram("service.batch_size").record(len(requests))
        if executor is None:
            return [self.answer(r) for r in requests]
        return list(executor.map(self.answer, requests))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _slo_tick(self) -> None:
        """Fold the SLO engine's recommendation into admission control.

        ``maybe_evaluate`` is rate-limited by the engine's own clock, so
        this is cheap to call per query; when the recommended brownout
        level changes, it becomes the admission controller's floor —
        burn rate drives the ladder even when queue depth looks healthy.
        """
        level = self.slo.maybe_evaluate()
        if level is None or self.admission is None:
            return
        if level != self.admission.slo_level:
            previous = self.admission.slo_level
            self.admission.set_slo_level(level)
            self.events.emit("slo", event="slo.brownout",
                             previous=LEVEL_NAMES[previous],
                             level=LEVEL_NAMES[level])

    def stats_snapshot(self) -> Dict[str, object]:
        """Everything observable about the running service, as JSON data.

        Includes the metrics registry (counters / gauges / histograms —
        read as one consistent point-in-time snapshot under a single
        registry lock), the disk layer's phase-attributed access
        statistics, the buffer pool state, the server-side validity
        cache, the per-shard breakdown when the server is sharded, the
        server's epoch and query count, and the derived client
        cache-hit ratio when clients report into the registry.
        """
        disk_info = self.server.disk_snapshot()
        snap = self.metrics.snapshot()
        counters = snap["counters"]
        updates = counters.get("client.position_updates", 0)
        hits = counters.get("client.cache_answers", 0)
        queries = counters.get("service.queries", 0)
        degraded = counters.get("service.degraded", 0)
        out = {
            "service": {
                "started_at": self._started_at,
                "uptime_seconds": time.time() - self._started_at,
                "queries": queries,
                "bytes_on_wire": counters.get("service.bytes_on_wire", 0),
                "cache_hit_ratio": hits / updates if updates else 0.0,
                "traces_retained": len(self.traces),
                "traces_dropped": self.traces.dropped,
                "trace_sampling": self.traces.sampling_stats(),
            },
            "events": self.events.stats(),
            "resilience": {
                "retries": counters.get("service.retries", 0),
                "errors": counters.get("service.errors", 0),
                "degraded": degraded,
                "degraded_ratio": degraded / queries if queries else 0.0,
                "breaker": (self.breaker.snapshot()
                            if self.breaker is not None else None),
            },
            "metrics": snap,
            "disk": disk_info["stats"],
            "buffer": disk_info.get("buffer"),
            "cache": (self.cache.snapshot()
                      if self.cache is not None else None),
            "continuous": (self._hub.snapshot()
                           if self._hub is not None else None),
            "server": {
                "epoch": self.server.epoch,
                "queries_processed": self.server.queries_processed,
                "num_points": self.server.num_points,
                "num_pages": self.server.num_pages,
            },
        }
        if self.retry_budget is not None:
            out["resilience"]["retry_budget"] = self.retry_budget.snapshot()
        if self.admission is not None:
            out["admission"] = self.admission.snapshot()
        if self.slo is not None:
            out["slo"] = self.slo.snapshot()
        if self.profiler is not None:
            out["profile"] = self.profiler.snapshot()
        if hasattr(self.server, "replica_snapshot"):
            out["replica_set"] = self.server.snapshot()
        if "shards" in disk_info:
            out["shards"] = disk_info["shards"]
        if "faults_injected" in disk_info:
            out["faults_injected"] = disk_info["faults_injected"]
        return out

    def recent_traces(self, n: Optional[int] = None) -> List[QueryTrace]:
        return self.traces.recent(n)

    def reset_stats(self) -> None:
        """Zero the registry and the disk counters (buffer stays warm)."""
        self.metrics.reset()
        self.server.reset_io_stats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the server's resources (worker pools, replica fleets).

        Idempotent — the layers below guard their own teardown — and
        also reachable as a context manager (``with build_service(...)``).
        """
        if self._hub is not None:
            self._hub.close()
        close = getattr(self.server, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_service(points: Sequence, *,
                  shards: int = 1,
                  replicas: int = 1,
                  replica: Optional[ReplicaConfig] = None,
                  universe: Optional[Rect] = None,
                  capacity: Optional[int] = None,
                  fill: float = 0.7,
                  buffer_fraction: float = 0.0,
                  execution: Optional[ExecutionConfig] = None,
                  cache: Optional[CacheConfig] = None,
                  metrics: Optional[MetricsRegistry] = None,
                  trace_capacity: int = 256,
                  resilience: Optional[ResilienceConfig] = None,
                  events: Optional[EventLog] = None,
                  continuous: Optional[ContinuousConfig] = None,
                  slo: Optional[SLOEngine] = None,
                  tail: Optional[TailSamplingConfig] = None,
                  profile=False) -> QueryService:
    """Assemble the full serving stack over raw ``(x, y)`` data.

    The one-stop entry point of the public API (see docs/API.md):

    * ``shards=1`` builds the paper's single R*-tree
      :class:`LocationServer`; ``shards=K`` (K > 1) builds a K×K
      :class:`~repro.service.shard.ShardedServer` scatter-gather fleet.
    * ``replicas=N`` (N > 1, or any N with an explicit ``replica``
      config) fronts N such servers with a
      :class:`~repro.service.replica.ReplicaSet` — consistent-hash
      routing, per-replica breaker ejection, transparent failover and
      bounded-stale reads per ``replica`` (a
      :class:`~repro.service.replica.ReplicaConfig`).  Replication
      composes with sharding: each replica is its own ``shards``-way
      fleet.
    * ``execution`` — an :class:`~repro.kernel.ExecutionConfig` —
      selects the geometry kernel (``scalar`` / ``numpy`` / ``auto``)
      and, for sharded servers, the width of the fan-out thread pool.
    * ``cache`` — a :class:`~repro.service.cache.CacheConfig` — attaches
      a server-side :class:`~repro.service.cache.ValidityCache`; None
      disables it.
    * ``resilience`` — a :class:`ResilienceConfig` — governs retries,
      the retry budget, the circuit breaker, the default query budget
      and admission control.
    * ``continuous`` — a
      :class:`~repro.service.continuous.ContinuousConfig` — tunes the
      server-push subscription tier (kNN candidate margin, per-
      subscription queue bound); the tier itself is created lazily on
      the first :meth:`QueryService.subscribe` call.
    * ``slo`` — an :class:`~repro.obs.slo.SLOEngine` — observes every
      query outcome, exports ``slo_*`` gauges, and drives the
      admission brownout ladder by error-budget burn rate; ``tail`` —
      a :class:`~repro.service.tracing.TailSamplingConfig` — switches
      the trace ring to tail-based retention; ``profile`` (a
      :class:`~repro.obs.profile.PhaseProfiler` or truthy) folds span
      trees into the per-phase self-time profile behind
      ``/profile/flame``.

    Everything else is threaded through unchanged (index node
    ``capacity`` and ``fill``, LRU ``buffer_fraction`` per disk,
    metrics registry, trace-ring size).
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    if replicas > 1 or replica is not None:
        server = ReplicaSet.from_points(
            points, replicas=replicas, shards=shards, universe=universe,
            capacity=capacity, fill=fill, buffer_fraction=buffer_fraction,
            execution=execution, config=replica)
    else:
        server = build_server(
            points, shards=shards, universe=universe, capacity=capacity,
            fill=fill, buffer_fraction=buffer_fraction, execution=execution)
    validity_cache = None
    if cache is not None and cache.capacity > 0:
        validity_cache = ValidityCache(server.universe, cache)
    return QueryService(server, metrics=metrics,
                        trace_capacity=trace_capacity,
                        resilience=resilience, cache=validity_cache,
                        events=events, continuous=continuous,
                        slo=slo, tail=tail, profile=profile)
