"""The instrumented query service: a concurrent front-end to the server.

:class:`QueryService` is what a deployment puts between its fleet of
mobile clients and a :class:`~repro.core.server.LocationServer`.  Every
query runs under a propagated trace context
(:func:`repro.obs.context.start_trace`): the service opens the trace,
the layers below — cache probe, scatter-gather shard workers, the
R*-tree's simulated disk — attach their own child spans to it, and the
finished span *tree* is retained as a structured
:class:`~repro.service.tracing.QueryTrace`.  Alongside the trace, each
stage emits structured events into the service's
:class:`~repro.obs.events.EventLog` (query start/finish, cache
hit/miss, shard scatter, retries, breaker transitions, disk faults),
and counters and latency/bytes histograms land in one
:class:`~repro.service.metrics.MetricsRegistry` shared by every layer.

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
(``answer`` / ``io_stats`` / ``set_phase_listener`` / ``disk_snapshot``
/ ``num_points``), so any server implementing it — the single-tree
:class:`LocationServer` or the sharded scatter-gather fleet — slots in
unchanged; :func:`build_service` assembles the whole stack from raw
points.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import warnings
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.core.api import (
    KNNRequest,
    QueryBudget,
    QueryRequest,
    QueryResponse,
    RangeRequest,
    WindowRequest,
    query_semantics,
)
from repro.core.server import DeltaResponse, LocationServer
from repro.core.validity import CompositeValidityRegion, ValidityDisk
from repro.geometry import Rect
from repro.kernel import ExecutionConfig
from repro.obs.context import TraceContext, emit_event, start_trace
from repro.obs.events import EventLog
from repro.obs.profile import PhaseProfiler
from repro.obs.slo import SLOEngine
from repro.service.continuous import (
    ContinuousConfig,
    Subscription,
    SubscriptionHub,
)
from repro.service.staleness import Mutation
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
from repro.service.metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.service.replica import ReplicaConfig, ReplicaSet
from repro.service.retry import (
    RetryBudget,
    RetryBudgetConfig,
    RetryPolicy,
    is_transient,
)
from repro.service.shard import ShardedServer
from repro.service.staleness import ServedResponse
from repro.service.tracing import (
    QueryTrace,
    TailSamplingConfig,
    TraceBuffer,
    now,
)

__all__ = ["QueryService", "ResilienceConfig", "build_service"]


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
        # Layers that meter themselves (shard fan-out workers, replica
        # routing) report into the service registry with their own
        # label dimensions.
        bind = getattr(server, "bind_metrics", None)
        if bind is not None:
            bind(self.metrics)
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
        #: The structured event log every traced stage reports into.
        self.events = events if events is not None else EventLog()
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
        self._started_at = now()

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
            if self.cache.config.surgical:
                dropped = self.cache.invalidate_mutation(
                    op, oid, x, y, epoch=self.server.epoch)
                self.metrics.counter(
                    "service.cache.surgical_drops").inc(dropped)
            else:  # the blunt baseline: every cached region dies
                self.cache.invalidate_all()
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
    # query execution
    # ------------------------------------------------------------------
    def answer(self, request: QueryRequest) -> QueryResponse:
        """Answer one typed request, tracing and metering it.

        With a :class:`ResilienceConfig`, transient failures (simulated
        page-read errors) are retried with capped exponential backoff
        and full jitter outside the service lock; persistent failure
        streaks trip the circuit breaker, which then rejects requests
        with :class:`~repro.service.faults.CircuitOpenError` until its
        reset timeout allows a probe.  Budget-exhausted (degraded)
        responses are successes: correct results, shrunk regions.
        """
        request = self._with_default_budget(request)
        kind = getattr(request, "kind", type(request).__name__)
        trace_id = (getattr(request, "trace_id", None)
                    or f"q-{next(self._ids)}")
        with start_trace(trace_id=trace_id, events=self.events) as ctx:
            return self._answer_traced(request, kind, ctx)

    def _answer_traced(self, request: QueryRequest, kind: str,
                       ctx: TraceContext) -> QueryResponse:
        """The traced body of :meth:`answer` (one active trace context).

        The service records only its own stages (cache probe, retry
        backoff, serialization) on the context; the layers below attach
        their own child spans — per-shard fan-out workers, the disk's
        phase blocks — through the same propagated context.
        """
        trace = QueryTrace(
            trace_id=ctx.trace_id,
            kind=kind,
            started_at=ctx.started_at,
            monotonic_origin=ctx.origin,
        )
        t0 = ctx.origin
        emit_event("query", event="query.start", kind=kind)

        # Admission first: the brownout level is sampled once per query
        # so one request sees one consistent shedding policy.
        level = LEVEL_NORMAL
        if self.admission is not None:
            level = self.admission.level()
            self.metrics.gauge("service.admission.level").set(level)
            if level >= LEVEL_REJECT:
                self._shed(trace, ctx, kind, AdmissionRejectedError(
                    "brownout: shedding all load"))

        # The cache front door: a hit never touches the server, the
        # breaker, or the retry loop — zero node accesses, by contract.
        cached: Optional[QueryResponse] = None
        if self.cache is not None:
            probe_start = perf_counter()
            cached = self.cache.probe(request, self.server.epoch)
            ctx.add_span(
                "cache_probe",
                offset_ms=(probe_start - t0) * 1e3,
                duration_ms=(perf_counter() - probe_start) * 1e3,
                meta={"hit": cached is not None},
            )
            if cached is not None:
                self.metrics.counter("service.cache.hits").inc()
                self.metrics.counter("service.cache.hits",
                                     labels={"query_kind": kind}).inc()
                emit_event("cache", event="cache.hit", kind=kind)
            else:
                self.metrics.counter("service.cache.misses").inc()
                emit_event("cache", event="cache.miss", kind=kind)

        if cached is not None:
            response = self._serve_cached(request, cached)
            if level >= LEVEL_CACHE_ONLY:
                response = self._brownout_shrink(request, response, kind)
            node_accesses: Dict[str, int] = {}
            page_faults: Dict[str, int] = {}
        else:
            # A miss under a cache-only brownout never executes — that
            # is the whole point of the level: the disk is saturated.
            if level >= LEVEL_CACHE_ONLY:
                self._shed(trace, ctx, kind, AdmissionRejectedError(
                    "brownout: cache-only, request missed"))
            acquired = False
            exec_start = t0
            if self.admission is not None:
                budget = getattr(request, "budget", None)
                deadline = budget.deadline_ms if budget is not None else None
                gate_start = perf_counter()
                try:
                    wait_ms = self.admission.try_acquire(deadline_ms=deadline)
                except AdmissionRejectedError as exc:
                    # Fast reject: meter how fast (the <1ms contract).
                    self.metrics.histogram(
                        "service.admission.reject_ms").record(
                            (perf_counter() - gate_start) * 1e3)
                    self._shed(trace, ctx, kind, exc)
                acquired = True
            retry = (self.resilience.retry
                     if self.resilience is not None else None)
            attempt = 0
            # Everything past the acquire runs under the finally that
            # releases the slot — a failure anywhere here must not leak
            # admission concurrency.
            try:
                if acquired:
                    self.metrics.counter("service.admission.accepted").inc()
                    if wait_ms > 0.0:
                        ctx.add_span("admission_wait",
                                     offset_ms=(gate_start - t0) * 1e3,
                                     duration_ms=wait_ms)
                        self.metrics.histogram(
                            "service.admission.wait_ms").record(wait_ms)
                    if level >= LEVEL_REDUCED:
                        request = self._brownout_budget(request, kind)
                    exec_start = perf_counter()
                while True:
                    if self.breaker is not None:
                        try:
                            self.breaker.before_call()
                        except CircuitOpenError as exc:
                            self.metrics.counter(
                                "service.breaker.rejections").inc()
                            emit_event("breaker", event="breaker.reject",
                                       kind=kind)
                            self._fail(trace, ctx, kind, exc)
                    try:
                        (response, node_accesses, page_faults,
                         epoch) = self._execute_once(request)
                    except Exception as exc:
                        transient = is_transient(exc)
                        if self.breaker is not None and transient:
                            trips_before = self.breaker.trips
                            self.breaker.record_failure()
                            if self.breaker.trips > trips_before:
                                emit_event("breaker", event="breaker.trip",
                                           trips=self.breaker.trips)
                            if self.breaker.trips:
                                self.metrics.gauge(
                                    "service.breaker.trips").set(
                                        self.breaker.trips)
                        retryable = (
                            transient and retry is not None
                            and attempt + 1 < retry.max_attempts
                            # Retrying into an open breaker or an
                            # overloaded gate only deepens the problem.
                            and not isinstance(exc, (AdmissionRejectedError,
                                                     CircuitOpenError)))
                        if (retryable and self.retry_budget is not None
                                and not self.retry_budget.try_spend()):
                            retryable = False
                            self.metrics.counter(
                                "service.retry_budget.exhausted").inc()
                            emit_event("retry",
                                       event="retry.budget_exhausted",
                                       kind=kind)
                        if retryable:
                            with self._rng_lock:
                                delay = retry.backoff_s(attempt,
                                                        self._retry_rng)
                            self.metrics.counter("service.retries").inc()
                            self.metrics.counter(
                                "service.retries",
                                labels={"query_kind": kind}).inc()
                            trace.retries += 1
                            ctx.add_span(
                                "retry_backoff",
                                offset_ms=(perf_counter() - t0) * 1e3,
                                duration_ms=delay * 1e3,
                                meta={"attempt": attempt + 1,
                                      "error":
                                      f"{type(exc).__name__}: {exc}"},
                            )
                            emit_event("retry", event="query.retry",
                                       attempt=attempt + 1,
                                       delay_ms=delay * 1e3,
                                       error=f"{type(exc).__name__}: {exc}")
                            if delay > 0.0:
                                self._sleep(delay)
                            attempt += 1
                            continue
                        self._fail(trace, ctx, kind, exc)
                    else:
                        if self.breaker is not None:
                            recoveries_before = self.breaker.recoveries
                            self.breaker.record_success()
                            if self.breaker.recoveries > recoveries_before:
                                emit_event("breaker", event="breaker.recover",
                                           recoveries=self.breaker.recoveries)
                        break
            finally:
                if acquired:
                    self.admission.release(
                        (perf_counter() - exec_start) * 1e3)
            if self.cache is not None:
                self.cache.admit(request, response, epoch)
        if self.cache is not None:
            self.metrics.gauge("service.cache.size").set(len(self.cache))

        trace.node_accesses = node_accesses
        trace.page_faults = page_faults
        clip_seconds = getattr(response.detail, "clip_seconds", 0.0)
        if clip_seconds:
            ctx.add_span(
                "bisector_clipping",
                offset_ms=0.0,  # interleaved with tpnn_probing
                duration_ms=clip_seconds * 1e3,
            )

        # Serialization: size the payload that would go on the wire.
        ser_start = perf_counter()
        transfer = response.transfer_bytes()
        result_size = len(response.result)
        if isinstance(response, DeltaResponse):
            result_size = len(response.added) + len(response.removed_ids)
        ctx.add_span(
            "serialization",
            offset_ms=(ser_start - t0) * 1e3,
            duration_ms=(perf_counter() - ser_start) * 1e3,
            meta={"transfer_bytes": transfer},
        )
        trace.transfer_bytes = transfer
        trace.result_size = result_size
        trace.degraded = bool(getattr(response.detail, "degraded", False))
        if trace.degraded:
            emit_event("degraded", event="query.degraded", kind=kind)
        trace.duration_ms = (perf_counter() - t0) * 1e3
        trace.spans = ctx.spans()
        self.traces.append(trace)
        if self.profiler is not None:
            self.profiler.record(trace)
        self._record(kind, trace,
                     delta=getattr(request, "previous_ids", None) is not None,
                     detail=response.detail, response=response)
        emit_event("query", event="query.finish", kind=kind,
                   duration_ms=trace.duration_ms,
                   node_accesses=trace.total_node_accesses,
                   result_size=result_size)
        return response

    def _serve_cached(self, request: QueryRequest,
                      cached: QueryResponse) -> QueryResponse:
        """Adapt a cached response to the probing request.

        The validity-region contract guarantees the result *set* is
        identical anywhere inside the region; only the distance order
        of kNN neighbours can differ at the new query point, so that is
        re-ranked (a k·log k in-memory step — still zero node accesses).
        Replica-served entries are :class:`ServedResponse` wrappers; the
        re-ranking preserves their serving annotations.
        """
        inner = getattr(cached, "inner", cached)
        adapted = query_semantics(request).serve_cached(request, inner)
        if adapted is inner:
            return cached
        if inner is cached:
            return adapted
        return cached.with_inner(adapted)

    # ------------------------------------------------------------------
    # admission plumbing
    # ------------------------------------------------------------------
    def _shed(self, trace: QueryTrace, ctx: TraceContext, kind: str,
              exc: AdmissionRejectedError) -> None:
        """Record an admission rejection and raise it — never queued."""
        self.metrics.counter("service.admission.rejected").inc()
        self.metrics.counter("service.admission.rejected",
                             labels={"query_kind": kind}).inc()
        emit_event("admission", event="admission.reject", kind=kind,
                   reason=exc.reason)
        self._fail(trace, ctx, kind, exc)

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
        try:
            clamped = replace(request, budget=cfg.brownout_budget)
        except TypeError:
            # Not a dataclass request (an exotic/invalid type): leave it
            # unclamped and let execution fail it through the traced path.
            return request
        self.metrics.counter("service.admission.brownout.reduced").inc()
        emit_event("admission", event="admission.brownout",
                   level="reduced", kind=kind)
        return clamped

    def _brownout_shrink(self, request: QueryRequest,
                         response: QueryResponse,
                         kind: str) -> QueryResponse:
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
        if isinstance(response, ServedResponse):
            out = response.with_inner(response.inner)
            out.region = shrunk
            out.brownout_level = LEVEL_CACHE_ONLY
            return out
        return ServedResponse(response, region=shrunk,
                              brownout_level=LEVEL_CACHE_ONLY)

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------
    def _with_default_budget(self, request: QueryRequest) -> QueryRequest:
        """Apply the configured default budget to budget-less requests."""
        if (self.resilience is None
                or self.resilience.default_budget is None
                or getattr(request, "budget", None) is not None):
            return request
        return replace(request, budget=self.resilience.default_budget)

    def _execute_once(self, request: QueryRequest):
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
        :class:`ServedResponse`.  A stale-served answer is
        valid for the *primary* epoch its shrink accounted for
        (``valid_for_epoch``), which is the epoch the cache admits under.
        """
        if getattr(self.server, "concurrent_safe", False):
            epoch = self.server.epoch
            response = self.server.answer(request)
            valid_epoch = getattr(response, "valid_for_epoch", None)
            if valid_epoch is None:
                valid_epoch = epoch
            node_accesses = dict(getattr(response, "node_accesses",
                                         None) or {})
            page_faults = dict(getattr(response, "page_faults", None) or {})
            return response, node_accesses, page_faults, valid_epoch
        with self._lock:
            epoch = self.server.epoch
            with self.server.io_stats.measure() as io:
                response = self.server.answer(request)
        return response, io.node_accesses, io.page_faults, epoch

    def _fail(self, trace: QueryTrace, ctx: TraceContext, kind: str,
              exc: Exception) -> None:
        """Record a failed query and re-raise its error."""
        trace.duration_ms = ctx.elapsed_ms()
        trace.error = f"{type(exc).__name__}: {exc}"
        trace.spans = ctx.spans()
        self.traces.append(trace)
        if self.profiler is not None:
            self.profiler.record(trace)
        self.metrics.counter("service.errors").inc()
        self.metrics.counter("service.errors",
                             labels={"query_kind": kind}).inc()
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
                    ) -> List[QueryResponse]:
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

    #: Back-compat alias; ``answer_many`` is the canonical name.
    dispatch_batch = answer_many

    # ------------------------------------------------------------------
    # convenience per-type methods (same names as the server)
    # ------------------------------------------------------------------
    def knn_query(self, location, k: int = 1):
        return self.answer(KNNRequest(tuple(location), k=k))

    def window_query(self, focus, width: float, height: float):
        return self.answer(WindowRequest(tuple(focus), width, height))

    def range_query(self, location, radius: float):
        return self.answer(RangeRequest(tuple(location), radius))

    def rknn_query(self, location, k: int = 1):
        from repro.core.rknn import RKNNRequest
        return self.answer(RKNNRequest(tuple(location), k=k))

    def probknn_query(self, location, uncertainty: float, k: int = 1):
        from repro.core.probknn import ProbKNNRequest
        return self.answer(ProbKNNRequest(tuple(location),
                                          uncertainty=uncertainty, k=k))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _record(self, kind: str, trace: QueryTrace, delta: bool,
                detail=None, response=None) -> None:
        m = self.metrics
        by_kind = {"query_kind": kind}
        # Unlabeled series are the pre-aggregated totals (what
        # stats_snapshot and the bench trails read); the labeled series
        # of the same family carry the dimensional breakdown.
        m.counter("service.queries").inc()
        m.counter("service.queries", labels=by_kind).inc()
        if delta:
            m.counter("service.queries.delta", labels=by_kind).inc()
        if trace.degraded:
            m.counter("service.degraded").inc()
            m.counter("service.degraded", labels=by_kind).inc()
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
        # Per-shard breakdowns are metered by the sharded server itself
        # (bind_metrics), with shard/backend labels; the service only
        # records the fan-out shape here.
        fanout = getattr(detail, "per_shard_node_accesses", None)
        if fanout is not None:
            m.counter("service.shard.fanouts").inc()
            m.histogram("service.shard.fanout_width").record(len(fanout))
        # Replica-served responses carry their serving annotations.
        rid = getattr(response, "replica_id", None)
        staleness = 0
        if rid is not None:
            by_replica = {"replica": str(rid)}
            m.counter("service.replica.queries", labels=by_replica).inc()
            staleness = getattr(response, "staleness", 0)
            if staleness:
                m.counter("service.replica.stale_served").inc()
                m.counter("service.replica.stale_served",
                          labels=by_replica).inc()
                m.histogram("service.replica.staleness",
                            labels=by_replica).record(staleness)
            failovers = getattr(response, "failovers", 0)
            if failovers:
                m.counter("service.replica.failovers").inc(failovers)
        if self.slo is not None:
            self.slo.observe(kind, latency_ms=trace.duration_ms,
                             error=False, staleness=staleness)
            self._slo_tick()

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
                "uptime_seconds": now() - self._started_at,
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
                  profile=False,
                  cache_capacity: Optional[int] = None,
                  cache_grid: Optional[int] = None,
                  max_workers: Optional[int] = None) -> QueryService:
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
      selects the geometry kernel (``scalar`` / ``soa`` / ``numpy`` /
      ``auto``) and, for sharded servers, the fan-out backend
      (``thread`` or ``process``) and worker count.  A ``process``
      backend over a single-tree server is a documented no-op: the
      paper's server owns one simulated disk and runs serially.
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

    ``cache_capacity`` / ``cache_grid`` / ``max_workers`` are the
    pre-1.3 spellings, deprecated in favour of ``cache=CacheConfig(...)``
    and ``execution=ExecutionConfig(workers=...)`` (removal planned for
    v2.0).
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    if cache_capacity is not None or cache_grid is not None:
        if cache is not None:
            raise TypeError(
                "pass either cache=CacheConfig(...) or the legacy "
                "cache_capacity/cache_grid, not both")
        warnings.warn(
            "cache_capacity/cache_grid are deprecated; pass "
            "cache=CacheConfig(capacity=..., grid=...) instead "
            "(removal planned for v2.0)",
            DeprecationWarning, stacklevel=2)
        if cache_capacity is not None and cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if cache_capacity:
            cache = CacheConfig(capacity=cache_capacity,
                                grid=cache_grid if cache_grid else 16)
    if max_workers is not None:
        if execution is not None:
            raise TypeError(
                "pass either execution=ExecutionConfig(...) or the "
                "legacy max_workers, not both")
        warnings.warn(
            "max_workers is deprecated; pass "
            "execution=ExecutionConfig(workers=...) instead "
            "(removal planned for v2.0)",
            DeprecationWarning, stacklevel=2)
        execution = ExecutionConfig(workers=max_workers)
    if replicas > 1 or replica is not None:
        server = ReplicaSet.from_points(
            points, replicas=replicas, shards=shards, universe=universe,
            capacity=capacity, fill=fill, buffer_fraction=buffer_fraction,
            execution=execution, config=replica)
    elif shards == 1:
        kernel = execution.resolved_kernel() if execution is not None else None
        server = LocationServer.from_points(
            points, universe=universe, capacity=capacity, fill=fill,
            buffer_fraction=buffer_fraction, kernel=kernel)
    else:
        server = ShardedServer.from_points(
            points, grid=shards, universe=universe, capacity=capacity,
            fill=fill, buffer_fraction=buffer_fraction,
            execution=execution)
    validity_cache = None
    if cache is not None and cache.capacity > 0:
        validity_cache = ValidityCache(server.universe, cache)
    return QueryService(server, metrics=metrics,
                        trace_capacity=trace_capacity,
                        resilience=resilience, cache=validity_cache,
                        events=events, continuous=continuous,
                        slo=slo, tail=tail, profile=profile)
