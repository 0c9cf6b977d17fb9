"""The service layer: resilience, serving tiers and concurrency.

* :mod:`repro.service.tracing` — :class:`TraceBuffer`, the bounded
  ring the service keeps finished query traces in, with optional
  tail-based sampling (:class:`TailSamplingConfig`).
* :mod:`repro.service.retry` — capped exponential backoff with full
  jitter for transient failures, plus the service-wide
  :class:`RetryBudget` against retry storms.
* :mod:`repro.service.faults` — the closed/open/half-open circuit
  breaker that isolates a failing disk.
* :mod:`repro.service.admission` — :class:`AdmissionController`, the
  overload gate: bounded concurrency, deadline-aware fast reject and
  the graded brownout ladder.
* :mod:`repro.service.cache` — :class:`ValidityCache`, the server-side
  validity-region cache: any query whose point falls inside a cached
  region is answered with zero node accesses.
* :mod:`repro.service.shard` — :class:`ShardedServer`, a K×K grid of
  independent R*-trees answering queries by scatter-gather with sound
  merged validity regions.
* :mod:`repro.service.replica` — :class:`ReplicaSet`, the replicated
  tier: consistent-hash routing, per-replica breaker ejection,
  transparent failover and bounded-stale reads whose regions stay
  provably correct (:mod:`repro.service.staleness`).
* :mod:`repro.service.continuous` — :class:`SubscriptionHub`, the
  server-push continuous-query tier: influence-set-plus-margin kNN
  caching, O(delta) patches on mutation, bounded per-subscription
  queues with latest-wins coalescing.
* :mod:`repro.service.service` — :class:`QueryService`, the
  instrumented, thread-safe, fault-tolerant front-end a deployment
  runs (see :class:`ResilienceConfig`), and :func:`build_service`, the
  one-stop factory assembling server + shards + cache.
* :mod:`repro.service.fleet` — a ThreadPoolExecutor-driven fleet of
  simulated mobile clients with per-tick batched dispatch.
* :mod:`repro.service.checkapi` — the API-drift check CI runs
  (``python -m repro.service.checkapi``).

The telemetry types themselves — the per-query :class:`QueryTrace`
and its spans, the :class:`MetricsRegistry`, the structured
:class:`~repro.obs.events.EventLog`, the Prometheus / Chrome-trace
exporters and the HTTP endpoint — live in :mod:`repro.obs`; the
service opens a trace per query, every layer below reports into it,
and the service keeps that same record.
"""

from repro.service.tracing import TailSamplingConfig, TraceBuffer
from repro.service.retry import (
    RetryBudget,
    RetryBudgetConfig,
    RetryPolicy,
    is_transient,
)
from repro.service.faults import (
    BreakerConfig,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejectedError,
)
from repro.service.cache import CacheConfig, ValidityCache
from repro.service.shard import (
    Shard,
    ShardedKNNDetail,
    ShardedRangeDetail,
    ShardedServer,
    ShardedWindowDetail,
)
from repro.service.staleness import ServedResponse
from repro.service.continuous import (
    ContinuousConfig,
    Subscription,
    SubscriptionHub,
    SubscriptionUpdate,
)
from repro.service.replica import (
    NoReplicaAvailableError,
    ReplicaConfig,
    ReplicaSet,
)
from repro.service.service import QueryService, ResilienceConfig, build_service
from repro.service.fleet import ClientFleet, FleetConfig, FleetReport

__all__ = [
    "TraceBuffer",
    "TailSamplingConfig",
    "RetryPolicy",
    "RetryBudget",
    "RetryBudgetConfig",
    "is_transient",
    "BreakerConfig",
    "CircuitBreaker",
    "CircuitOpenError",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionRejectedError",
    "CacheConfig",
    "ValidityCache",
    "Shard",
    "ShardedServer",
    "ShardedKNNDetail",
    "ShardedWindowDetail",
    "ShardedRangeDetail",
    "ServedResponse",
    "ContinuousConfig",
    "Subscription",
    "SubscriptionHub",
    "SubscriptionUpdate",
    "ReplicaSet",
    "ReplicaConfig",
    "NoReplicaAvailableError",
    "QueryService",
    "ResilienceConfig",
    "build_service",
    "ClientFleet",
    "FleetConfig",
    "FleetReport",
]
