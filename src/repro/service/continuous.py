"""Server-push continuous queries: influence-set maintenance + pub/sub.

The paper's validity regions tell a client *when* its answer dies;
until this module, expiry — or any dataset mutation — forced a full
re-query.  Here the server keeps a small amount of per-query state so
that most deaths are repaired with an **O(delta) patch** instead of a
fresh traversal, and pushes the repaired answer to the client over a
bounded queue.

Per-kind maintenance
--------------------
Each subscription holds one answer (``Subscription.answer``, from the
kind's ``subscribe_init``; kNN's carries an anchor/horizon candidate
margin, :mod:`repro.core.semantics`).  Every mutation goes through the
kind's one rule, :meth:`~repro.core.api.QuerySemantics.certify`: the
held answer itself changes nothing, ``None`` invalidates (the next
:meth:`SubscriptionHub.move` re-queries: the soundness escape hatch),
and a copy is held — pushed when its region or result ids changed.  A
move asks the kind's ``serve_cached`` for the held answer at the new
location.

Push semantics
--------------
Every queued :class:`SubscriptionUpdate` carries the **full** latest
state (result + region), never a diff of a diff — which is what makes
backpressure coalescing sound: when a subscriber's bounded queue is
full, the newest update replaces the queue *tail* (latest wins, the
``coalesced`` counter records the merge) so a slow subscriber never
buffers unboundedly and never loses the final state.  A subscription
whose patch computation raises is marked ``broken`` and receives one
final ``invalidate`` push: there is no silent staleness.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.core.api import (
    Mutation,
    QueryDetail,
    QueryRequest,
    Response,
    query_semantics,
)
from repro.core.validity import ID_BYTES, delta_bytes
from repro.obs.events import EventLog

__all__ = [
    "ContinuousConfig",
    "ContinuousDetail",
    "Subscription",
    "SubscriptionHub",
    "SubscriptionUpdate",
]

#: Wire cost of an invalidation push: one subscription token.
INVALIDATE_BYTES = ID_BYTES


def _oids(result) -> set:
    return {e.oid for e in result}


@dataclass(frozen=True)
class ContinuousConfig:
    """Tuning of the continuous-query tier.

    ``margin`` is the number of extra neighbours retrieved (and kept
    server-side) per kNN subscription — the patch budget: each delete
    of a candidate spends one unit, each insert inside the horizon
    earns one back.  ``queue_capacity`` bounds every subscriber queue;
    overflow coalesces (latest wins), it never grows the buffer.
    """

    margin: int = 8
    queue_capacity: int = 8

    def __post_init__(self):
        if self.margin < 1:
            raise ValueError("margin must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


@dataclass(frozen=True)
class ContinuousDetail(QueryDetail):
    """Detail record of a response served from subscription state: a
    :class:`~repro.core.api.Response` assembled with zero node accesses,
    which a :class:`~repro.core.client.MobileClient` caches exactly like
    a served answer."""

    query_kind: str = ""
    #: How this response was produced: "subscribe" (initial fetch),
    #: "patch" (mutation repair), "move" (client relocation served from
    #: the held answer) or "refetch" (escape hatch re-query).
    origin: str = "subscribe"
    #: Monotonic per-subscription state version.
    generation: int = 0
    degraded: bool = False


@dataclass
class SubscriptionUpdate:
    """One server push.  ``response`` is the **full** latest state for
    a ``"patch"``; ``None`` for an ``"invalidate"`` (the client must
    re-query).  ``coalesced`` counts older updates this one replaced
    under backpressure; ``transfer_bytes`` is the modelled wire cost of
    the *delta* (added points + removed ids + region)."""

    seq: int
    kind: str  # "patch" | "invalidate"
    reason: str
    response: Optional[Response] = None
    coalesced: int = 0
    transfer_bytes: int = INVALIDATE_BYTES


# ----------------------------------------------------------------------
# the subscription object (server side of the push channel)
# ----------------------------------------------------------------------
class Subscription:
    """One registered continuous query.

    The client polls :meth:`poll`/:meth:`drain` for pushed
    :class:`SubscriptionUpdate` objects, calls :meth:`move` when it
    relocates, and :meth:`close` when done.  ``broken`` subscriptions
    stop receiving patches — their final queued update is an
    ``invalidate`` — and must be re-established.
    """

    def __init__(self, sid: int, request: QueryRequest,
                 hub: "SubscriptionHub", capacity: int):
        self.sid = sid
        self.request = request
        self.kind = request.kind
        self.capacity = capacity
        self.broken = False
        self.broken_reason: Optional[str] = None
        self.closed = False
        #: Latest shipped view (a :class:`~repro.core.api.Response`
        #: with a :class:`ContinuousDetail`).
        self.response: Optional[Response] = None
        #: The answer every mutation is certified against; ``None``
        #: once invalidated, until :meth:`move` fetches it again.
        self.answer: Optional[Response] = None
        self.generation = 0
        self.pushes = 0
        self.patches = 0
        self.invalidates = 0
        self.coalesced = 0
        self.polls = 0
        self.moves_patched = 0
        self.moves_refetched = 0
        self._hub = hub
        self._queue: Deque[SubscriptionUpdate] = deque()
        self._lock = threading.RLock()
        self._seq = itertools.count(1)

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def poll(self) -> Optional[SubscriptionUpdate]:
        """Pop the oldest queued update (None when the queue is empty)."""
        with self._lock:
            self.polls += 1
            return self._queue.popleft() if self._queue else None

    def drain(self) -> List[SubscriptionUpdate]:
        """Pop every queued update, oldest first."""
        with self._lock:
            self.polls += 1
            out = list(self._queue)
            self._queue.clear()
            return out

    def move(self, location):
        """Serve at ``location`` from the held answer when sound,
        otherwise by a full re-query.  Returns the response."""
        return self._hub.move(self, location)

    def close(self) -> None:
        self._hub.unsubscribe(self)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "sid": self.sid,
                "kind": self.kind,
                "pending": len(self._queue),
                "generation": self.generation,
                "pushes": self.pushes,
                "patches": self.patches,
                "invalidates": self.invalidates,
                "coalesced": self.coalesced,
                "polls": self.polls,
                "moves_patched": self.moves_patched,
                "moves_refetched": self.moves_refetched,
                "broken": self.broken,
                "broken_reason": self.broken_reason,
            }

    # -- hub internals (caller holds self._lock) -----------------------
    def _enqueue(self, update: SubscriptionUpdate) -> None:
        if len(self._queue) >= self.capacity:
            # Latest wins: every update carries full state, so replacing
            # the tail merges histories without losing the final state.
            tail = self._queue.pop()
            update.coalesced = tail.coalesced + 1
            self.coalesced += 1
        self._queue.append(update)
        self.pushes += 1
        if update.kind == "patch":
            self.patches += 1
        else:
            self.invalidates += 1


# ----------------------------------------------------------------------
# the hub: registry + push fan-out
# ----------------------------------------------------------------------
class SubscriptionHub:
    """Registry and push fan-out for continuous queries.

    ``owner`` executes the escape-hatch queries — the
    :class:`~repro.service.service.QueryService` that owns the hub,
    over any server shape; it only needs ``answer(request)`` and
    ``universe``.  The owner calls
    :meth:`notify` after every applied mutation (on the mutating
    thread, so pushes are enqueued before the mutation call returns).
    """

    def __init__(self, owner, config: Optional[ContinuousConfig] = None,
                 metrics=None, events: Optional[EventLog] = None):
        self.owner = owner
        self.config = config if config is not None else ContinuousConfig()
        self.metrics = metrics
        self.events = events
        self._lock = threading.RLock()
        self._subs: Dict[int, Subscription] = {}
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        with self._lock:
            return len(self._subs)

    # -- registration --------------------------------------------------
    def subscribe(self, request: QueryRequest, *,
                  queue_capacity: Optional[int] = None) -> Subscription:
        """Register ``request`` as a continuous query.

        Runs the initial (margin-widened, for kNN) fetch through the
        owner and returns a live :class:`Subscription` whose
        ``response`` answers the request.
        """
        capacity = queue_capacity or self.config.queue_capacity
        # Holding the hub lock across fetch+insert serializes with
        # notify(): a mutation is either visible to the fetch or
        # delivered as a (by-oid idempotent) patch afterwards.
        sem = query_semantics(request)
        if not sem.supports_subscriptions:
            raise ValueError(f"cannot subscribe a {request.kind!r} request")
        with self._lock:
            sub = Subscription(next(self._ids), request, self, capacity)
            self._install(sub, sem.subscribe_init(self, request),
                          origin="subscribe")
            self._subs[sub.sid] = sub
        self._count("service.continuous.subscriptions")
        self._emit("push.subscribe", sid=sub.sid, kind=request.kind)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            self._subs.pop(sub.sid, None)
        with sub._lock:
            sub.closed = True

    # -- mutation fan-out ----------------------------------------------
    def notify(self, mutation: Mutation) -> None:
        """Fan one applied mutation out to every live subscription.

        Per-subscription work is O(candidates): a re-rank plus a local
        region rebuild — never a tree traversal.  A subscription whose
        patch raises is marked broken (with one final invalidate push),
        so the failure of one subscriber cannot poison the mutation
        path or its neighbours.
        """
        with self._lock:
            subs = list(self._subs.values())
        mutations, universe = (mutation,), self.owner.universe
        for sub in subs:
            try:
                self._apply(sub, mutations, universe)
            except Exception as exc:  # no silent staleness, ever
                self._break(sub, f"{type(exc).__name__}: {exc}")

    def _apply(self, sub: Subscription, mutations, universe) -> None:
        with sub._lock:
            if sub.closed or sub.broken:
                return
            held = sub.answer
            if held is None:
                # Already invalidated: keep the client informed
                # (coalesced) until it re-queries via move().
                self._push_invalidate(sub, "stale")
                return
            after = query_semantics(sub.request).certify(
                sub.request, held, mutations, universe)
            if after is held:
                return
            if after is None:
                sub.answer = None
                self._push_invalidate(sub, "margin_exhausted")
                return
            if after.region is held.region and (
                    after.result is held.result
                    or _oids(after.result) == _oids(held.result)):
                sub.answer = after  # only the detail moved on
                return
            self._push_patch(sub, after, reason=mutations[0].op)

    # -- client relocation ---------------------------------------------
    def move(self, sub: Subscription, location):
        """Serve ``sub`` at a new ``location``.

        The kind's ``serve_cached`` adapts the held answer to
        ``location`` (zero node accesses): a new answer is held, the
        held one is re-served while its region holds ``location``.
        Anything else takes the escape hatch: a full re-query that
        re-anchors the subscription.
        """
        loc = (float(location[0]), float(location[1]))
        with sub._lock:
            if sub.closed:
                raise RuntimeError("subscription is closed")
            if sub.broken:
                raise RuntimeError(
                    f"subscription is broken: {sub.broken_reason}")
            held = sub.answer
            if held is not None:
                sem = query_semantics(sub.request)
                served = sem.serve_cached(
                    sem.refetch_request(sub.request, loc), held)
                if served is not None and (served is not held
                                           or held.region.contains(loc)):
                    sub.moves_patched += 1
                    self._count("service.continuous.moves_patched")
                    if served is held:
                        return sub.response
                    return self._install(sub, served, origin="move")
            return self._refetch(sub, loc)

    def _refetch(self, sub: Subscription, loc) -> Response:
        sub.moves_refetched += 1
        self._count("service.continuous.moves_refetched")
        sem = query_semantics(sub.request)
        request = sem.refetch_request(sub.request, loc)
        self._install(sub, sem.subscribe_init(self, request),
                      origin="refetch")
        sub.request = request
        self._emit("push.refetch", sid=sub.sid, kind=sub.kind)
        return sub.response

    # -- push plumbing -------------------------------------------------
    def _install(self, sub: Subscription, answer: Response,
                 origin: str) -> Response:
        sub.answer = answer
        sub.generation += 1
        sub.response = Response(
            list(answer.result), answer.region,
            ContinuousDetail(query_kind=sub.kind, origin=origin,
                             generation=sub.generation),
            entry_bytes=answer.entry_bytes)
        return sub.response

    def _push_patch(self, sub: Subscription, answer: Response,
                    reason: str) -> None:
        previous = _oids(sub.response.result)
        current = _oids(answer.result)
        delta = delta_bytes(len(current - previous), len(previous - current),
                            answer.region)
        response = self._install(sub, answer, origin="patch")
        sub._enqueue(SubscriptionUpdate(
            seq=next(sub._seq), kind="patch", reason=reason,
            response=response, transfer_bytes=delta))
        self._count("service.continuous.pushes")
        self._count("service.continuous.patches")
        self._emit("push.patch", sid=sub.sid, kind=sub.kind, reason=reason)

    def _push_invalidate(self, sub: Subscription, reason: str) -> None:
        sub._enqueue(SubscriptionUpdate(
            seq=next(sub._seq), kind="invalidate", reason=reason))
        self._count("service.continuous.pushes")
        self._count("service.continuous.invalidates")
        self._emit("push.invalidate", sid=sub.sid, kind=sub.kind,
                   reason=reason)

    def _break(self, sub: Subscription, reason: str) -> None:
        with sub._lock:
            if sub.broken:
                return
            sub.broken = True
            sub.broken_reason = reason
            self._push_invalidate(sub, "broken")
        self._count("service.continuous.broken")
        self._emit("push.broken", sid=sub.sid, reason=reason)

    # -- observability -------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            subs = list(self._subs.values())
        rows = [s.snapshot() for s in subs]
        return {
            "subscriptions": len(rows),
            "broken": sum(1 for r in rows if r["broken"]),
            "pushes": sum(r["pushes"] for r in rows),
            "patches": sum(r["patches"] for r in rows),
            "invalidates": sum(r["invalidates"] for r in rows),
            "coalesced": sum(r["coalesced"] for r in rows),
            "moves_patched": sum(r["moves_patched"] for r in rows),
            "moves_refetched": sum(r["moves_refetched"] for r in rows),
            "per_subscription": rows,
        }

    def close(self) -> None:
        with self._lock:
            subs = list(self._subs.values())
            self._subs.clear()
        for sub in subs:
            with sub._lock:
                sub.closed = True

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit("push", event=event, **fields)
