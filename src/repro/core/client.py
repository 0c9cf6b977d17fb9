"""The mobile client: caching, validity checking, local re-answering.

The client keeps the latest response and, on every position update,
first checks whether it is still inside the cached validity region.
If so, the cached result is re-used (for kNN the *set* is unchanged but
the ordering may not be — the client re-sorts the k cached points by
distance, a trivial local computation); otherwise a fresh query goes to
the server.  :class:`ClientStats` records exactly the savings the
paper's motivation claims.

With ``incremental=True`` the client uses the delta protocol of the
paper's Section 7 on re-queries: the server ships only the objects
added and the ids removed relative to the cached result, which the
client applies locally and caches under the region that came with
them — same answers, fewer bytes.

With ``subscribe=True`` (and a server exposing ``subscribe``: a
:class:`~repro.service.service.QueryService`, over any server shape)
the client registers each query kind as a **continuous query**: the
server pushes O(delta) patches or invalidations over the
subscription's bounded queue whenever the dataset mutates, and the
client drains them on every position update — so mutations refresh
the cache instead of killing it.  Leaving the validity region calls
``move()`` on the subscription, which the server repairs from its
retained candidate margin whenever that is provably sound, again
without touching the index.

With ``max_stale`` set, the client degrades gracefully when the server
fails transiently (simulated page-read errors, an open circuit
breaker): instead of raising, it serves the last cached result for the
same query, provided its server epoch lags the current one by at most
``max_stale`` updates.  Stale answers are flagged — counted in
:attr:`ClientStats.stale_answers` and visible via
:attr:`MobileClient.last_served` / :attr:`MobileClient.last_staleness`
— so callers can always distinguish a fresh answer from a best-effort
one.

All three query types go through the typed request objects of
:mod:`repro.core.api` and one generic cache — a :class:`CacheEntry` per
query kind — so the per-type methods only differ in how they build the
request and post-process the entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.geometry import distance_sq
from repro.index.entry import LeafEntry
from repro.core.api import KNNRequest, RangeRequest, Response, WindowRequest
from repro.core.server import LocationServer
from repro.obs.context import new_trace_id


@dataclass
class ClientStats:
    """Protocol accounting for one client session."""

    position_updates: int = 0
    server_queries: int = 0
    cache_answers: int = 0
    bytes_received: int = 0
    #: Updates answered from a stale cache because the server failed.
    stale_answers: int = 0
    #: Server pushes applied to the cache (subscription mode).
    pushes_applied: int = 0
    #: Region exits repaired via ``subscription.move()`` (these also
    #: count as ``server_queries``; most cost zero node accesses).
    subscription_moves: int = 0

    @property
    def query_saving(self) -> float:
        """Fraction of position updates answered without the server."""
        if self.position_updates == 0:
            return 0.0
        return self.cache_answers / self.position_updates

    #: Alias under the service-layer name.
    cache_hit_ratio = query_saving


@dataclass
class CacheEntry:
    """One cached server response, shared by all three query types.

    ``key`` is the query-parameter tuple the response answers (``(k,)``
    for kNN, ``(width, height)`` for window, ``(radius,)`` for range);
    ``entries`` is the client's working copy of the result set — under
    the delta protocol it is patched in place of a full re-transfer;
    ``epoch`` is the server epoch the validity region was computed
    under, so a dataset update invalidates the entry.
    """

    key: Tuple
    response: Response
    entries: List[LeafEntry]
    epoch: int
    trace_id: Optional[str] = None

    def answers(self, key: Tuple, location) -> bool:
        """Can this entry answer a query with ``key`` at ``location``?"""
        return self.key == key and self.response.region.contains(location)


class MobileClient:
    """A location-aware client talking to a :class:`LocationServer`.

    ``metrics`` optionally names a metrics registry (duck-typed; see
    :class:`repro.obs.metrics.MetricsRegistry`) into which the
    client reports ``client.*`` counters alongside its local
    :class:`ClientStats`.
    """

    def __init__(self, server: LocationServer, incremental: bool = False,
                 metrics=None, max_stale: Optional[int] = None,
                 subscribe: bool = False):
        if max_stale is not None and max_stale < 0:
            raise ValueError("max_stale must be None or >= 0")
        if subscribe and not hasattr(server, "subscribe"):
            raise ValueError(
                "subscribe=True needs a server with a subscribe() method "
                "(a QueryService)")
        self.server = server
        self.incremental = incremental
        self.subscribed = subscribe
        self.stats = ClientStats()
        self.metrics = metrics
        #: Maximum server-epoch lag a fallback answer may have; ``None``
        #: disables graceful degradation (server errors propagate).
        self.max_stale = max_stale
        #: How the last update was answered: "cache", "server" or "stale".
        self.last_served: Optional[str] = None
        #: Epoch lag of the last stale answer (0 for fresh answers).
        self.last_staleness: int = 0
        #: One entry per query kind, opened on first use — any kind the
        #: registry knows (including third-party ones) caches here.
        self._caches: Dict[str, Optional[CacheEntry]] = {}
        #: Live subscriptions per query kind (subscription mode only).
        self._subs: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # the per-type entry points
    # ------------------------------------------------------------------
    def knn(self, location, k: int = 1) -> List[LeafEntry]:
        """The k nearest neighbours at ``location``, nearest first.

        Served locally whenever the cached validity region still covers
        the location (and the cached ``k`` matches).
        """
        entries = self._answer("knn", (k,), location,
                               KNNRequest(_point(location), k=k))
        return _sorted_by_distance(entries, location)

    def window(self, focus, width: float, height: float) -> List[LeafEntry]:
        """The window result for a window of fixed extents at ``focus``."""
        entries = self._answer("window", (width, height), focus,
                               WindowRequest(_point(focus), width, height))
        return list(entries)

    def range(self, location, radius: float) -> List[LeafEntry]:
        """All objects within ``radius`` of ``location`` (§7 extension)."""
        entries = self._answer("range", (radius,), location,
                               RangeRequest(_point(location), radius))
        return list(entries)

    def rknn(self, location, k: int = 1) -> List[LeafEntry]:
        """The objects that count ``location`` among their own k nearest
        (reverse kNN), cached under its bisector-fenced region."""
        from repro.core.rknn import RKNNRequest
        entries = self._answer("rknn", (k,), location,
                               RKNNRequest(_point(location), k=k))
        return list(entries)

    def probknn(self, location, uncertainty: float,
                k: int = 1) -> List[LeafEntry]:
        """The probabilistic kNN candidates for an uncertain location
        (a disk of radius ``uncertainty``), cached under the
        probability-banded annulus region."""
        from repro.core.probknn import ProbKNNRequest
        entries = self._answer(
            "probknn", (uncertainty, k), location,
            ProbKNNRequest(_point(location), uncertainty=uncertainty, k=k))
        return list(entries)

    def invalidate_cache(self) -> None:
        for kind in self._caches:
            self._caches[kind] = None

    def cache_entry(self, kind: str) -> Optional[CacheEntry]:
        """The live cache entry for ``kind``, or ``None``."""
        return self._caches.get(kind)

    # ------------------------------------------------------------------
    # the generic protocol
    # ------------------------------------------------------------------
    def _answer(self, kind: str, key: Tuple, location,
                request) -> List[LeafEntry]:
        """Cache check → (delta or full) server query → cache refresh.

        Returns the client's entry list for the query; callers must copy
        before handing it out (it is the cached working set).
        """
        self.stats.position_updates += 1
        self._count("client.position_updates")
        cached = self._caches.get(kind)
        # Keep a reference to an epoch-stale entry: it cannot answer
        # normally, but it is the fallback if the server fails.
        fallback = cached
        if self.subscribed:
            # Subscription mode: pushes (drained below) keep the cache
            # epoch-correct, so the epoch drop does not apply.
            try:
                return self._answer_subscribed(kind, key, location, request)
            except Exception as exc:
                return self._stale_fallback(key, fallback, exc)
        if cached is not None and cached.epoch != self.server.epoch:
            # Dataset changed under us: the region (and the delta base)
            # are both unusable.
            cached = self._caches[kind] = None
        if cached is not None and cached.answers(key, location):
            self.stats.cache_answers += 1
            self._count("client.cache_answers")
            self._event("client.cache_answer", kind=kind,
                        trace_id=cached.trace_id)
            self.last_served = "cache"
            self.last_staleness = 0
            return cached.entries
        request = _traced(request)
        try:
            if (self.incremental and cached is not None
                    and cached.key == key and hasattr(request, "as_delta")):
                response = self.server.answer(
                    request.as_delta(e.oid for e in cached.entries))
                entries = _apply_delta(cached.entries, response)
            else:
                response = self.server.answer(request)
                entries = list(response.result)
        except Exception as exc:
            return self._stale_fallback(key, fallback, exc)
        received = response.transfer_bytes()
        self.stats.server_queries += 1
        self.stats.bytes_received += received
        self._count("client.server_queries")
        self._count("client.bytes_received", received)
        self._caches[kind] = CacheEntry(
            key=key, response=response, entries=entries,
            epoch=self.server.epoch, trace_id=request.trace_id)
        self.last_served = "server"
        self.last_staleness = 0
        return entries

    def _answer_subscribed(self, kind: str, key: Tuple, location,
                           request) -> List[LeafEntry]:
        """The pub/sub protocol: drain pushes → cache check → move().

        The subscription's queue is drained first; its *last* update is
        authoritative (every push carries full state), refreshing or
        invalidating the cache.  A cache miss (the client left the
        region) becomes ``subscription.move()`` — repaired server-side
        from the candidate margin when sound, a full re-query
        otherwise.  Broken or shape-changed subscriptions are closed
        and re-established.
        """
        pair = self._subs.get(kind)
        sub = None
        if pair is not None:
            sub_key, sub = pair
            if sub_key != key or sub.broken or sub.closed:
                sub.close()
                del self._subs[kind]
                self._caches[kind] = None
                sub = None
        if sub is None:
            request = _traced(request)
            sub = self.server.subscribe(request)
            self._subs[kind] = (key, sub)
            self._event("client.subscribe", kind=kind,
                        trace_id=request.trace_id)
            return self._refresh_subscribed(kind, key, sub.response,
                                            request.trace_id)
        updates = sub.drain()
        if updates:
            self.stats.pushes_applied += len(updates)
            self._count("client.pushes_applied", len(updates))
            last = updates[-1]
            if last.kind == "patch":
                received = sum(u.transfer_bytes for u in updates)
                self.stats.bytes_received += received
                self._count("client.bytes_received", received)
                request = _traced(request)
                self._caches[kind] = CacheEntry(
                    key=key, response=last.response,
                    entries=list(last.response.result),
                    epoch=self.server.epoch, trace_id=request.trace_id)
            else:  # invalidated: the move() below re-queries
                self._caches[kind] = None
        cached = self._caches.get(kind)
        if cached is not None and cached.answers(key, location):
            self.stats.cache_answers += 1
            self._count("client.cache_answers")
            self._event("client.cache_answer", kind=kind,
                        trace_id=cached.trace_id)
            self.last_served = "cache"
            self.last_staleness = 0
            return cached.entries
        response = sub.move(_point(location))
        self.stats.subscription_moves += 1
        self._count("client.subscription_moves")
        return self._refresh_subscribed(kind, key, response,
                                        _traced(request).trace_id)

    def _refresh_subscribed(self, kind: str, key: Tuple,
                            response, trace_id) -> List[LeafEntry]:
        received = response.transfer_bytes()
        self.stats.server_queries += 1
        self.stats.bytes_received += received
        self._count("client.server_queries")
        self._count("client.bytes_received", received)
        entries = list(response.result)
        self._caches[kind] = CacheEntry(
            key=key, response=response, entries=entries,
            epoch=self.server.epoch, trace_id=trace_id)
        self.last_served = "server"
        self.last_staleness = 0
        return entries

    def close(self) -> None:
        """Tear down any live subscriptions (idempotent)."""
        for kind, (_key, sub) in list(self._subs.items()):
            sub.close()
            del self._subs[kind]

    def _stale_fallback(self, key: Tuple, cached: Optional[CacheEntry],
                        exc: Exception) -> List[LeafEntry]:
        """Serve the stale cache for a failed server call, or re-raise.

        Only *transient* failures (duck-typed ``transient`` attribute —
        page-read errors, an open breaker) are eligible, and only when a
        cached answer for the same query parameters exists whose epoch
        lag is within :attr:`max_stale`.  The cache is left as-is: the
        next successful query refreshes it.
        """
        if (self.max_stale is None
                or not getattr(exc, "transient", False)
                or cached is None or cached.key != key):
            raise exc
        lag = self.server.epoch - cached.epoch
        if lag > self.max_stale:
            raise exc
        self.stats.stale_answers += 1
        self._count("client.stale_answers")
        self._event("client.stale_answer", trace_id=cached.trace_id,
                    staleness=lag, error=f"{type(exc).__name__}: {exc}")
        self.last_served = "stale"
        self.last_staleness = lag
        return cached.entries

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _event(self, event: str, trace_id: Optional[str] = None,
               **fields) -> None:
        """Report into the server's event log when it keeps one.

        Duck-typed like ``metrics``: a bare :class:`LocationServer` has
        no ``events`` attribute and the client stays silent.
        """
        events = getattr(self.server, "events", None)
        if events is not None:
            events.emit("client", event=event, trace_id=trace_id, **fields)


def _traced(request):
    """``request`` carrying a trace id, minted here when it has none.

    The client is the edge of the pipeline: it mints the trace id the
    service and every layer below will correlate under.  It mints one
    for each request it sends and for each cache entry a push or a
    subscription move refreshes; an update answered from the cache
    reports the cached entry's id.
    """
    if request.trace_id is None:
        return replace(request, trace_id=new_trace_id())
    return request


def _point(location) -> Tuple[float, float]:
    return (float(location[0]), float(location[1]))


def _sorted_by_distance(entries: List[LeafEntry], location) -> List[LeafEntry]:
    return sorted(entries,
                  key=lambda e: distance_sq((e.x, e.y), location))


def _apply_delta(previous: List[LeafEntry],
                 delta: Response) -> List[LeafEntry]:
    removed = set(delta.removed_ids)
    entries = [e for e in previous if e.oid not in removed]
    entries.extend(delta.added)
    return entries
