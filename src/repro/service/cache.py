"""The server-side validity-region cache.

The paper puts the validity region to work on the *client*: each mobile
user caches one response and re-answers its own position updates for as
long as it stays inside the region.  The same contract is just as
exploitable on the *server*: a response whose validity region covers a
**different** user's query point answers that query too — by
definition, the result is provably identical anywhere inside the
region.  :class:`ValidityCache` is that idea as an in-memory spatial
structure (the INSQ-style influence-set cache, arXiv:1602.00363):

* every admitted response is indexed by the **MBR of its validity
  region** in a uniform grid over the universe, and within each cell by
  its query *shape* (the request's cache key: same ``k``, same window
  extents, same range radius), so a probe inspects only the entries of
  its own shape whose region can possibly cover the query point;
* a probe is a hit when the query point passes the exact
  ``region.contains`` test of the geometry layer — never the MBR alone,
  so hits inherit the paper's correctness guarantee unchanged.  A
  four-comparison pre-test against the entry's MBR (widened by a small
  slack, see :func:`_pretest_box`) skips ``contains`` for entries whose
  region cannot hold the point; it never rejects a point ``contains``
  accepts, so it changes which entries are *tested*, not which one hits;
* entries are evicted LRU once ``capacity`` is exceeded;
* the dataset-mutation hook is **surgical** (:meth:`invalidate_mutation`):
  a mutation drops only the entries whose answer it can change
  somewhere in their region — the kind's mutation certificate
  (:meth:`~repro.core.api.QuerySemantics.certify`) must return the
  entry's own region — and re-stamps every survivor to the new dataset
  epoch, so hit rates stay high under write traffic.  A mutation
  outside an entry's reach box
  (:meth:`~repro.core.api.QuerySemantics.reach`) re-stamps it without
  a certificate.  The pre-existing drop-everything hook
  (:meth:`invalidate_all`) remains as the ``surgical=False`` baseline.

A cache hit costs zero node accesses: the request never reaches the
index, which is what turns a stream of moving-client queries into
mostly O(1) lookups.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.api import (
    Mutation,
    QueryRequest,
    QueryResponse,
    query_semantics,
)
from repro.geometry import Rect

__all__ = ["CacheConfig", "ValidityCache"]


@dataclass(frozen=True)
class CacheConfig:
    """Shape of a :class:`ValidityCache`.

    ``capacity`` bounds the number of retained responses (LRU beyond
    it); ``grid`` is the resolution of the uniform cell grid the region
    MBRs are indexed in; ``admit_degraded`` controls whether
    budget-degraded responses (tiny conservative regions) are worth
    caching at all; ``surgical`` selects the mutation hook — overlap
    tests that keep unaffected entries alive (the default) versus the
    drop-everything baseline.
    """

    capacity: int = 1024
    grid: int = 16
    admit_degraded: bool = False
    surgical: bool = True

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        if self.grid < 1:
            raise ValueError("grid must be positive")


#: Slack of the MBR pre-test, relative to the coordinate scale.
_PRETEST_SLACK = 1e-6


#: The reach bounds of an entry whose kind gives no box: every
#: comparison with a NaN is false, so every mutation goes to ``certify``.
_NO_REACH = (math.nan, math.nan, math.nan, math.nan)


class _Entry:
    """One cached response, the request that admitted it, and where its
    region MBR is registered."""

    __slots__ = ("uid", "key", "request", "response", "epoch", "cells",
                 "mbr", "box", "rxmin", "rymin", "rxmax", "rymax")

    def __init__(self, uid: int, key: Tuple, request: QueryRequest,
                 response: QueryResponse, epoch: int,
                 cells: Tuple[Tuple[int, int], ...], mbr: Rect,
                 box: Optional[Tuple[float, float, float, float]]):
        self.uid = uid
        self.key = key
        self.request = request
        self.response = response
        self.epoch = epoch
        self.cells = cells
        self.mbr = mbr
        #: The probe's pre-test bounds (``None``: ``contains`` decides).
        self.box = box
        #: The bounds of the kind's reach box (``_NO_REACH`` without
        #: one); ``rxmin`` is ``None`` until the first mutation sets them.
        self.rxmin = None


def _set_reach(entry: _Entry) -> None:
    """Set the entry's reach bounds from its kind's ``reach`` box."""
    box = query_semantics(entry.request).reach(entry.request, entry.response)
    entry.rxmin, entry.rymin, entry.rxmax, entry.rymax = (
        _NO_REACH if box is None else box)


def _pretest_box(mbr: Rect, scale: float
                 ) -> Optional[Tuple[float, float, float, float]]:
    """``mbr`` widened so that no point ``contains`` accepts lies
    outside it, or ``None`` when the MBR cannot be trusted that way.

    A kNN region's MBR spans the vertices of its clipped polygon while
    ``contains`` tests the bisector half-planes themselves, and a disk's
    MBR is its centre plus or minus the radius.  Rounding puts either a
    few ulps of the coordinate scale short of what ``contains`` accepts,
    except at the tip of a needle where two bisectors meet at an angle
    ``a``: the clipped tip moves along the needle by about 2e-17 of the
    scale divided by ``a``.  ``_PRETEST_SLACK`` (1e-6) of ``scale`` — the
    largest coordinate magnitude of the universe and the box — covers
    the ulps with nine orders of magnitude to spare, and needles down to
    ``a`` of ~1e-10 rad (influence objects ~1e-10 of the scale apart).
    A degenerate box bounds nothing (an empty kNN clip parks its MBR at
    the universe corner, a numerically disjoint intersection collapses
    to a point), so it gets no pre-test: ``contains`` alone decides.
    """
    if not (mbr.xmin < mbr.xmax and mbr.ymin < mbr.ymax):
        return None
    slack = _PRETEST_SLACK * max(scale, abs(mbr.xmin), abs(mbr.ymin),
                                 abs(mbr.xmax), abs(mbr.ymax))
    return (mbr.xmin - slack, mbr.ymin - slack,
            mbr.xmax + slack, mbr.ymax + slack)


def request_key(request: QueryRequest) -> Optional[Tuple]:
    """The cache key of a request, or ``None`` when it is uncacheable.

    Incremental (delta) requests bypass the cache: their response is
    relative to the caller's ``previous_ids``, so it is not reusable
    verbatim.  The budget is deliberately *not* part of the key — a
    cached full-region response satisfies any budget, since serving it
    costs no work at all.
    """
    try:
        sem = query_semantics(request)
    except TypeError:
        return None
    return sem.cache_key(request)


def request_location(request: QueryRequest) -> Tuple[float, float]:
    """The query point of any typed request."""
    return query_semantics(request).location(request)


class ValidityCache:
    """A thread-safe spatial cache of responses keyed by validity region."""

    def __init__(self, universe: Rect,
                 config: Optional[CacheConfig] = None):
        self.universe = universe
        self.config = config if config is not None else CacheConfig()
        self._lock = threading.Lock()
        self._uids = 0
        #: LRU order: oldest first.
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        #: ``(cell, cache key)`` -> that shape's entries over the cell,
        #: in admission order.
        self._grid: Dict[Tuple[Tuple[int, int], Tuple],
                         Dict[int, _Entry]] = {}
        #: The coordinate scale the MBR pre-test's slack is relative to.
        self._scale = max(abs(universe.xmin), abs(universe.ymin),
                          abs(universe.xmax), abs(universe.ymax),
                          universe.width, universe.height)
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0
        self.surgical_drops = 0
        self.surgical_survivals = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------
    def probe(self, request: QueryRequest, epoch: int
              ) -> Optional[QueryResponse]:
        """The cached response answering ``request``, if any.

        A hit is the newest entry with the same query shape, computed
        under the current dataset ``epoch``, whose validity region
        contains the request's query point.  Only that shape's bucket of
        the point's cell is walked; its epoch-stale entries found along
        the way are dropped lazily.
        """
        key = request_key(request)
        if key is None or self.config.capacity == 0:
            return None
        location = request_location(request)
        x, y = location
        cell = self.universe.grid_index(location, self.config.grid,
                                        self.config.grid)
        with self._lock:
            bucket = self._grid.get((cell, key))
            if bucket:
                stale = []
                hit: Optional[_Entry] = None
                # Newest entries first: fresher regions, hotter answers.
                for entry in reversed(bucket.values()):
                    if entry.epoch != epoch:
                        stale.append(entry)
                        continue
                    box = entry.box
                    if box is not None and not (box[0] <= x <= box[2]
                                                and box[1] <= y <= box[3]):
                        continue
                    if entry.response.region.contains(location):
                        hit = entry
                        break
                for entry in stale:
                    self._remove(entry)
                if hit is not None:
                    self._entries.move_to_end(hit.uid)
                    self.hits += 1
                    return hit.response
            self.misses += 1
            return None

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def admit(self, request: QueryRequest, response: QueryResponse,
              epoch: int) -> bool:
        """Index ``response`` under its validity region's MBR.

        Returns False (and caches nothing) for uncacheable requests,
        regions that expose no finite MBR, and — unless configured
        otherwise — degraded responses, whose conservative regions are
        too small to be worth a slot.
        """
        key = request_key(request)
        if key is None or self.config.capacity == 0:
            return False
        if (not self.config.admit_degraded
                and bool(getattr(response.detail, "degraded", False))):
            return False
        mbr_of = getattr(response.region, "mbr", None)
        mbr = mbr_of() if mbr_of is not None else None
        if mbr is None:  # unbounded region: clamp to the universe
            mbr, box = self.universe, None
        else:
            box = _pretest_box(mbr, self._scale)
        n = self.config.grid
        ix0, iy0, ix1, iy1 = self.universe.grid_range(mbr, n, n)
        cells = tuple((ix, iy)
                      for ix in range(ix0, ix1 + 1)
                      for iy in range(iy0, iy1 + 1))
        with self._lock:
            self._uids += 1
            entry = _Entry(self._uids, key, request, response, epoch, cells,
                           mbr, box)
            self._entries[entry.uid] = entry
            for cell in cells:
                self._grid.setdefault((cell, key), {})[entry.uid] = entry
            self.insertions += 1
            while len(self._entries) > self.config.capacity:
                _, oldest = self._entries.popitem(last=False)
                self._unlink(oldest)
                self.evictions += 1
        return True

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_all(self) -> int:
        """Drop everything (the blunt mutation hook); returns the count."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._grid.clear()
            if dropped:
                self.invalidations += 1
        return dropped

    def invalidate_mutation(self, op: str, oid: int, x: float, y: float,
                            epoch: int) -> int:
        """Surgically apply one dataset mutation; returns entries dropped.

        ``epoch`` is the dataset epoch *after* the mutation.  An entry
        survives — re-stamped to the new epoch, still servable — iff its
        kind's :meth:`~repro.core.api.QuerySemantics.certify` returns the
        entry's own region for the mutation: no point of the region sees
        a different answer.  Everything else (a shrunk or uncertifiable
        region, an entry whose epoch already lagged) is dropped.  The
        certificates are conservative — sound in the only direction that
        matters: never keep an entry the mutation could touch.

        The paper bounds how far a mutation reaches: a kNN answer
        changes only for an object nearer some vertex of its region
        than a member (§3), a window answer only for an object whose
        Minkowski region meets the validity region (§4).  The kind's
        :meth:`~repro.core.api.QuerySemantics.reach` box, computed once
        at an entry's first mutation, states that bound, and a mutation
        point outside it re-stamps the entry without a ``certify`` call.
        A point with a NaN or infinite coordinate is outside no box: it
        goes to ``certify``.  The walk stays one scan of the
        (capacity-bounded) entry table, since every survivor is
        re-stamped, and it keeps exactly the entries ``certify`` alone
        would keep.
        """
        mutations = (Mutation(op, oid, float(x), float(y)),)
        x, y = mutations[0].x, mutations[0].y
        if not (math.isfinite(x) and math.isfinite(y)):
            x = y = math.nan  # every comparison with a box is false
        universe = self.universe
        previous = epoch - 1
        drops = []
        with self._lock:
            for entry in self._entries.values():
                if entry.epoch != previous:
                    drops.append(entry)
                    continue
                if entry.rxmin is None:
                    _set_reach(entry)
                if (x < entry.rxmin or x > entry.rxmax
                        or y < entry.rymin or y > entry.rymax):
                    entry.epoch = epoch
                    continue
                response = entry.response
                if query_semantics(entry.request).certify(
                        entry.request, response, mutations,
                        universe) is response.region:
                    entry.epoch = epoch
                else:
                    drops.append(entry)
            for entry in drops:
                self._remove(entry)
            self.surgical_drops += len(drops)
            self.surgical_survivals += len(self._entries)
            if drops:
                self.invalidations += 1
        return len(drops)

    # ------------------------------------------------------------------
    # internals (call with the lock held)
    # ------------------------------------------------------------------
    def _remove(self, entry: _Entry) -> None:
        if self._entries.pop(entry.uid, None) is not None:
            self._unlink(entry)

    def _unlink(self, entry: _Entry) -> None:
        for cell in entry.cells:
            slot = (cell, entry.key)
            bucket = self._grid.get(slot)
            if bucket is not None:
                bucket.pop(entry.uid, None)
                if not bucket:
                    del self._grid[slot]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable cache state and accounting."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.config.capacity,
                "grid": self.config.grid,
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": self.hit_ratio,
                "insertions": self.insertions,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "surgical": self.config.surgical,
                "surgical_drops": self.surgical_drops,
                "surgical_survivals": self.surgical_survivals,
            }
