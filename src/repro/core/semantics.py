"""Built-in query semantics: kNN, window and range as registry entries.

Everything the serving stack used to decide with ``isinstance`` ladders
— how to execute a request, how to key and adapt a cached answer, what
a dataset mutation does to an answer, how to patch a continuous
subscription — lives here as the three built-in
:class:`~repro.core.api.QuerySemantics` registrations.  The service
modules (:mod:`repro.service.cache`, :mod:`repro.service.staleness`,
:mod:`repro.service.continuous`, …) look the behaviour up through
:func:`~repro.core.api.query_semantics` and never name a concrete
request type, which is what lets reverse-kNN (:mod:`repro.core.rknn`),
probabilistic kNN (:mod:`repro.core.probknn`) and third-party types
plug into every tier without touching them.

The mutation rules live in one hook per kind, ``certify``: the cache,
the lagging replicas and the subscription patches all derive from it.
Next to it, ``reach`` bounds where a mutation can matter at all — a box
built from what ``certify`` reads, outside which it keeps the region —
so the cache certifies only the entries whose box holds a mutation.
``repro.core`` never imports ``repro.service`` (the dependency edge
points the other way); the hub reaches these hooks with itself as an
argument.

kNN subscriptions — the anchor/horizon invariant
------------------------------------------------
Subscribing a ``k``-NN query fetches ``k + margin`` neighbours of the
query point (the *anchor*) in one go and keeps the whole candidate set
server-side.  With ``horizon`` the distance of the farthest retrieved
candidate from the anchor, the retrieval guarantees the invariant

    every live non-candidate object is at distance >= horizon
    from the anchor,

and every mutation preserves it for free: an insert within the horizon
joins the candidate set, an insert beyond it is a no-op, a delete
removes at most one candidate.  Serving the top-``k`` at a point ``p``
purely from the candidates is sound whenever

    d_k(p) + dist(anchor, p) < horizon

(``d_k`` measured over the candidates): by the triangle inequality any
non-candidate is farther from ``p`` than the k-th candidate.  The
patched validity region is the intersection of

* the exact bisector half-planes between the ``k`` members and the
  remaining candidates (the re-ranked influence set — a local order-k
  cell over the candidate universe), and
* the safety disk of radius ``(horizon - dist(anchor, p) - d_k(p)) / 2``
  centred on ``p``, inside which no non-candidate can catch up.

Both pieces are computed from cached state with **zero node accesses**.
When the condition fails — the margin is exhausted by deletes, or the
client wandered too close to the horizon — the subscription falls back
to a full re-query (the soundness escape hatch).  The machine changes
the result, which ``certify`` never does, so kNN keeps it; window and
range subscriptions patch through ``certify`` for every mutation that
leaves their result alone.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.api import (
    KNNRequest,
    QuerySemantics,
    RangeRequest,
    WindowRequest,
    register_query_type,
)
from repro.core.range_validity import RangeValidityRegion
from repro.core.validity import (
    CompositeValidityRegion,
    NNValidityRegion,
    ValidityDisk,
    WindowValidityRegion,
)
from repro.geometry import Rect, bisector_halfplane
from repro.geometry.rect import _cut_away
from repro.index.entry import LeafEntry

__all__ = [
    "KNNSemantics",
    "RangeSemantics",
    "WindowSemantics",
]

#: Tie slack of the brute-force oracles: distances within EPS of the
#: decision boundary may legitimately fall on either side.
_EPS = 1e-9


def _dist(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _inserts(response, mutations) -> Optional[list]:
    """The inserts among ``mutations``, or ``None`` when one of them
    deletes a member of ``response.result``.

    A non-member delete is harmless anywhere in the region: the object
    is beaten everywhere the result is frozen, and removing it promotes
    nothing.
    """
    inserts = []
    for m in mutations:
        if m.op == "insert":
            inserts.append(m)
        elif any(e.oid == m.oid for e in response.result):
            return None
    return inserts


def _by_oid(result) -> List[LeafEntry]:
    return sorted(result, key=lambda e: e.oid)


#: A reach box's slack, relative to its largest coordinate magnitude or
#: widening: far above the few ulps by which ``certify``'s own tests
#: round, and too small to pull a far entry's mutations in.
_REACH_SLACK = 1e-9


def _widened(box: Rect, dx: float, dy: float) -> Rect:
    """``box`` widened by ``dx`` and ``dy`` plus the reach slack."""
    slack = _REACH_SLACK * max(abs(box.xmin), abs(box.ymin), abs(box.xmax),
                               abs(box.ymax), dx, dy)
    return box.inflated(dx + slack, dy + slack)


# ----------------------------------------------------------------------
# the kNN subscription machine
# ----------------------------------------------------------------------
class _KnnState:
    __slots__ = ("k", "anchor", "horizon", "point", "candidates")

    def __init__(self, k: int, anchor: Tuple[float, float], horizon: float,
                 point: Tuple[float, float],
                 candidates: Dict[int, LeafEntry]):
        self.k = k
        self.anchor = anchor
        self.horizon = horizon
        self.point = point
        self.candidates = candidates


def _knn_served(state: _KnnState, universe: Rect):
    """Top-k + patched region at ``state.point``, or ``None`` when the
    margin cannot prove the candidate set covers the true top-k."""
    point = state.point
    cands = sorted(state.candidates.values(),
                   key=lambda e: (_dist(e.point, point), e.oid))
    k = state.k
    if len(cands) < k:
        return None
    members, rest = cands[:k], cands[k:]
    d_k = _dist(members[-1].point, point)
    if math.isinf(state.horizon):
        # The candidates are the whole dataset: always serveable.
        slack = math.inf
    else:
        slack = state.horizon - _dist(state.anchor, point)
        if d_k >= slack:
            return None  # a non-candidate could undercut the k-th member
    radius = math.inf if math.isinf(slack) else (slack - d_k) / 2.0
    radius = min(radius, math.hypot(universe.width, universe.height))
    if radius <= 0.0:
        return None
    disk = ValidityDisk(point, radius)
    if not rest:
        return members, disk
    pairs = [(m, r) for m in members for r in rest]
    try:
        fences = NNValidityRegion(pairs, universe)
    except ValueError:  # coincident member/non-member: bisector undefined
        return None
    return members, CompositeValidityRegion([fences, disk])


def _knn_apply(state: _KnnState, m) -> str:
    """Fold one mutation into the candidate set (idempotent by oid)."""
    if m.op == "insert":
        if m.oid in state.candidates:
            return "skip"
        if _dist((m.x, m.y), state.anchor) >= state.horizon:
            return "skip"  # invariant untouched, old region still sound
        state.candidates[m.oid] = m.entry
        return "patch"  # region must shrink against the newcomer
    if m.oid not in state.candidates:
        return "skip"
    was_member = m.oid in {
        e.oid for e in sorted(
            state.candidates.values(),
            key=lambda e: (_dist(e.point, state.point), e.oid))[:state.k]}
    del state.candidates[m.oid]
    # A deleted non-member only removes a competitor: the shipped
    # result and region both stay sound without a push.
    return "patch" if was_member else "silent"


def _corners(box: Rect):
    """The corners of a kNN region's MBR, or ``None`` when the box is
    degenerate and bounds nothing (an empty clip parks it at the
    universe corner)."""
    if not (box.xmin < box.xmax and box.ymin < box.ymax):
        return None
    return ((box.xmin, box.ymin), (box.xmax, box.ymin),
            (box.xmax, box.ymax), (box.xmin, box.ymax))


def _walled_off(members, m, corners) -> bool:
    """Is insert ``m`` beaten by every member at each corner of the
    region's MBR?  The bisector half-planes are convex, so the corners
    bound the whole MBR, hence the whole region."""
    for n in members:
        if n.x == m.x and n.y == m.y:
            return False  # coincident: bisector undefined
        halfplane = bisector_halfplane((n.x, n.y), (m.x, m.y))
        if not all(map(halfplane.contains, corners)):
            return False
    return True


class KNNSemantics(QuerySemantics):
    """The k-nearest-neighbours query (paper Section 3)."""

    kind = "knn"
    request_type = KNNRequest
    supports_subscriptions = True

    # --- execution ----------------------------------------------------
    def execute(self, server, request):
        return server._knn(request.location, k=request.k,
                           vertex_policy=request.vertex_policy,
                           budget=request.budget)

    # --- cache --------------------------------------------------------
    def cache_key(self, request) -> Optional[tuple]:
        if request.previous_ids is not None:
            return None
        return ("knn", request.k)

    def serve_cached(self, request, inner):
        qx, qy = request.location
        ranked = sorted(
            inner.result,
            key=lambda e: ((e.x - qx) ** 2 + (e.y - qy) ** 2, e.oid))
        if list(inner.result) == ranked:
            return inner
        return replace(inner, neighbors=ranked)

    # --- the mutation certificate -------------------------------------
    def certify(self, request, response, mutations, universe):
        """A deleted member or an insert joining an under-full result
        gives ``None``.  An insert walled off from the region's MBR by
        every member's bisector has no effect; the others add their
        member x insert bisector pairs to the region."""
        region = response.region
        inserts = _inserts(response, mutations)
        if not inserts:
            return region if inserts is not None else None
        members = response.result
        if len(members) < request.k:
            return None  # the insert joins an under-full result
        corners = _corners(region.mbr())
        reaching = inserts
        if corners is not None:  # else no insert is walled off
            reaching = [m for m in inserts
                        if not _walled_off(members, m, corners)]
        if not reaching:
            return region
        try:
            closer_than_inserts = NNValidityRegion(
                [(n, m.entry) for m in reaching for n in members], universe)
        except ValueError:  # an insert on a member: bisector undefined
            return None
        if not closer_than_inserts.contains(request.location):
            return None  # an insert beats a member at the location itself
        return CompositeValidityRegion([region, closer_than_inserts])

    def reach(self, request, response):
        """The region's MBR widened by the largest distance from one of
        its corners to a member.  An insert outside is farther from
        every corner than any member is, so every member's bisector
        walls it off (the test in :meth:`certify`).  ``None`` where
        that test walls nothing off: an under-full result or a
        degenerate MBR."""
        members = response.result
        if len(members) < request.k:
            return None
        box = response.region.mbr()
        corners = _corners(box)
        if corners is None:
            return None
        far = math.sqrt(max((cx - n.x) ** 2 + (cy - n.y) ** 2
                            for cx, cy in corners for n in members))
        return _widened(box, far, far)

    # --- continuous ---------------------------------------------------
    def subscribe_init(self, hub, sub, request) -> None:
        fetch = replace(request, k=request.k + hub.config.margin,
                        previous_ids=None)
        response = hub.owner.answer(fetch)
        cands = list(response.result)
        anchor = (float(request.location[0]), float(request.location[1]))
        # Fewer candidates than asked for means the fetch returned the
        # whole dataset: no non-candidate exists, the horizon is open.
        horizon = math.inf
        if len(cands) >= fetch.k:
            horizon = max(_dist(e.point, anchor) for e in cands)
        sub._state = _KnnState(k=request.k, anchor=anchor, horizon=horizon,
                               point=anchor,
                               candidates={e.oid: e for e in cands})
        sub._needs_refresh = False
        served = _knn_served(sub._state, hub.owner.universe)
        if served is not None:
            members, region = served
        elif len(cands) < request.k:
            # The answer is "everything there is"; the fetched region
            # (however the server shaped it) bounds that claim.
            members, region = cands, response.region
        else:
            # Distance tie exactly at the horizon: correct here, but
            # nowhere else provably — serve a point-sized region.
            members, region = (sorted(
                cands, key=lambda e: (_dist(e.point, anchor), e.oid))[:request.k],
                ValidityDisk(anchor, 0.0))
        hub._set_response(sub, members, region, origin="subscribe")

    def continuous_apply(self, hub, sub, mutation) -> tuple:
        code = _knn_apply(sub._state, mutation)
        if code != "patch":
            return (code,)
        served = _knn_served(sub._state, hub.owner.universe)
        if served is None:
            return ("exhausted",)
        return ("patch",) + served

    def continuous_move(self, hub, sub, location):
        state = sub._state
        previous = state.point
        state.point = location
        served = _knn_served(state, hub.owner.universe)
        if served is not None:
            return ("patch",) + served
        state.point = previous
        return None

    def refetch_request(self, request, location):
        return replace(request, location=location, previous_ids=None)

    # --- oracle -------------------------------------------------------
    def oracle(self, points, request) -> Tuple[set, set]:
        qx, qy = request.location
        ranked = sorted((math.hypot(e.x - qx, e.y - qy), e.oid)
                        for e in points)
        if len(ranked) <= request.k:
            ids = {oid for _, oid in ranked}
            return ids, ids
        kth = ranked[request.k - 1][0]
        must = {oid for d, oid in ranked if d < kth - _EPS}
        may = {oid for d, oid in ranked if d <= kth + _EPS}
        return must, may


class _MembershipPatches(QuerySemantics):
    """Subscription patches of the set-valued kinds (window, range).

    Two mutations change the result: a member's delete (the region
    stays — the member was in the answer at every point of it) and an
    insert that joins the answer (:meth:`_join`).  Every other mutation
    leaves the result alone and goes to :meth:`certify`.  Patched
    results are listed in oid order.
    """

    def _join(self, request, region, m):
        """``(joins, region)``: does insert ``m`` join the answer, and
        if so the region of the enlarged answer (``None``: none)."""
        raise NotImplementedError

    def continuous_apply(self, hub, sub, mutation) -> tuple:
        current = sub.response
        member = any(e.oid == mutation.oid for e in current.result)
        if member:
            if mutation.op == "insert":
                return ("skip",)  # the fetch already saw it
            return ("patch", _by_oid(e for e in current.result
                                     if e.oid != mutation.oid),
                    current.region)
        if mutation.op == "insert":
            joins, region = self._join(sub.request, current.region, mutation)
            if joins:
                if region is None:
                    return ("exhausted",)
                return ("patch", _by_oid(list(current.result)
                                         + [mutation.entry]), region)
        region = self.certify(sub.request, current, (mutation,),
                              hub.owner.universe)
        if region is None:
            return ("exhausted",)
        if region is current.region:
            return ("skip",)
        return ("patch", _by_oid(current.result), region)


class WindowSemantics(_MembershipPatches):
    """The window query centred on the client (paper Section 4)."""

    kind = "window"
    request_type = WindowRequest
    supports_subscriptions = True

    # --- execution ----------------------------------------------------
    def execute(self, server, request):
        return server._window(request.focus, request.width, request.height,
                              budget=request.budget)

    # --- cache --------------------------------------------------------
    def location(self, request) -> Tuple[float, float]:
        return request.focus

    def cache_key(self, request) -> Optional[tuple]:
        if request.previous_ids is not None:
            return None
        return ("window", request.width, request.height)

    # --- the mutation certificate -------------------------------------
    @staticmethod
    def _zone(request, m) -> Rect:
        """The foci whose query window contains the inserted point."""
        hw, hh = request.width / 2.0, request.height / 2.0
        return Rect(m.x - hw, m.y - hh, m.x + hw, m.y + hh)

    @staticmethod
    def _bound(region) -> Optional[Rect]:
        """The region's rectangle, or for a region without one (a
        brownout composite) its MBR; ``None`` when it has neither."""
        rect = getattr(region, "rect", None)
        if rect is not None:
            return rect
        get = getattr(region, "mbr", None)
        return get() if get is not None else None

    def certify(self, request, response, mutations, universe):
        """A deleted member gives ``None``; an insert whose zone misses
        the region has no effect, one whose zone holds the focus gives
        ``None``, and any other zone is cut away from the rectangle.  A
        region without a rectangle (a brownout composite) is bounded by
        its MBR and gives ``None`` on any zone that reaches it."""
        region = response.region
        inserts = _inserts(response, mutations)
        if not inserts:
            return region if inserts is not None else None
        focus = request.focus
        rect = getattr(region, "rect", None)
        bound = self._bound(region)
        if bound is None:
            return None
        cut = False
        for m in inserts:
            zone = self._zone(request, m)
            if not zone.intersects(bound):
                continue
            if rect is None or zone.contains_point(focus):
                return None
            rect = bound = _cut_away(rect, zone, focus)
            cut = True
        return WindowValidityRegion(rect) if cut else region

    def reach(self, request, response):
        """The bound :meth:`certify` tests zones against, widened by
        half the window: an insert outside has a zone that misses it."""
        bound = self._bound(response.region)
        if bound is None:
            return None
        return _widened(bound, request.width / 2.0, request.height / 2.0)

    # --- continuous ---------------------------------------------------
    def _join(self, request, region, m):
        zone = self._zone(request, m)
        if not zone.contains_point(request.focus):
            return False, None
        rect = getattr(region, "rect", None)
        shrunk = rect.intersection(zone) if rect is not None else None
        return True, (WindowValidityRegion(shrunk)
                      if shrunk is not None else None)

    def refetch_request(self, request, location):
        return replace(request, focus=location, previous_ids=None)

    # --- oracle -------------------------------------------------------
    def oracle(self, points, request) -> Tuple[set, set]:
        fx, fy = request.focus
        hw, hh = request.width / 2.0, request.height / 2.0
        must = {e.oid for e in points
                if abs(e.x - fx) < hw - _EPS and abs(e.y - fy) < hh - _EPS}
        may = {e.oid for e in points
               if abs(e.x - fx) <= hw + _EPS and abs(e.y - fy) <= hh + _EPS}
        return must, may


class RangeSemantics(_MembershipPatches):
    """The circular range query (the Section 7 extension)."""

    kind = "range"
    request_type = RangeRequest
    supports_subscriptions = True

    # --- execution ----------------------------------------------------
    def execute(self, server, request):
        return server._range(request.location, request.radius,
                             budget=request.budget)

    # --- cache --------------------------------------------------------
    def cache_key(self, request) -> Optional[tuple]:
        if request.previous_ids is not None:
            return None
        return ("range", request.radius)

    # --- the mutation certificate -------------------------------------
    def certify(self, request, response, mutations, universe):
        """A deleted member gives ``None``.  An insert at distance ``d``
        from the region's centre has no effect when ``d - radius`` is at
        least the region's radius, gives ``None`` within ``radius`` of
        the location, and otherwise caps the region's radius at
        ``d - radius`` (moving less keeps it out of range)."""
        region = response.region
        inserts = _inserts(response, mutations)
        if not inserts:
            return region if inserts is not None else None
        center = getattr(region, "center", None)
        if center is None:
            return None  # a brownout composite: no disk to shrink
        radius = float(request.radius)
        validity = region.radius
        loc = request.location
        for m in inserts:
            d = _dist((m.x, m.y), center)
            if d - radius >= validity:
                continue
            if _dist((m.x, m.y), loc) <= radius:
                return None  # the insert is in range at the location
            validity = d - radius
        if validity == region.radius:
            return region
        shrunk = RangeValidityRegion(center, max(validity, 0.0))
        return shrunk if shrunk.contains(loc) else None

    def reach(self, request, response):
        """The region's centre plus or minus the query radius plus the
        region's radius: an insert outside is farther than that from
        the centre, which :meth:`certify` lets pass."""
        region = response.region
        center = getattr(region, "center", None)
        if center is None:
            return None
        far = float(request.radius) + region.radius
        return _widened(Rect(center[0], center[1], center[0], center[1]),
                        far, far)

    # --- continuous ---------------------------------------------------
    def _join(self, request, region, m):
        # Judged at the region's own centre: the answer was computed
        # there, whichever point the subscriber asked from.
        if getattr(region, "center", None) is None:
            return True, None  # a brownout composite: no disk to judge by
        radius = float(request.radius)
        d = _dist((m.x, m.y), region.center)
        if d > radius:
            return False, None
        return True, RangeValidityRegion(
            region.center, max(min(region.radius, radius - d), 0.0))

    def refetch_request(self, request, location):
        return replace(request, location=location, previous_ids=None)

    # --- oracle -------------------------------------------------------
    def oracle(self, points, request) -> Tuple[set, set]:
        qx, qy = request.location
        radius = request.radius
        must = {e.oid for e in points
                if math.hypot(e.x - qx, e.y - qy) < radius - _EPS}
        may = {e.oid for e in points
               if math.hypot(e.x - qx, e.y - qy) <= radius + _EPS}
        return must, may


register_query_type(KNNSemantics())
register_query_type(WindowSemantics())
register_query_type(RangeSemantics())
