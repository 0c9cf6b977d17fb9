"""Reverse-kNN validity queries.

A reverse-kNN query at ``q`` returns every data object ``o`` that
counts ``q`` among its own ``k`` nearest neighbours — formally,
``dist(o, q) < r_o`` where ``r_o`` is the distance from ``o`` to its
k-th nearest *data* object.  The thresholds ``r_o`` do not depend on
``q`` at all, which is what makes the query a natural fit for the
paper's validity-region contract: each member ``o`` stays a member
exactly while the client remains inside the disk ``D(o, r_o)``, so the
shipped region is the intersection of the member disks with a safety
disk around ``q`` that keeps every non-member out.

Candidates come from the classical 60-degree sector lemma: partition
the plane around ``q`` into six half-open sectors and keep the ``k``
``q``-nearest objects of each.  For any discarded object ``o`` there
are ``k`` kept objects ``c`` in its sector with ``dist(c, q) <=
dist(o, q)`` and an angle of at most 60 degrees at ``q``; the law of
cosines then gives ``dist(c, o) <= dist(o, q)``, so ``o`` already has
``k`` neighbours no farther than ``q`` — it can never be a member.
Only the (at most ``6k``) candidates need their exact k-NN distance.

The safety radius around ``q`` is the smallest of

* ``dist(c, q) - r_c`` over non-member candidates ``c`` (moving less
  keeps ``q`` outside their membership disks), and
* ``dist(o, q) - m_o`` over non-candidates ``o``, where ``m_o`` is the
  k-th smallest distance from ``o`` to the candidate set — an upper
  bound on ``r_o`` (a k-th order statistic over a subset dominates the
  one over the full set), and at most ``dist(o, q)`` by the sector
  lemma, so the slack is never negative.

Answers are computed from the server's epoch-cached
:class:`~repro.kernel.columns.PointColumns` snapshot
(``server.dataset_columns()``) in a few numpy passes, whatever the
kernel: ``arctan2`` bins the dataset into the six sectors and one
``lexsort`` on (sector, distance, oid) picks each sector's ``k``
nearest; one candidates × dataset squared-distance matrix, reduced with
``np.partition`` along each axis, then yields both the candidates'
exact k-NN radii and every non-candidate's bound ``m_o``.  Zero
simulated node accesses; the budget is ignored and responses are never
degraded.  The result is a *set* — entries are reported in oid order —
so cached answers re-serve without re-ranking.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import (
    QueryBudget,
    QueryDetail,
    QuerySemantics,
    register_query_type,
)
from repro.core.validity import (
    POINT_BYTES,
    CompositeValidityRegion,
    ValidityDisk,
)
from repro.geometry import Rect
from repro.index.entry import LeafEntry
from repro.kernel.columns import PointColumns

__all__ = [
    "RKNNDetail",
    "RKNNRequest",
    "RKNNResponse",
    "RKNNSemantics",
    "compute_rknn_validity",
]


@dataclass(frozen=True)
class RKNNRequest:
    """A reverse-kNN query: who counts ``location`` among its k nearest?"""

    kind: ClassVar[str] = "rknn"

    location: Tuple[float, float]
    k: int = 1
    trace_id: Optional[str] = None
    #: Accepted for interface parity; reverse-kNN answers from a
    #: dataset snapshot and never degrades, so the budget is ignored.
    budget: Optional[QueryBudget] = None
    #: Replica-read staleness bound (see ``KNNRequest.max_stale``).
    max_stale: Optional[int] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_stale is not None and self.max_stale < 0:
            raise ValueError("max_stale must be non-negative")


@dataclass
class RKNNDetail(QueryDetail):
    """How a reverse-kNN answer was derived (and what keeps it alive).

    ``member_knn`` maps each member oid to its sorted k smallest
    distances to other data objects — the exact competitor list the
    staleness and continuous tiers fold pending inserts into.
    ``candidates`` is the sector-filtered candidate set with
    ``candidate_radii`` their exact k-NN distances.
    """

    kind = "rknn"

    query: Tuple[float, float]
    k: int
    members: List[LeafEntry]
    member_knn: Dict[int, Tuple[float, ...]]
    candidates: Tuple[LeafEntry, ...]
    candidate_radii: Dict[int, float]
    #: Radius of the safety disk around the query point.
    safety_radius: float
    num_points: int
    degraded: bool = False

    @property
    def influence_set(self) -> List[LeafEntry]:
        member_ids = set(self.member_knn)
        return [c for c in self.candidates if c.oid not in member_ids]


@dataclass
class RKNNResponse:
    """What the server ships back for a reverse-kNN query."""

    result: List[LeafEntry]
    region: object
    detail: RKNNDetail

    def transfer_bytes(self) -> int:
        return POINT_BYTES * len(self.result) + self.region.transfer_bytes()


_SECTOR = math.pi / 3.0
_TWO_PI = 2.0 * math.pi
#: Angles within this many sector widths of a sector edge are binned
#: again with ``math.atan2``: numpy's ``arctan2`` may differ from libm's
#: in the last ulp, and which sector an edge point joins must not
#: depend on that.
_EDGE = 1e-9


def _sector(dx: float, dy: float) -> int:
    angle = math.atan2(dy, dx) % _TWO_PI
    return min(int(angle / _SECTOR), 5)


def compute_rknn_validity(entries, location, k: int,
                          universe: Rect) -> RKNNDetail:
    """The reverse-kNN answer and its validity machinery at ``location``.

    ``entries`` is a :class:`~repro.kernel.columns.PointColumns`
    snapshot or any iterable of leaf entries.
    """
    q = (float(location[0]), float(location[1]))
    cols = (entries if isinstance(entries, PointColumns)
            else PointColumns(entries))
    xs, ys, oids = cols.as_numpy()
    n = len(cols)
    diag = math.hypot(universe.width, universe.height)

    # 60-degree sector filter: at most 6k candidates survive.
    dx = xs - q[0]
    dy = ys - q[1]
    dist_q = np.sqrt(dx * dx + dy * dy)
    ratio = np.arctan2(dy, dx) % _TWO_PI / _SECTOR
    sector = np.minimum(ratio.astype(np.int64), 5)
    for i in np.flatnonzero(np.abs(ratio - np.rint(ratio)) < _EDGE).tolist():
        sector[i] = _sector(float(dx[i]), float(dy[i]))
    order = np.lexsort((oids, dist_q, sector))
    grouped = sector[order]
    rank = np.arange(n) - np.searchsorted(grouped, grouped)
    cand = order[rank < k]
    cand = cand[np.argsort(oids[cand])]

    # One candidates x dataset matrix of squared distances: its rows
    # give the candidates' exact k-NN distances (members are strict),
    # its non-candidate columns the bounds m_o below.
    d2 = (xs - xs[cand, None]) ** 2 + (ys - ys[cand, None]) ** 2
    d2[np.arange(len(cand)), cand] = math.inf  # not its own neighbour
    kk = max(0, min(k, n - 1))  # fewer than k others: r_c is infinite
    knn = (np.sqrt(np.sort(np.partition(d2, kk - 1, axis=1)[:, :kk], axis=1))
           if kk else np.empty((len(cand), 0)))
    radii = knn[:, k - 1] if kk == k else np.full(len(cand), math.inf)
    cand_q = dist_q[cand]
    is_member = cand_q < radii

    candidates = [cols.entries[i] for i in cand.tolist()]
    members, member_knn = [], {}
    for c, member, row in zip(candidates, is_member.tolist(), knn.tolist()):
        if member:
            members.append(c)
            member_knn[c.oid] = tuple(row)
    candidate_radii = dict(zip((c.oid for c in candidates), radii.tolist()))

    # Safety disk around q: keep every non-member out of membership.
    # Non-member candidates give dist - r_c; a non-candidate o gives
    # dist - m_o, with m_o its k-th smallest distance to the candidates
    # (an upper bound on r_o, and <= dist(o, q) by the sector lemma).
    slacks = [cand_q[~is_member] - radii[~is_member]]
    far = np.ones(n, dtype=bool)
    far[cand] = False
    if far.any():
        m_o = np.partition(d2[:, far], k - 1, axis=0)[k - 1]
        slacks.append(dist_q[far] - np.sqrt(m_o))
    rho = min((float(s.min()) for s in slacks if s.size), default=diag)
    rho = max(0.0, min(rho, diag))

    return RKNNDetail(
        query=q,
        k=k,
        members=members,
        member_knn=member_knn,
        candidates=tuple(candidates),
        candidate_radii=candidate_radii,
        safety_radius=rho,
        num_points=n,
    )


def _detail_region(detail: RKNNDetail, universe: Rect):
    diag = math.hypot(universe.width, universe.height)
    components = [ValidityDisk(m.point,
                               min(detail.member_knn[m.oid][detail.k - 1]
                                   if len(detail.member_knn[m.oid]) >= detail.k
                                   else math.inf, diag))
                  for m in detail.members]
    components.append(ValidityDisk(detail.query, detail.safety_radius))
    if len(components) == 1:
        return components[0]
    return CompositeValidityRegion(components)


def _insert_upper_bound(candidates, k: int, x: float, y: float) -> float:
    """An upper bound on the inserted point's k-NN distance, from the
    retained candidate set (a subset of the dataset)."""
    d2 = heapq.nsmallest(
        k, ((c.x - x) ** 2 + (c.y - y) ** 2 for c in candidates))
    if len(d2) < k:
        return math.inf
    return math.sqrt(d2[k - 1])


class RKNNSemantics(QuerySemantics):
    """Reverse-kNN behind the query-type registry."""

    kind = "rknn"
    request_type = RKNNRequest
    supports_subscriptions = True

    # --- execution ----------------------------------------------------
    def execute(self, server, request):
        detail = compute_rknn_validity(
            server.dataset_columns(), request.location, request.k,
            universe=server.universe)
        server.queries_processed += 1
        result = sorted(detail.members, key=lambda e: e.oid)
        return RKNNResponse(result=result,
                            region=_detail_region(detail, server.universe),
                            detail=detail)

    # --- cache --------------------------------------------------------
    def cache_key(self, request) -> Optional[tuple]:
        return ("rknn", request.k)

    # cache_survives stays the base False: a mutation anywhere can flip
    # an arbitrary object's k-NN threshold, so no surgical test is sound
    # without re-deriving the member radii (the staleness tier's job).

    # --- replica staleness --------------------------------------------
    def stale_region(self, request, response, pending, universe):
        detail: RKNNDetail = response.detail
        if any(m.op == "delete" for m in pending):
            return None  # a delete can only grow thresholds: members join
        loc = detail.query
        diag = math.hypot(universe.width, universe.height)
        updated: Dict[int, float] = {}
        member_knn = {oid: list(knn) for oid, knn in detail.member_knn.items()}
        slack = math.inf
        for m in pending:
            for member in detail.members:
                knn = member_knn[member.oid]
                d = math.hypot(member.x - m.x, member.y - m.y)
                if knn and len(knn) >= detail.k and d >= knn[-1]:
                    continue
                knn.append(d)
                knn.sort()
                del knn[detail.k:]
                if len(knn) >= detail.k:
                    radius = knn[detail.k - 1]
                    if math.hypot(member.x - loc[0],
                                  member.y - loc[1]) >= radius:
                        return None  # the insert evicts a member at q
                    updated[member.oid] = radius
            bound = _insert_upper_bound(detail.candidates, detail.k,
                                        m.x, m.y)
            gap = math.hypot(m.x - loc[0], m.y - loc[1]) - bound
            if gap <= 0.0:
                return None  # cannot refute the insert joining the result
            slack = min(slack, gap)
        components = [response.region]
        by_oid = {e.oid: e for e in detail.members}
        for oid, radius in updated.items():
            components.append(ValidityDisk(by_oid[oid].point,
                                           min(radius, diag)))
        components.append(ValidityDisk(loc, min(slack, diag)))
        return CompositeValidityRegion(components)

    # --- continuous ---------------------------------------------------
    def subscribe_init(self, hub, sub, request) -> None:
        response = hub.owner.answer(request)
        sub._state = _RknnSubState(request, response.detail)
        sub._needs_refresh = False
        hub._set_response(sub, list(response.result), response.region,
                          origin="subscribe")

    def continuous_apply(self, hub, sub, mutation) -> tuple:
        if mutation.op == "delete":
            return ("exhausted",)  # thresholds grow: members may join
        state: _RknnSubState = sub._state
        detail = state.detail
        loc = detail.query
        diag = math.hypot(hub.owner.universe.width,
                          hub.owner.universe.height)
        changed: List[Tuple[LeafEntry, float]] = []
        for member in detail.members:
            knn = state.member_knn[member.oid]
            d = math.hypot(member.x - mutation.x, member.y - mutation.y)
            if len(knn) >= detail.k and d >= knn[-1]:
                continue
            knn.append(d)
            knn.sort()
            del knn[detail.k:]
            if len(knn) >= detail.k:
                radius = knn[detail.k - 1]
                if math.hypot(member.x - loc[0],
                              member.y - loc[1]) >= radius:
                    return ("exhausted",)  # result changes: re-fetch
                changed.append((member, radius))
        bound = _insert_upper_bound(state.candidates, detail.k,
                                    mutation.x, mutation.y)
        gap = (math.hypot(mutation.x - loc[0], mutation.y - loc[1])
               - bound)
        if gap <= 0.0:
            return ("exhausted",)
        state.candidates.append(mutation.entry)
        region = CompositeValidityRegion(
            [sub.response.region]
            + [ValidityDisk(member.point, min(radius, diag))
               for member, radius in changed]
            + [ValidityDisk(loc, min(gap, diag))])
        return ("patch", list(sub.response.result), region)

    def continuous_move(self, hub, sub, location):
        if sub.response.region.contains(location):
            return ("serve", sub.response)
        return None

    def refetch_request(self, request, location):
        return replace(request, location=location)

    # --- oracle -------------------------------------------------------
    def oracle(self, points, request) -> Tuple[set, set]:
        eps = 1e-9
        pts = list(points)
        qx, qy = request.location
        must, may = set(), set()
        for o in pts:
            others = sorted(math.hypot(o.x - e.x, o.y - e.y)
                            for e in pts if e.oid != o.oid)
            radius = (others[request.k - 1]
                      if len(others) >= request.k else math.inf)
            d = math.hypot(o.x - qx, o.y - qy)
            if d < radius - eps:
                must.add(o.oid)
            if d < radius + eps:
                may.add(o.oid)
        return must, may


@dataclass
class _RknnSubState:
    """Server-retained reverse-kNN subscription state.

    ``member_knn`` is a mutable working copy of the members' competitor
    lists (pending inserts are folded in exactly); ``candidates`` grows
    with every applied insert so the refutation bound stays valid.
    """

    request: RKNNRequest
    detail: RKNNDetail
    member_knn: Dict[int, List[float]] = field(init=False)
    candidates: List[LeafEntry] = field(init=False)

    def __post_init__(self):
        self.member_knn = {oid: list(knn)
                           for oid, knn in self.detail.member_knn.items()}
        self.candidates = list(self.detail.candidates)


register_query_type(RKNNSemantics())
