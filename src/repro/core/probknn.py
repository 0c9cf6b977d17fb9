"""Probabilistic kNN under client location uncertainty.

The client does not know its position exactly — only that it lies in a
disk of radius ``uncertainty`` around a reported ``location``.  A
probabilistic kNN query returns every object that could possibly be
among the ``k`` nearest for *some* position in the disk, annotated with
a conservative membership probability and a three-way band:

* ``certain`` — the object is in the top-k for **every** position in
  the disk (fewer than ``k`` competitors can undercut it even in the
  worst case: ``#{j : d_j < d_o + 2u} <= k - 1``);
* ``likely`` — estimated membership probability at least one half
  (``d_o <= D_k + u``);
* ``possible`` — everything else within the candidate horizon.

With ``d_o`` the distance from the reported centre to object ``o``,
``D_k`` the k-th smallest such distance and ``u`` the uncertainty
radius, the candidate horizon is ``d_o <= D_k + 2u``: any object
farther than that is beaten by ``k`` others at every disk position
(the true position moves every distance by at most ``u``).  The
probability estimate ``p_o = clamp((D_k + 2u - d_o) / 2u, 0, 1)``
linearizes the overlap of the horizon with the uncertainty disk — a
deliberately simple, monotone surrogate; the *bands* carry the
guarantees.

The shipped validity region is an annulus (degenerating to a disk)
around the reported centre: wherever the centre stays within the
region, the candidate set, the band labels and the distance ordering
of the candidates are all unchanged, because every slack that could
flip one of those decisions is at least twice the region radius (each
comparand moves by at most the displacement, including the order
statistic ``D_k``).  Numeric probabilities drift continuously and are
recomputable client-side.

Like reverse-kNN, answers come from the server's epoch-cached
:class:`~repro.kernel.columns.PointColumns` snapshot, whatever the
kernel: one sort of the centre distances, then ``searchsorted`` over the
sorted column for the horizon, the rival counts and the band-flip
slacks; only the in-horizon prefix is touched after the sort.  Zero
simulated node accesses, budgets ignored, never degraded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import (
    QueryBudget,
    QueryDetail,
    QuerySemantics,
    register_query_type,
)
from repro.core.validity import POINT_BYTES, AnnulusValidityRegion
from repro.geometry import Rect
from repro.index.entry import LeafEntry
from repro.kernel.columns import PointColumns

__all__ = [
    "ProbKNNDetail",
    "ProbKNNRequest",
    "ProbKNNResponse",
    "ProbKNNSemantics",
    "compute_probknn_validity",
]


@dataclass(frozen=True)
class ProbKNNRequest:
    """A kNN query under a location-uncertainty disk."""

    kind: ClassVar[str] = "probknn"

    location: Tuple[float, float]
    #: Radius of the client's location-uncertainty disk (> 0).
    uncertainty: float
    k: int = 1
    trace_id: Optional[str] = None
    #: Accepted for interface parity; snapshot-answered, never degraded.
    budget: Optional[QueryBudget] = None
    #: Replica-read staleness bound (see ``KNNRequest.max_stale``).
    max_stale: Optional[int] = None

    def __post_init__(self):
        if self.uncertainty <= 0:
            raise ValueError("uncertainty must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_stale is not None and self.max_stale < 0:
            raise ValueError("max_stale must be non-negative")


@dataclass
class ProbKNNDetail(QueryDetail):
    """The probability-ranked candidate horizon of a probabilistic kNN.

    ``distances``, ``probabilities`` and ``bands`` align with the
    response's result list (sorted by centre distance, ties by oid).
    """

    kind = "probknn"

    query: Tuple[float, float]
    k: int
    uncertainty: float
    #: k-th smallest centre distance over the whole dataset.
    kth_distance: float
    distances: Tuple[float, ...]
    probabilities: Tuple[float, ...]
    bands: Tuple[str, ...]
    #: Radius of the shipped annulus region.
    safety_radius: float
    num_points: int
    degraded: bool = False


@dataclass
class ProbKNNResponse:
    """What the server ships back for a probabilistic kNN query."""

    result: List[LeafEntry]
    region: AnnulusValidityRegion
    detail: ProbKNNDetail

    def transfer_bytes(self) -> int:
        # One 8-byte probability + 1-byte band tag rides with each point.
        return ((POINT_BYTES + 9) * len(self.result)
                + self.region.transfer_bytes())


_BANDS = ("certain", "likely", "possible")


def compute_probknn_validity(entries, location, uncertainty: float, k: int,
                             universe: Rect) -> Tuple[List[LeafEntry],
                                                      ProbKNNDetail]:
    """The probabilistic kNN candidates and detail at ``location``.

    ``entries`` is a :class:`~repro.kernel.columns.PointColumns`
    snapshot or any iterable of leaf entries.
    """
    center = (float(location[0]), float(location[1]))
    u = float(uncertainty)
    cols = (entries if isinstance(entries, PointColumns)
            else PointColumns(entries))
    n = len(cols)
    diag = math.hypot(universe.width, universe.height)
    if not n:
        detail = ProbKNNDetail(
            query=center, k=k, uncertainty=u, kth_distance=math.inf,
            distances=(), probabilities=(), bands=(),
            safety_radius=diag, num_points=0)
        return [], detail

    xs, ys, oids = cols.as_numpy()
    dx = xs - center[0]
    dy = ys - center[1]
    dist = np.sqrt(dx * dx + dy * dy)
    order = np.lexsort((oids, dist))
    sorted_d = dist[order]
    d_k = float(sorted_d[min(k, n) - 1])
    horizon = d_k + 2.0 * u

    # The result: the in-horizon prefix in (distance, oid) order.
    h = int(np.searchsorted(sorted_d, horizon, side="right"))
    near = sorted_d[:h]
    # Competitors that can undercut o somewhere in the disk: every
    # d_j < d_o + 2u except o itself.
    t = near + 2.0 * u
    j = np.searchsorted(sorted_d, t)
    band = np.where(j - 1 <= k - 1, 0, np.where(near <= d_k + u, 1, 2))
    probabilities = np.clip((horizon - near) / (2.0 * u), 0.0, 1.0)

    # Slacks to every decision boundary: the horizon on both sides, the
    # nearest competitor on each side of o's certain threshold, the
    # likely threshold itself, and adjacent ordering gaps.
    slacks = [horizon - near, sorted_d[h:h + 1] - horizon,
              sorted_d[j[j < n]] - t[j < n],
              t[j > 0] - sorted_d[j[j > 0] - 1],
              np.abs(near - (d_k + u)), np.diff(near)]
    rho = min(float(s.min()) for s in slacks if s.size) / 2.0
    rho = max(0.0, min(rho, diag))
    detail = ProbKNNDetail(
        query=center, k=k, uncertainty=u, kth_distance=d_k,
        distances=tuple(near.tolist()),
        probabilities=tuple(probabilities.tolist()),
        bands=tuple(_BANDS[b] for b in band.tolist()),
        safety_radius=rho, num_points=n)
    return [cols.entries[i] for i in order[:h].tolist()], detail


class ProbKNNSemantics(QuerySemantics):
    """Probabilistic kNN behind the query-type registry."""

    kind = "probknn"
    request_type = ProbKNNRequest
    supports_subscriptions = True

    # --- execution ----------------------------------------------------
    def execute(self, server, request):
        result, detail = compute_probknn_validity(
            server.dataset_columns(), request.location,
            request.uncertainty, request.k, universe=server.universe)
        server.queries_processed += 1
        region = AnnulusValidityRegion(detail.query, 0.0,
                                       detail.safety_radius)
        return ProbKNNResponse(result=result, region=region, detail=detail)

    # --- cache --------------------------------------------------------
    def cache_key(self, request) -> Optional[tuple]:
        return ("probknn", request.k, request.uncertainty)

    def cache_survives(self, entry, op, oid, x, y) -> bool:
        detail: ProbKNNDetail = entry.response.detail
        slack = self._mutation_slack(detail, op,
                                     {e.oid for e in entry.response.result},
                                     oid, x, y)
        # Surviving in place means the cached region stays sound as-is.
        return (slack is not None
                and slack / 2.0 >= detail.safety_radius)

    @staticmethod
    def _mutation_slack(detail: ProbKNNDetail, op: str, result_ids,
                        oid: int, x: float, y: float) -> Optional[float]:
        """How far (before halving) the mutated point stays clear of
        every decision boundary, or ``None`` when it crosses one."""
        cx, cy = detail.query
        d_m = math.hypot(x - cx, y - cy)
        horizon = detail.kth_distance + 2.0 * detail.uncertainty
        if op == "delete":
            if oid in result_ids:
                return None  # a candidate vanishes: the result changes
            # A far delete must stay outside every certain-band count.
            slack = d_m - horizon
            for d_o in detail.distances:
                slack = min(slack, d_m - (d_o + 2.0 * detail.uncertainty))
            return slack if slack > 0.0 else None
        slack = d_m - horizon
        for d_o in detail.distances:
            slack = min(slack, d_m - (d_o + 2.0 * detail.uncertainty))
        return slack if slack > 0.0 else None

    # --- replica staleness --------------------------------------------
    def stale_region(self, request, response, pending, universe):
        detail: ProbKNNDetail = response.detail
        result_ids = {e.oid for e in response.result}
        rho = detail.safety_radius
        for m in pending:
            slack = self._mutation_slack(detail, m.op, result_ids,
                                         m.oid, m.x, m.y)
            if slack is None:
                return None
            rho = min(rho, slack / 2.0)
        if rho == detail.safety_radius:
            return response.region
        return AnnulusValidityRegion(detail.query, 0.0, max(rho, 0.0))

    # --- continuous ---------------------------------------------------
    def subscribe_init(self, hub, sub, request) -> None:
        response = hub.owner.answer(request)
        sub._state = response.detail
        sub._needs_refresh = False
        hub._set_response(sub, list(response.result), response.region,
                          origin="subscribe")

    def continuous_apply(self, hub, sub, mutation) -> tuple:
        detail: ProbKNNDetail = sub._state
        result_ids = {e.oid for e in sub.response.result}
        slack = self._mutation_slack(detail, mutation.op, result_ids,
                                     mutation.oid, mutation.x, mutation.y)
        if slack is None:
            return ("exhausted",)
        rho = min(sub.response.region.outer, slack / 2.0)
        if rho >= sub.response.region.outer:
            return ("skip",)  # the old region already keeps it clear
        region = AnnulusValidityRegion(detail.query, 0.0, max(rho, 0.0))
        return ("patch", list(sub.response.result), region)

    def continuous_move(self, hub, sub, location):
        # Stored distances are centre-relative: a new centre means a
        # fresh computation, so every move takes the escape hatch.
        return None

    def refetch_request(self, request, location):
        return replace_location(request, location)

    # --- oracle -------------------------------------------------------
    def oracle(self, points, request) -> Tuple[set, set]:
        eps = 1e-9
        pts = list(points)
        cx, cy = request.location
        u = request.uncertainty
        ds = sorted(math.hypot(e.x - cx, e.y - cy) for e in pts)
        if not ds:
            return set(), set()
        d_k = ds[min(request.k, len(ds)) - 1]
        horizon = d_k + 2.0 * u
        must, may = set(), set()
        for e in pts:
            d = math.hypot(e.x - cx, e.y - cy)
            if d < horizon - eps:
                must.add(e.oid)
            if d <= horizon + eps:
                may.add(e.oid)
        return must, may


def replace_location(request: ProbKNNRequest,
                     location) -> ProbKNNRequest:
    from dataclasses import replace
    return replace(request, location=(float(location[0]),
                                      float(location[1])))


register_query_type(ProbKNNSemantics())
