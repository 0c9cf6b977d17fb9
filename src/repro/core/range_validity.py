"""Validity regions for location-based *region* (range) queries.

The paper's conclusion (Section 7) sketches this extension: for a query
"all objects within radius r of me", the exact validity region is
bounded by circular arcs (intersections of disks), which is costly to
represent and to check on a thin client.  We implement the natural
conservative representation — a **validity disk** around the query
focus — which keeps both the payload and the client check constant
size:

* an inner object at distance ``d`` stays in the result while the focus
  moves less than ``r - d``;
* an outer object at distance ``d`` stays out while the focus moves
  less than ``d - r``;

so the result is provably unchanged within the disk of radius

    rho = min( min over inner (r - d),  nearest-outside distance - r ),

never below zero.

Server processing: one circular range query for the result, one
constrained NN query (nearest object beyond ``r``) for the bounding
outer object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.geometry import Point
from repro.index.entry import LeafEntry
from repro.index.rstar import RStarTree
from repro.queries.range import nearest_outside, range_query
from repro.core.api import BudgetClock, QueryDetail
from repro.core.validity import ValidityDisk


@dataclass
class RangeValidityResult(QueryDetail):
    """Everything the server computes for one location-based range query.

    The canonical :class:`~repro.core.api.QueryDetail` for ``kind ==
    "range"`` (exported as ``RangeDetail``).
    """

    kind = "range"

    focus: Point
    radius: float
    result: List[LeafEntry]
    #: The inner object whose exit bounds the disk (None if none binds).
    inner_influence: Optional[LeafEntry]
    #: The outer object whose entry bounds the disk (None if none exists).
    outer_influence: Optional[LeafEntry]
    validity_radius: float
    #: True when the query budget ran out before the nearest-outside
    #: probe: the result is exact, but with the bounding outer object
    #: unknown the validity disk collapses to radius zero.
    degraded: bool = False

    @property
    def influence_set(self) -> List[LeafEntry]:
        return [e for e in (self.inner_influence, self.outer_influence)
                if e is not None]

    def validity_region(self) -> ValidityDisk:
        return ValidityDisk(self.focus, self.validity_radius)


def compute_range_validity(tree: RStarTree, focus, radius: float,
                           result_phase: str = "result",
                           influence_phase: str = "influence",
                           clock: Optional[BudgetClock] = None
                           ) -> RangeValidityResult:
    """Process a location-based range query end to end.

    When ``clock`` (a query-budget clock) is exhausted after the result
    retrieval, the nearest-outside probe is skipped and the response
    degrades to a zero-radius validity disk (exact result, immediate
    client re-query on movement).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    focus = Point(float(focus[0]), float(focus[1]))

    with tree.disk.phase(result_phase):
        result = range_query(tree, focus, radius)

    if clock is not None and clock.exhausted():
        return RangeValidityResult(
            focus=focus,
            radius=radius,
            result=result,
            inner_influence=None,
            outer_influence=None,
            validity_radius=0.0,
            degraded=True,
        )

    with tree.disk.phase(influence_phase):
        outside = nearest_outside(tree, focus, radius)

    inner_influence = None
    inner_slack = math.inf
    for e in result:
        slack = radius - focus.distance_to((e.x, e.y))
        if slack < inner_slack:
            inner_slack = slack
            inner_influence = e

    outer_slack = outside.dist - radius if outside is not None else math.inf
    # A member an ulp beyond the radius (the squared-distance test
    # admits what ``hypot`` puts outside) leaves a zero disk, never a
    # negative one: the answer holds at the focus itself.
    validity_radius = max(min(inner_slack, outer_slack), 0.0)

    return RangeValidityResult(
        focus=focus,
        radius=radius,
        result=result,
        inner_influence=inner_influence,
        outer_influence=outside.entry if outside is not None else None,
        validity_radius=validity_radius,
    )
