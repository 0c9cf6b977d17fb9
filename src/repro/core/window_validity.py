"""Validity regions for location-based window queries (paper, Section 4).

For a window of extents ``(wx, wy)`` whose *focus* (centre) sits at
``f``, a data point ``p`` is in the result iff ``f`` lies inside the
**Minkowski region** of ``p`` — the rectangle of extents ``(wx, wy)``
centred at ``p``.  Hence the exact validity region of the focus is

    (intersection of the Minkowski regions of the inner points)
    minus (union of the Minkowski regions of the outer points).

The intersection term (the **inner validity region**) is itself a
rectangle.  Server processing (Section 4 / Figure 17):

1. a window query retrieves the result (the inner points) and yields
   the inner validity region;
2. a second query over the *marginal* rectangle — the envelope swept by
   the window while the focus roams the inner region, minus the window
   itself — retrieves the candidate outer points;
3. outer Minkowski rectangles overlapping the inner region are carved
   out.  The paper ships a **conservative rectangle** (Figure 19); the
   exact rectilinear region is also available for analysis, built from
   the kept holes on first access.

Influence objects are the points whose Minkowski boundaries form the
edges of the *final* conservative rectangle: an outer object whose cut
removes an inner-bounded edge *replaces* that inner point in the
influence set (the Figure 33 discussion — the total stays around four,
roughly two inner plus two outer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.geometry import Point, Rect, RectilinearRegion
from repro.index.entry import LeafEntry
from repro.index.rstar import RStarTree
from repro.queries.window import annulus_query
from repro.core.api import BudgetClock, QueryDetail
from repro.core.validity import WindowValidityRegion

_SIDES = ("xmin", "ymin", "xmax", "ymax")


@dataclass
class WindowValidityResult(QueryDetail):
    """Everything the server computes for one location-based window query.

    The canonical :class:`~repro.core.api.QueryDetail` for ``kind ==
    "window"`` (exported as ``WindowDetail``).
    """

    kind = "window"

    focus: Point
    window: Rect
    result: List[LeafEntry]
    inner_influence: List[LeafEntry]
    outer_influence: List[LeafEntry]
    #: Intersection of inner Minkowski regions, clipped to the universe.
    inner_region: Rect
    #: The rectangle shipped to the client (Figure 19).
    conservative_region: Rect
    #: The outer Minkowski rectangles overlapping the inner region, in
    #: retrieval order: the holes :attr:`exact_region` carves out (none
    #: when it is a lower bound).
    holes: List[Rect]
    #: True when the hole count exceeded ``exact_region_hole_cap`` and
    #: ``exact_region`` was downgraded to the conservative rectangle (a
    #: sound under-approximation).  Happens only for degenerate queries —
    #: e.g. an empty window whose inner region is the whole universe.
    exact_region_is_lower_bound: bool = False
    #: True when the query budget ran out before the influence query:
    #: the window result is exact, but the shipped region collapsed to
    #: the focus point (the client re-queries on any movement).
    degraded: bool = False
    _exact_region: Optional[RectilinearRegion] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def exact_region(self) -> RectilinearRegion:
        """Ground-truth region (inner region minus the outer Minkowski
        holes), or the conservative rectangle when it is a lower bound.

        Only analysis reads it, so it is built on first access: the
        serving path ships :attr:`conservative_region` alone.
        """
        if self._exact_region is None:
            if self.exact_region_is_lower_bound:
                region = RectilinearRegion(self.conservative_region)
            else:
                region = RectilinearRegion(self.inner_region, self.holes)
            self._exact_region = region
        return self._exact_region

    @property
    def influence_set(self) -> List[LeafEntry]:
        return self.inner_influence + self.outer_influence

    @property
    def num_influence_objects(self) -> int:
        return len(self.inner_influence) + len(self.outer_influence)

    def validity_region(self) -> WindowValidityRegion:
        return WindowValidityRegion(self.conservative_region)


def compute_window_validity(tree: RStarTree, focus, width: float, height: float,
                            universe: Optional[Rect] = None,
                            result_phase: str = "result",
                            influence_phase: str = "influence",
                            exact_region_hole_cap: int = 1024,
                            empty_window_region_factor: float = 3.0,
                            clock: Optional[BudgetClock] = None
                            ) -> WindowValidityResult:
    """Process a location-based window query end to end.

    ``exact_region_hole_cap`` bounds the cost of materializing the exact
    (diagnostic) region; beyond it the conservative rectangle is used as
    a sound lower bound and ``exact_region_is_lower_bound`` is set.  The
    shipped validity region is unaffected.

    ``empty_window_region_factor``: when the window is empty its exact
    inner region is the whole universe, which would force the influence
    query to scan the entire dataset.  The inner region is instead
    capped to ``factor x`` the window extents around the focus — a
    smaller validity region is always sound, and the influence query
    stays local.  Pass ``math.inf`` to disable the cap.

    ``clock``: a running query-budget clock.  When it is exhausted after
    the result retrieval, the influence query is skipped and the
    response **degrades**: the result is still exact, but — with the
    outer Minkowski holes unknown — the only sound validity region is
    the focus point itself, so the shipped rectangle collapses to it.
    """
    if width <= 0 or height <= 0:
        raise ValueError("window extents must be positive")
    if universe is None:
        universe = tree.root.mbr
    focus = Point(float(focus[0]), float(focus[1]))
    # A focus outside the universe still gets a region holding it.
    universe = universe.extended(focus)
    window = Rect.around(focus, width, height)

    with tree.disk.phase(result_phase):
        inner = tree.window(window)

    if clock is not None and clock.exhausted():
        point_rect = Rect(focus.x, focus.y, focus.x, focus.y)
        return WindowValidityResult(
            focus=focus,
            window=window,
            result=inner,
            inner_influence=[],
            outer_influence=[],
            inner_region=point_rect,
            conservative_region=point_rect,
            holes=[],
            exact_region_is_lower_bound=True,
            degraded=True,
        )

    inner_region, side_blockers = _inner_validity(
        focus, window, inner, universe, empty_window_region_factor)

    # Envelope swept by the window while the focus roams the inner region.
    extended = Rect(
        window.xmin - (focus.x - inner_region.xmin),
        window.ymin - (focus.y - inner_region.ymin),
        window.xmax + (inner_region.xmax - focus.x),
        window.ymax + (inner_region.ymax - focus.y),
    )
    with tree.disk.phase(influence_phase):
        candidates = annulus_query(tree, extended, window)

    # (entry, Minkowski rectangle, its overlap area with the inner region)
    holes = []
    for e in candidates:
        mink = Rect.around((e.x, e.y), width, height)
        overlap = mink.intersection(inner_region)
        if overlap is not None:
            area = overlap.area()
            if area > 0.0:
                holes.append((e, mink, area))

    conservative, cuts = _conservative_cut(focus, inner_region, holes)
    inner_influence, outer_influence = _attribute_influence(
        conservative, inner_region, side_blockers, cuts)

    capped = len(holes) > exact_region_hole_cap
    return WindowValidityResult(
        focus=focus,
        window=window,
        result=inner,
        inner_influence=inner_influence,
        outer_influence=outer_influence,
        inner_region=inner_region,
        conservative_region=conservative,
        holes=[] if capped else [mink for _, mink, _ in holes],
        exact_region_is_lower_bound=capped,
    )


def _inner_validity(focus: Point, window: Rect, inner: List[LeafEntry],
                    universe: Rect, empty_factor: float = math.inf
                    ) -> Tuple[Rect, Dict[str, List[LeafEntry]]]:
    """Intersection of inner Minkowski regions + the blockers per side.

    Equivalently (and cheaper): the focus may travel right until the
    window's left edge hits the leftmost inner point, etc.  A side that
    is bounded by the universe instead of a point has no blockers.
    """
    if not inner:
        no_blockers = {side: [] for side in _SIDES}
        if math.isinf(empty_factor):
            return universe, no_blockers
        capped = Rect.around(focus, empty_factor * window.width,
                             empty_factor * window.height)
        region = capped.intersection(universe)
        if region is None:
            region = Rect(focus.x, focus.y, focus.x, focus.y)
        return region, no_blockers
    # Rounding is monotone, so ``min(x) - c`` is ``min(x - c)`` and
    # ``c - max(x)`` is ``min(c - x)``, bit for bit.  (``zip(*inner)``
    # would allocate one iterator per entry, a burst that sets off the
    # garbage collector.)
    xs = [e.x for e in inner]
    ys = [e.y for e in inner]
    slack_right = min(xs) - window.xmin
    slack_left = window.xmax - max(xs)
    slack_up = min(ys) - window.ymin
    slack_down = window.ymax - max(ys)
    unclipped = Rect(focus.x - slack_left, focus.y - slack_down,
                     focus.x + slack_right, focus.y + slack_up)
    region = unclipped.intersection(universe)
    if region is None:  # focus outside the universe: degenerate but legal
        region = Rect(focus.x, focus.y, focus.x, focus.y)

    blockers: Dict[str, List[LeafEntry]] = {side: [] for side in _SIDES}
    if region.xmax == unclipped.xmax:
        blockers["xmax"] = [e for e in inner
                            if e.x - window.xmin == slack_right]
    if region.xmin == unclipped.xmin:
        blockers["xmin"] = [e for e in inner
                            if window.xmax - e.x == slack_left]
    if region.ymax == unclipped.ymax:
        blockers["ymax"] = [e for e in inner
                            if e.y - window.ymin == slack_up]
    if region.ymin == unclipped.ymin:
        blockers["ymin"] = [e for e in inner
                            if window.ymax - e.y == slack_down]
    return region, blockers


def _conservative_cut(focus: Point, inner_region: Rect,
                      holes: List[Tuple[LeafEntry, Rect, float]]
                      ) -> Tuple[Rect, List[Tuple[LeafEntry, str, float]]]:
    """Shrink the inner region to a hole-free rectangle (Figure 19).

    ``holes`` holds ``(entry, Minkowski rectangle, overlap area)``
    triples, the area being the rectangle's overlap with
    ``inner_region``.  Each overlapping outer Minkowski rectangle is
    removed by moving one edge of the current rectangle; among the cuts
    that keep the focus inside, the one preserving the most area is
    chosen.  Holes are processed largest-overlap-first so dominating
    obstacles are handled before slivers they may already cover.
    Returns the final rectangle and the applied cuts (entry, side, new
    coordinate).

    Both the processing order and the per-hole cut choice are decided on
    *normalized, quantized* areas with deterministic tie-breaks (object
    id, fixed side priority).  Raw float areas would leave ties — e.g.
    several Minkowski rectangles fully inside the inner region all
    overlap by exactly the window area — to be broken by tree-traversal
    order, which is not invariant under translating/scaling the
    instance.
    """
    region = inner_region
    cuts: List[Tuple[LeafEntry, str, float]] = []
    norm = inner_region.area() or 1.0

    def _hole_key(hole: Tuple[LeafEntry, Rect, float]) -> Tuple[float, int]:
        entry, _, area = hole
        return (-round(area / norm, 9), entry.oid)

    for entry, mink, _ in sorted(holes, key=_hole_key):
        overlap = mink.intersection(region)
        if overlap is None or overlap.area() <= 0.0:
            continue  # an earlier cut already removed this hole
        candidates = []
        if mink.xmin >= focus.x:
            candidates.append(("xmax", Rect(region.xmin, region.ymin,
                                            mink.xmin, region.ymax)))
        if mink.xmax <= focus.x:
            candidates.append(("xmin", Rect(mink.xmax, region.ymin,
                                            region.xmax, region.ymax)))
        if mink.ymin >= focus.y:
            candidates.append(("ymax", Rect(region.xmin, region.ymin,
                                            region.xmax, mink.ymin)))
        if mink.ymax <= focus.y:
            candidates.append(("ymin", Rect(region.xmin, mink.ymax,
                                            region.xmax, region.ymax)))
        # The focus is never inside an outer Minkowski rectangle, so at
        # least one cut direction is always available.
        side, region = max(
            candidates,
            key=lambda c: (round(c[1].area() / norm, 9),
                           -_SIDES.index(c[0])))
        cuts.append((entry, side, getattr(region, side)))
    return region, cuts


def _attribute_influence(final: Rect, inner_region: Rect,
                         side_blockers: Dict[str, List[LeafEntry]],
                         cuts: List[Tuple[LeafEntry, str, float]]
                         ) -> Tuple[List[LeafEntry], List[LeafEntry]]:
    """Map each edge of the final rectangle to its influence object(s).

    An edge belongs to the outer object whose cut produced its final
    coordinate; failing that, to the inner blockers of the original
    inner-region side (when that side survived uncut); failing that, to
    the universe boundary (no influence object).
    """
    outer: List[LeafEntry] = []
    inner: List[LeafEntry] = []
    seen_outer: set = set()
    seen_inner: set = set()
    for side in _SIDES:
        value = getattr(final, side)
        cut_entries = [e for e, s, v in cuts if s == side and v == value]
        if cut_entries:
            for e in cut_entries:
                if e.oid not in seen_outer:
                    seen_outer.add(e.oid)
                    outer.append(e)
        elif value == getattr(inner_region, side):
            for e in side_blockers[side]:
                if e.oid not in seen_inner:
                    seen_inner.add(e.oid)
                    inner.append(e)
    return inner, outer
