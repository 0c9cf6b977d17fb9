"""Time-parameterized (TP) queries [TP02].

A TP query takes the *current* result of a spatial query plus a motion
(the query point moving along a ray, or a window translating with a
velocity vector) and returns the first future **influence event**: the
object that changes the result, and the time at which it does.

The influence time is used as a distance metric in a best-first search
over the R*-tree, exactly as mindist is used in ordinary NN search; the
MBR bounds below are admissible lower bounds of the influence time of
any point inside the rectangle, so the search only visits nodes that
may contain the first influencing object.

For nearest-neighbour queries the influence time of a candidate ``p``
with respect to a current neighbour ``o`` is the instant the moving
query crosses their perpendicular bisector.  With the query at ``q``
moving along unit direction ``v``, squaring distances gives

    |q + t*v - p|^2 - |q + t*v - o|^2
        = (|q - p|^2 - |q - o|^2) - 2*t*(v . (p - o)),

which is *linear* in ``t``; the crossing time is

    t = (|q - p|^2 - |q - o|^2) / (2 * v . (p - o)),

defined (and non-negative) whenever ``v . (p - o) > 0``.

``tp_knn`` evaluates each node it reads in one numpy pass over the
node's cached columns (:meth:`repro.index.node.Node.columns`): an inner
node's child bounds are bit-identical to the per-rectangle expressions,
so children enter the heap with the same keys and counters and the
search reads the same nodes in the same order; a leaf's numpy times
only *filter* its entries, and the survivors' times are recomputed per
entry, so the reported time and every tie-break are those of the
per-entry scan.  ``tp_window`` still evaluates one entry at a time.
"""

from __future__ import annotations

import heapq
import math
from itertools import compress
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry import Rect
from repro.index.entry import LeafEntry
from repro.index.rstar import RStarTree

INFINITY = math.inf

#: Error bound of the leaf filter's numpy influence times, relative to
#: ``(|q - p|^2 + |q - o|^2) / den``.  They differ from the per-entry
#: times only in ``|q - p|^2``: ``x * x`` is correctly rounded, ``x ** 2``
#: (libm ``pow``) is within 1 ulp, so the two differ by at most ~5 units
#: of roundoff u = 2**-53 of it; through one subtraction and the division
#: by the identical denominator (plus the bounds' own rounding) a time
#: moves by at most ~12u of that scale.  2**-48 = 32u leaves a margin.
_SLACK = 2.0 ** -48
#: Smallest normal double: absorbs the absolute error of squares that
#: underflow, where the relative bound above does not hold.
_TINY = 2.0 ** -1022
#: The filter's (lower, upper) time bounds widen ``|q - p|^2 - |q - o|^2``
#: by ``_SLACK * (|q - p|^2 + |q - o|^2 + _TINY)``, term by term.
_FILTER_SCALE = np.array([[[1.0 - _SLACK]], [[1.0 + _SLACK]]])
_SHIFT_SCALE = np.array([[[1.0 + _SLACK]], [[1.0 - _SLACK]]])
_SHIFT_TINY = np.array([[[_SLACK * _TINY]], [[-_SLACK * _TINY]]])


class TPEvent(NamedTuple):
    """The first influence event of a TP nearest-neighbour query.

    ``influence`` is the data point that will change the result (``None``
    when nothing ever does), ``paired_with`` is the current result object
    whose bisector is crossed first (for 1NN queries this is *the*
    nearest neighbour), and ``time`` is the travelled distance at which
    the crossing happens (the paper's validity computation issues TPNN
    queries with unit speed, so time equals distance).
    """

    time: float
    influence: Optional[LeafEntry]
    paired_with: Optional[LeafEntry]

    @property
    def found(self) -> bool:
        return self.influence is not None


class WindowTPEvent(NamedTuple):
    """The first influence event of a TP window query.

    ``arrivals``/``departures`` list every object entering/leaving the
    result at ``time`` (the paper's change set ``C``).
    """

    time: float
    arrivals: Tuple[LeafEntry, ...]
    departures: Tuple[LeafEntry, ...]


# ----------------------------------------------------------------------
# TP nearest neighbour
# ----------------------------------------------------------------------
def tp_nn(tree: RStarTree, q, direction, nearest: LeafEntry,
          prefer_new: Optional[Set[int]] = None) -> TPEvent:
    """TPNN: first object to become closer than ``nearest``.

    ``direction`` must be a unit vector; ``q`` moves as ``q + t*direction``.
    """
    return tp_knn(tree, q, direction, [nearest], prefer_new=prefer_new)


def tp_knn(tree: RStarTree, q, direction, result: Sequence[LeafEntry],
           prefer_new: Optional[Set[int]] = None) -> TPEvent:
    """TPkNN: first swap between a non-result object and a result object.

    Parameters
    ----------
    result:
        The current k nearest neighbours of ``q``: entries of ``tree``,
        which the search skips where the tree stores them.
    prefer_new:
        Object ids already known to the caller.  When two candidate
        events happen at exactly the same time, an object *not* in this
        set is preferred — this resolves degenerate ties (cocircular
        points) in favour of discovering new influence objects, which
        the validity-region algorithm needs for completeness.
    """
    vx, vy = float(direction[0]), float(direction[1])
    norm = math.hypot(vx, vy)
    if norm == 0.0:
        raise ValueError("TP query direction must be non-zero")
    vx /= norm
    vy /= norm
    qx, qy = float(q[0]), float(q[1])
    known = prefer_new or frozenset()
    result_oids = {e.oid for e in result}
    # Per result object o: (dist_sq(q, o), v . o) reused by every bound.
    res_info = [((e.x - qx) ** 2 + (e.y - qy) ** 2, vx * e.x + vy * e.y, e)
                for e in result]
    # The same two quantities as (k, 1) columns, broadcast against the
    # (n,) columns of a node's entries.
    res_dist_sq, res_v_dot = np.array(
        [(d, v) for d, v, _ in res_info]).T[:, :, None]
    # The leaf filter's (lower, upper) time bounds, stacked on a leading
    # axis, are (dist_sq(q, p) * _FILTER_SCALE - res_shift) / den.
    res_shift = res_dist_sq * _SHIFT_SCALE + _SHIFT_TINY
    q_col = np.array([[qx], [qy]])
    v_col = np.array([[vx], [vy]])
    # Rows of a (4, m) MBR column block maximizing v . p per axis.
    ix = 2 if vx > 0 else 0
    iy = 3 if vy > 0 else 1
    result_points = [(e.x, e.y) for e in result] if len(result) > 1 else []

    def exact_time(p: LeafEntry) -> Tuple[float, Optional[LeafEntry]]:
        p_dist_sq = (p.x - qx) ** 2 + (p.y - qy) ** 2
        v_dot_p = vx * p.x + vy * p.y
        best_t, best_o = INFINITY, None
        for o_dist_sq, v_dot_o, o in res_info:
            den = 2.0 * (v_dot_p - v_dot_o)
            if den <= 0.0:
                continue
            t = (p_dist_sq - o_dist_sq) / den
            if t < 0.0:
                t = 0.0  # p already as close as o: immediate influence
            if t < best_t:
                best_t, best_o = t, o
        return best_t, best_o

    def node_bounds(mbrs: np.ndarray) -> np.ndarray:
        """Admissible lower bound of the influence time of any p in each
        rectangle of ``mbrs`` (4, m).

        Every operation is the one the per-rectangle bound (mindist_sq,
        then one candidate crossing time per result object) performs,
        on the same operands, so the values are bit-identical to it.
        """
        d = np.maximum(np.maximum(mbrs[:2] - q_col, 0.0), q_col - mbrs[2:])
        d *= d
        min_p_dist_sq = d[0] + d[1]
        # max of v . p over the rectangle is attained at a corner.
        den_max = 2.0 * ((vx * mbrs[ix] + vy * mbrs[iy]) - res_v_dot)
        pair = np.maximum(min_p_dist_sq - res_dist_sq, 0.0) / den_max
        return np.where(den_max > 0.0, pair, INFINITY).min(axis=0)

    def leaf_candidates(leaf, best_time: float) -> List[int]:
        """Indices of the leaf entries that may win or tie the search.

        The numpy times differ from :func:`exact_time` only through
        ``x * x`` versus ``x ** 2`` in ``dist_sq(q, p)``; the filter
        widens each time by an error bound of that difference (see
        ``_SLACK``), so it keeps every entry whose exact time can reach
        the leaf's winning time ``min(best_time, leaf minimum)``.  The
        caller re-evaluates the survivors with :func:`exact_time`, in
        entry order.
        """
        cols = leaf.columns()
        d = cols - q_col
        d *= d
        p_dist_sq = d[0] + d[1]
        w = v_col * cols
        den = 2.0 * ((w[0] + w[1]) - res_v_dot)
        t = (p_dist_sq * _FILTER_SCALE - res_shift) / den
        lo, hi = np.where(den > 0.0, t, INFINITY).min(axis=1)
        # For k = 1 a result object pairs only with itself, at den == 0.
        if any(leaf.mbr.contains_point(p) for p in result_points):
            members = [i for i, e in enumerate(leaf.entries)
                       if e.oid in result_oids]
            lo[members] = INFINITY
            hi[members] = INFINITY
        threshold = min(best_time, max(float(hi.min(initial=INFINITY)), 0.0))
        if threshold == INFINITY:
            return []  # no entry has a crossing time
        return (lo <= threshold).nonzero()[0].tolist()

    best_time = INFINITY
    best_entry: Optional[LeafEntry] = None
    best_pair: Optional[LeafEntry] = None
    counter = 0
    # Pairs with den <= 0 divide by zero before np.where drops them.
    with np.errstate(divide="ignore", invalid="ignore"):
        root_bound = float(node_bounds(np.array(tree.root.mbr)[:, None])[0])
        heap = [(root_bound, counter, tree.root)]
        while heap:
            bound, _, node = heapq.heappop(heap)
            if bound > best_time:
                break
            if bound == best_time and not (best_entry is not None
                                           and best_entry.oid in known):
                # Nothing in this subtree can beat or usefully tie the winner.
                break
            tree.read_node(node)
            entries = node.entries
            if node.is_leaf:
                for i in leaf_candidates(node, best_time):
                    e = entries[i]
                    t, paired = exact_time(e)
                    if paired is None:
                        continue
                    wins = t < best_time or (
                        t == best_time
                        and best_entry is not None
                        and best_entry.oid in known
                        and e.oid not in known)
                    if wins:
                        best_time, best_entry, best_pair = t, e, paired
            else:
                bounds = node_bounds(node.columns())
                pushed = (bounds <= best_time).tolist()
                keys = list(compress(bounds.tolist(), pushed))
                # The per-child pushes in one heapify: keys and counters
                # are unique, so the pop order does not depend on layout.
                first = counter + 1
                counter += len(keys)
                heap.extend(zip(keys, range(first, counter + 1),
                                compress(entries, pushed)))
                heapq.heapify(heap)
    if best_entry is None:
        return TPEvent(INFINITY, None, None)
    return TPEvent(best_time, best_entry, best_pair)


# ----------------------------------------------------------------------
# TP window
# ----------------------------------------------------------------------
def tp_window(tree: RStarTree, rect: Rect, velocity) -> WindowTPEvent:
    """First influence event of a window translating with ``velocity``.

    Objects currently inside influence the result when the trailing
    boundary passes them; outside objects influence it when the leading
    boundary reaches them (Figure 6a of the paper).
    """
    vx, vy = float(velocity[0]), float(velocity[1])
    if vx == 0.0 and vy == 0.0:
        return WindowTPEvent(INFINITY, (), ())

    def point_interval(px: float, py: float) -> Tuple[float, float]:
        """The (possibly empty) time interval during which the moving
        window contains the point; empty is returned as (inf, -inf)."""
        t_lo, t_hi = -INFINITY, INFINITY
        for p, lo, hi, v in ((px, rect.xmin, rect.xmax, vx),
                             (py, rect.ymin, rect.ymax, vy)):
            if v == 0.0:
                if not lo <= p <= hi:
                    return INFINITY, -INFINITY
            else:
                a = (p - hi) / v
                b = (p - lo) / v
                if a > b:
                    a, b = b, a
                t_lo = max(t_lo, a)
                t_hi = min(t_hi, b)
        if t_lo > t_hi:
            return INFINITY, -INFINITY
        return t_lo, t_hi

    def influence_time(e: LeafEntry) -> float:
        t_lo, t_hi = point_interval(e.x, e.y)
        if t_lo > t_hi or t_hi < 0.0:
            return INFINITY
        if t_lo <= 0.0:  # currently inside: influences when it leaves
            return t_hi
        return t_lo      # currently outside: influences when it enters

    def node_bound(mbr: Rect) -> float:
        """Admissible lower bound of influence_time over points in mbr."""
        bounds = []
        # Entry bound: the moving window must touch the rectangle first.
        t_lo, t_hi = _moving_rect_meet(rect, mbr, vx, vy)
        if t_lo <= t_hi and t_hi >= 0.0:
            bounds.append(max(t_lo, 0.0))
        # Exit bound for the part of the rectangle already inside.
        overlap = rect.intersection(mbr)
        if overlap is not None:
            exit_bound = INFINITY
            if vx > 0.0:
                exit_bound = min(exit_bound, (overlap.xmin - rect.xmin) / vx)
            elif vx < 0.0:
                exit_bound = min(exit_bound, (rect.xmax - overlap.xmax) / -vx)
            if vy > 0.0:
                exit_bound = min(exit_bound, (overlap.ymin - rect.ymin) / vy)
            elif vy < 0.0:
                exit_bound = min(exit_bound, (rect.ymax - overlap.ymax) / -vy)
            bounds.append(exit_bound)
        return min(bounds) if bounds else INFINITY

    best_time = INFINITY
    events: List[Tuple[float, bool, LeafEntry]] = []  # (time, was_inside, e)
    counter = 0
    heap = [(node_bound(tree.root.mbr), counter, tree.root)]
    while heap:
        bound, _, node = heapq.heappop(heap)
        if bound > best_time:
            break
        tree.read_node(node)
        if node.is_leaf:
            for e in node.entries:
                t = influence_time(e)
                if t < best_time:
                    best_time = t
                    events = [(t, rect.contains_point((e.x, e.y)), e)]
                elif t == best_time and t < INFINITY:
                    events.append((t, rect.contains_point((e.x, e.y)), e))
        else:
            for child in node.entries:
                child_bound = node_bound(child.mbr)
                if child_bound <= best_time:
                    counter += 1
                    heapq.heappush(heap, (child_bound, counter, child))
    if best_time is INFINITY or not events:
        return WindowTPEvent(INFINITY, (), ())
    departures = tuple(e for t, inside, e in events if inside)
    arrivals = tuple(e for t, inside, e in events if not inside)
    return WindowTPEvent(best_time, arrivals, departures)


def _moving_rect_meet(moving: Rect, static: Rect,
                      vx: float, vy: float) -> Tuple[float, float]:
    """Time interval during which ``moving + t*v`` intersects ``static``."""
    t_lo, t_hi = -INFINITY, INFINITY
    for m_lo, m_hi, s_lo, s_hi, v in (
            (moving.xmin, moving.xmax, static.xmin, static.xmax, vx),
            (moving.ymin, moving.ymax, static.ymin, static.ymax, vy)):
        if v == 0.0:
            if m_hi < s_lo or m_lo > s_hi:
                return INFINITY, -INFINITY
        else:
            a = (s_lo - m_hi) / v
            b = (s_hi - m_lo) / v
            if a > b:
                a, b = b, a
            t_lo = max(t_lo, a)
            t_hi = min(t_hi, b)
    if t_lo > t_hi:
        return INFINITY, -INFINITY
    return t_lo, t_hi
