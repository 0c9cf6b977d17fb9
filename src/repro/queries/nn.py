"""k-nearest-neighbour search over the R*-tree.

Two classic algorithms are provided:

* ``method="depth_first"`` — the branch-and-bound of Roussopoulos,
  Kelly & Vincent [RKV95]: descend depth-first, visiting entries in
  *mindist* order and pruning subtrees whose mindist exceeds the
  distance of the k-th neighbour found so far.
* ``method="best_first"`` — Hjaltason & Samet's distance browsing
  [HS99]: a global priority queue over nodes and objects, which visits
  only nodes that may contain an actual neighbour (I/O optimal).

Both return identical answers; the experiments of Figure 27/28 use the
best-first algorithm for step (i) of the location-based NN query, and
the ablation bench compares the node accesses of the two.

The best-first search evaluates each node it reads in one numpy pass
over the node's cached columns (:meth:`repro.index.node.Node.columns`):
child mindists are bit-identical to ``Rect.mindist_sq``, and a leaf's
numpy distances only decide which entries can still be popped, whose
distances are then recomputed per entry; answers, distances and node
accesses equal the per-entry search's.
"""

from __future__ import annotations

import heapq
import math
from typing import List, NamedTuple, Optional, Set

import numpy as np

from repro.index.entry import LeafEntry
from repro.index.rstar import RStarTree


#: Error bounds of a leaf's numpy squared distances (``x * x``) against
#: the per-entry ``x ** 2`` (libm ``pow``, within 1 ulp): they differ
#: by at most ~5 units of roundoff u = 2**-53 relative, so ``d * _HI +
#: _TINY`` bounds the exact value from above and an exact value ``<= b``
#: implies a numpy value ``<= (b + _TINY) * _LO``.  Both leave a margin
#: of several u; ``_TINY`` (the smallest normal double) covers squares
#: that underflow.
_HI = 1.0 + 2.0 ** -48
_LO = 1.0 + 2.0 ** -47
_TINY = 2.0 ** -1022


class Neighbor(NamedTuple):
    """One answer of a kNN query."""

    entry: LeafEntry
    dist: float


def nearest_neighbors(tree: RStarTree, q, k: int = 1,
                      method: str = "best_first",
                      exclude: Optional[Set[int]] = None) -> List[Neighbor]:
    """The ``k`` data points nearest to ``q``, closest first.

    ``exclude`` is a set of object ids to ignore (used by incremental
    algorithms).  Fewer than ``k`` results are returned only when the
    dataset is too small.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if method == "best_first":
        return _best_first(tree, q, k, exclude or frozenset())
    if method == "depth_first":
        return _depth_first(tree, q, k, exclude or frozenset())
    raise ValueError(f"unknown NN method {method!r}")


# ----------------------------------------------------------------------
# best-first [HS99]
# ----------------------------------------------------------------------
def _best_first(tree: RStarTree, q, k: int, exclude) -> List[Neighbor]:
    # The heap is ordered by *squared* distance — the ordering (and
    # hence the node-access sequence) is identical, and the per-entry
    # sqrt moves off the hot path to the k materialized results.
    #
    # A leaf's entries take the counters the per-entry scan gave them,
    # but only those that can still be popped are pushed: an entry with
    # at least k entries of strictly smaller distance already pushed (or
    # pushed from the same leaf) is never popped before the k-th result
    # ends the search.  ``kept`` holds the k smallest distances pushed so
    # far, negated (a max-heap).
    qx, qy = q[0], q[1]
    result: List[Neighbor] = []
    kept: List[float] = []
    counter = 0  # heap tie-breaker; nodes/entries are not comparable
    heap = [(0.0, counter, tree.root)]
    while heap:
        d2, _, item = heapq.heappop(heap)
        if isinstance(item, LeafEntry):
            result.append(Neighbor(item, math.sqrt(d2)))
            if len(result) == k:
                return result
            continue
        tree.read_node(item)
        entries = item.entries
        cols = item.columns()
        if item.is_leaf:
            order = range(len(entries))
            if exclude:
                order = [i for i, e in enumerate(entries)
                         if e.oid not in exclude]
                cols = cols[:, order]
            dx = cols[0] - qx
            dy = cols[1] - qy
            approx = dx * dx + dy * dy
            bound = -kept[0] if len(kept) == k else math.inf
            if len(approx) >= k:
                kth = float(np.partition(approx, k - 1)[k - 1])
                bound = min(bound, kth * _HI + _TINY)
            limit = (bound + _TINY) * _LO
            for rank in np.flatnonzero(approx <= limit).tolist():
                e = entries[order[rank]]
                d2 = (e.x - qx) ** 2 + (e.y - qy) ** 2
                heapq.heappush(heap, (d2, counter + rank + 1, e))
                if len(kept) < k:
                    heapq.heappush(kept, -d2)
                elif d2 < -kept[0]:
                    heapq.heapreplace(kept, -d2)
            counter += len(order)
        else:
            dx = np.maximum(np.maximum(cols[0] - qx, 0.0), qx - cols[2])
            dy = np.maximum(np.maximum(cols[1] - qy, 0.0), qy - cols[3])
            # Rect.mindist_sq of every child, bit for bit, pushed in one
            # heapify (unique counters: the layout cannot change pops).
            heap.extend(zip((dx * dx + dy * dy).tolist(),
                            range(counter + 1, counter + 1 + len(entries)),
                            entries))
            counter += len(entries)
            heapq.heapify(heap)
    return result


# ----------------------------------------------------------------------
# depth-first [RKV95]
# ----------------------------------------------------------------------
def _depth_first(tree: RStarTree, q, k: int, exclude) -> List[Neighbor]:
    # Max-heap (by negated squared distance) of the best k candidates;
    # pruning compares squared quantities, sqrt runs once per result.
    best: List = []

    def kth_dist_sq() -> float:
        return -best[0][0] if len(best) == k else math.inf

    def visit(node) -> None:
        tree.read_node(node)
        if node.is_leaf:
            for e in node.entries:
                if e.oid in exclude:
                    continue
                d2 = (e.x - q[0]) ** 2 + (e.y - q[1]) ** 2
                if d2 < kth_dist_sq():
                    heapq.heappush(best, (-d2, e.oid, e))
                    if len(best) > k:
                        heapq.heappop(best)
            return
        children = sorted(node.entries, key=lambda c: c.mbr.mindist_sq(q))
        for child in children:
            if child.mbr.mindist_sq(q) < kth_dist_sq() or len(best) < k:
                visit(child)

    visit(tree.root)
    ordered = sorted(((-negd2, e) for negd2, _, e in best),
                     key=lambda t: t[0])
    return [Neighbor(e, math.sqrt(d2)) for d2, e in ordered]
