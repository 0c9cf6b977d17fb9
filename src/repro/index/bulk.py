"""Sort-Tile-Recursive (STR) bulk loading.

The paper builds disk-resident R*-trees over up to a million points.
Rebuilding such trees by repeated insertion for every cardinality of a
parameter sweep would dominate experiment time in pure Python, so the
benchmark harness bulk-loads with STR (Leutenegger et al.), the standard
packing algorithm.  The resulting trees have the same height, page
count and near-identical node extents as insertion-built R*-trees at
the configured fill factor, which is what the cost experiments measure.

The loader tiles coordinate columns, not entries.  The points become
one float64 array, checked finite once, and each level is ordered by
stable numpy argsorts: the x order cut into vertical slices, then the
y order inside each slice (an upper level sorts its nodes' MBR centres
the same way).  Each :class:`LeafEntry` is then built once, already in
its leaf's order, from per-column ``tolist()``s.  Leaf MBRs still come
from :meth:`Node.recompute_mbr`'s Python ``min``/``max``, which keep
the first of two equal values, where a numpy reduction may return the
other signed zero (``-0.0`` for ``0.0``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.index.entry import LeafEntry
from repro.index.node import Node
from repro.index.rstar import RStarTree
from repro.storage import DiskSimulator


def bulk_load_str(points: Sequence, capacity: Optional[int] = None,
                  fill: float = 0.7,
                  disk: Optional[DiskSimulator] = None,
                  oids: Optional[Sequence[int]] = None,
                  **tree_kwargs) -> RStarTree:
    """Build an :class:`RStarTree` over ``points`` with STR packing.

    Parameters
    ----------
    points:
        ``(x, y)`` pairs, or an ``(n, 2)`` array (further columns are
        ignored); object ids are the sequence positions unless ``oids``
        supplies them explicitly (a sharded server loads each shard
        with its points' *global* ids).
    fill:
        Target node occupancy (0 < fill <= 1).  0.7 approximates the
        average occupancy of an insertion-built R*-tree.

    A NaN or infinite coordinate raises ``ValueError`` before the tree
    is built, as an insert's does
    (:func:`~repro.index.rstar.check_finite`).
    """
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be in (0, 1]")
    if oids is not None and len(oids) != len(points):
        raise ValueError("oids must match points one-to-one")
    # A long double beyond the float range loads as an infinity, which
    # the check below refuses.
    with np.errstate(over="ignore"):
        xy = np.asarray(points, dtype=float)
    if len(xy) and not np.isfinite(xy[:, :2]).all():
        raise ValueError("cannot bulk-load a NaN or infinite coordinate")
    tree = RStarTree(capacity=capacity, disk=disk, **tree_kwargs)
    if not len(xy):
        return tree
    per_node = max(tree.min_fill, min(tree.capacity, int(round(tree.capacity * fill))))

    # Free the page of the placeholder empty root before packing.
    tree.pages.free(tree.root.page_id)

    xs, ys = xy[:, 0], xy[:, 1]
    order, sizes = _str_order(tree, xs, ys, per_node)
    ids = order if oids is None else np.asarray(oids, dtype=np.int64)[order]
    entries = list(map(LeafEntry, ids.tolist(), xs[order].tolist(),
                       ys[order].tolist()))
    level = 0
    nodes = _pack_level(tree, entries, sizes, level)
    while len(nodes) > 1:
        level += 1
        mbrs = np.array([node.mbr for node in nodes])
        with np.errstate(over="ignore"):  # as Rect.center's float sums
            centres = (mbrs[:, :2] + mbrs[:, 2:]) / 2.0
        order, sizes = _str_order(tree, centres[:, 0], centres[:, 1],
                                  per_node)
        nodes = _pack_level(tree, [nodes[i] for i in order.tolist()],
                            sizes, level)
    tree.root = nodes[0]
    tree._size = len(entries)
    return tree


def _str_order(tree: RStarTree, xs: np.ndarray, ys: np.ndarray,
               per_node: int) -> Tuple[np.ndarray, List[int]]:
    """The STR order of one level's items and the sizes of its nodes.

    The items sorted by x are cut into vertical slices, each slice
    sorted by y and cut into nodes; both sorts are stable, so ties keep
    the order the items came in.  Unlike textbook STR, chunk sizes
    within each slice are balanced so that every node respects the
    tree's ``[min_fill, capacity]`` occupancy invariant (a lone
    root-level node may be smaller).
    """
    n = len(xs)
    num_nodes = math.ceil(n / per_node)
    num_slices = max(1, math.ceil(math.sqrt(num_nodes)))
    per_slice = math.ceil(n / num_slices)
    starts = list(range(0, n, per_slice))
    # A trailing sliver of a slice cannot form a legal node on its own;
    # fold it into the previous slice.
    if len(starts) > 1 and n - starts[-1] < tree.min_fill:
        starts.pop()
    by_x = np.argsort(xs, kind="stable")
    order = np.empty_like(by_x)
    sizes: List[int] = []
    for lo, hi in zip(starts, starts[1:] + [n]):
        run = by_x[lo:hi]
        order[lo:hi] = run[np.argsort(ys[run], kind="stable")]
        sizes += _chunk_sizes(hi - lo, tree.min_fill, per_node, tree.capacity)
    return order, sizes


def _pack_level(tree: RStarTree, items: List, sizes: List[int],
                level: int) -> List[Node]:
    """Cut ``items``, already in STR order, into nodes of ``sizes``."""
    nodes: List[Node] = []
    start = 0
    for size in sizes:
        node = Node(level=level, page_id=tree.pages.allocate())
        node.entries = items[start:start + size]
        node.recompute_mbr()
        nodes.append(node)
        start += size
    return nodes


def _chunk_sizes(m: int, min_fill: int, per_node: int, capacity: int) -> List[int]:
    """Split ``m`` items into chunks of size within ``[min_fill, capacity]``.

    Aims for ``per_node`` items per chunk, then walks the chunk count
    down until the evenly-spread sizes respect the minimum fill.  A
    single chunk below ``min_fill`` is returned when ``m`` itself is
    small (legal only for the root, which the caller guarantees).
    """
    if m == 0:
        return []
    chunks = max(math.ceil(m / per_node), math.ceil(m / capacity))
    while chunks > 1 and m // chunks < min_fill:
        chunks -= 1
    if math.ceil(m / chunks) > capacity:
        raise ValueError(
            f"cannot pack {m} items into legal nodes "
            f"(min_fill={min_fill}, capacity={capacity})")
    base, extra = divmod(m, chunks)
    return [base + 1 if i < extra else base for i in range(chunks)]
