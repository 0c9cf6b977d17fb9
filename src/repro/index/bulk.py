"""Sort-Tile-Recursive (STR) bulk loading.

The paper builds disk-resident R*-trees over up to a million points.
Rebuilding such trees by repeated insertion for every cardinality of a
parameter sweep would dominate experiment time in pure Python, so the
benchmark harness bulk-loads with STR (Leutenegger et al.), the standard
packing algorithm.  The resulting trees have the same height, page
count and near-identical node extents as insertion-built R*-trees at
the configured fill factor, which is what the cost experiments measure.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import List, Optional, Sequence

from repro.index.entry import LeafEntry
from repro.index.node import Node
from repro.index.rstar import RStarTree
from repro.storage import DiskSimulator

_X = itemgetter(1)
_Y = itemgetter(2)


def bulk_load_str(points: Sequence, capacity: Optional[int] = None,
                  fill: float = 0.7,
                  disk: Optional[DiskSimulator] = None,
                  oids: Optional[Sequence[int]] = None,
                  **tree_kwargs) -> RStarTree:
    """Build an :class:`RStarTree` over ``points`` with STR packing.

    Parameters
    ----------
    points:
        ``(x, y)`` pairs; object ids are the sequence positions unless
        ``oids`` supplies them explicitly (a sharded server loads each
        shard with its points' *global* ids).
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
    entries: List[LeafEntry] = [
        LeafEntry(i if oids is None else int(oids[i]),
                  float(p[0]), float(p[1]))
        for i, p in enumerate(points)
    ]
    if entries and not _all_finite(entries):
        raise ValueError("cannot bulk-load a NaN or infinite coordinate")
    tree = RStarTree(capacity=capacity, disk=disk, **tree_kwargs)
    if not entries:
        return tree
    per_node = max(tree.min_fill, min(tree.capacity, int(round(tree.capacity * fill))))

    # Free the page of the placeholder empty root before packing.
    tree.pages.free(tree.root.page_id)

    level = 0
    nodes = _pack_level(tree, entries, per_node, level,
                        key_of=lambda e: (e.x, e.y))
    while len(nodes) > 1:
        level += 1
        nodes = _pack_level(tree, nodes, per_node, level,
                            key_of=lambda n: n.mbr.center())
    tree.root = nodes[0]
    tree._size = len(entries)
    return tree


def _all_finite(entries: List[LeafEntry]) -> bool:
    """Whether every entry's coordinates are finite: one float sum over
    them, which a NaN or an infinity makes non-finite (only a sum that
    is not finite, such as an overflow of huge finite terms, is settled
    point by point)."""
    if math.isfinite(sum(map(_X, entries)) + sum(map(_Y, entries))):
        return True
    return all(math.isfinite(e.x) and math.isfinite(e.y) for e in entries)


def _pack_level(tree: RStarTree, items: List, per_node: int, level: int,
                key_of) -> List[Node]:
    """Tile ``items`` into nodes of about ``per_node`` entries, STR-style.

    Unlike textbook STR, chunk sizes within each vertical slice are
    balanced so that every node respects the tree's ``[min_fill,
    capacity]`` occupancy invariant (a lone root-level node may be
    smaller).
    """
    n = len(items)
    num_nodes = math.ceil(n / per_node)
    num_slices = max(1, math.ceil(math.sqrt(num_nodes)))
    per_slice = math.ceil(n / num_slices)

    items = sorted(items, key=lambda it: key_of(it)[0])
    runs = [items[s:s + per_slice] for s in range(0, n, per_slice)]
    # A trailing sliver of a slice cannot form a legal node on its own;
    # fold it into the previous slice.
    if len(runs) > 1 and len(runs[-1]) < tree.min_fill:
        runs[-2].extend(runs.pop())

    nodes: List[Node] = []
    for run in runs:
        run = sorted(run, key=lambda it: key_of(it)[1])
        start = 0
        for size in _chunk_sizes(len(run), tree.min_fill, per_node, tree.capacity):
            node = Node(level=level, page_id=tree.pages.allocate())
            node.entries = run[start:start + size]
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
