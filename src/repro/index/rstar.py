"""The R*-tree [BKSS90].

Supports insertion with forced reinsertion, deletion with tree
condensation, and window queries.  Nearest-neighbour and
time-parameterized queries are layered on top in :mod:`repro.queries`,
using :meth:`RStarTree.read_node` so that every node they touch is
charged to the simulated disk.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.geometry import Rect
from repro.index.entry import LeafEntry
from repro.index.node import Node, entry_mbr
from repro.index.split import rstar_split
from repro.storage import DiskSimulator, PageStore

#: Default page geometry of the paper's experiments: 4 KB pages and
#: 20-byte entries give a node capacity of 204.
DEFAULT_PAGE_SIZE = 4096
DEFAULT_ENTRY_SIZE = 20


def check_finite(x: float, y: float) -> None:
    """Raise ``ValueError`` naming a NaN or infinite coordinate.

    The tree orders points by comparison, which a NaN defeats, and the
    shard router scales a point onto its grid, which an infinity
    defeats: an insert checks before it changes anything.
    """
    for name, value in (("x", x), ("y", y)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} coordinate: {value!r}")


def _overlap_areas(axmin, aymin, axmax, aymax, bxmin, bymin, bxmax, bymax):
    """``Rect.overlap_area`` of every rectangle ``a[i]`` with every
    ``b[j]``, as an ``(len(a), len(b))`` matrix.

    A rounded difference of finite doubles has the sign of the exact
    one, so ``w >= 0`` is ``Rect.intersection``'s ``not xmin > xmax``.
    """
    w = np.minimum.outer(axmax, bxmax) - np.maximum.outer(axmin, bxmin)
    h = np.minimum.outer(aymax, bymax) - np.maximum.outer(aymin, bymin)
    return np.where((w >= 0.0) & (h >= 0.0), w * h, 0.0)


class RStarTree:
    """A 2-D R*-tree over point data.

    Parameters
    ----------
    capacity:
        Maximum entries per node.  When omitted it is derived from
        ``page_size // entry_size`` (the paper's 204).
    min_fill_ratio:
        Minimum node occupancy (R* default 0.4).
    reinsert_ratio:
        Fraction of entries removed on the first overflow of a level
        during one insertion (R* default 0.3).
    disk:
        The :class:`DiskSimulator` charged for query-time node reads.
        Structure modifications (build, insert, delete) are not charged:
        the paper's experiments measure query cost only.
    """

    def __init__(self, capacity: Optional[int] = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 entry_size: int = DEFAULT_ENTRY_SIZE,
                 min_fill_ratio: float = 0.4,
                 reinsert_ratio: float = 0.3,
                 disk: Optional[DiskSimulator] = None):
        if capacity is None:
            capacity = page_size // entry_size
        if capacity < 4:
            raise ValueError("node capacity must be at least 4")
        if not 0.0 < min_fill_ratio <= 0.5:
            raise ValueError("min_fill_ratio must be in (0, 0.5]")
        self.capacity = capacity
        self.min_fill = max(2, int(math.floor(capacity * min_fill_ratio)))
        self.reinsert_count = max(1, int(math.floor(capacity * reinsert_ratio)))
        self.disk = disk if disk is not None else DiskSimulator()
        self.pages = PageStore()
        self.root = self._new_node(level=0)
        self._size = 0
        self._reinserted_levels: Set[int] = set()
        self._in_insert = False

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _new_node(self, level: int) -> Node:
        return Node(level=level, page_id=self.pages.allocate())

    def _free_node(self, node: Node) -> None:
        self.pages.free(node.page_id)
        self.disk.invalidate(node.page_id)

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a root-only tree)."""
        return self.root.level + 1

    @property
    def num_pages(self) -> int:
        return self.pages.num_pages

    def attach_lru_buffer(self, fraction: float) -> int:
        """Install an LRU buffer sized as a fraction of the tree's pages.

        Returns the number of buffer pages (at least 1 when
        ``fraction > 0``), matching the paper's "10 % of the R-tree size".
        """
        pages = max(1, round(self.num_pages * fraction)) if fraction > 0 else 0
        self.disk.set_buffer(pages)
        return pages

    def read_node(self, node: Node) -> None:
        """Charge one query-time access to ``node``."""
        self.disk.read(node.page_id)

    def nodes(self) -> Iterator[Node]:
        """All nodes, top-down (not charged to the disk)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.entries)

    def leaves(self) -> Iterator[Node]:
        """All leaf nodes, in the order :meth:`points` and the dataset
        snapshot walk them (not charged to the disk)."""
        return (node for node in self.nodes() if node.is_leaf)

    def points(self) -> Iterator[LeafEntry]:
        """All stored data points, leaf by leaf (not charged to the disk)."""
        for leaf in self.leaves():
            yield from leaf.entries

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, oid: int, x: float, y: float) -> None:
        """Insert one data point (``ValueError`` on a non-finite
        coordinate)."""
        check_finite(x, y)
        top_level_call = not self._in_insert
        if top_level_call:
            self._reinserted_levels = set()
            self._in_insert = True
        try:
            self._insert_at_level(LeafEntry(oid, float(x), float(y)), level=0)
        finally:
            if top_level_call:
                self._in_insert = False
        self._size += 1

    def extend(self, points: Sequence) -> None:
        """Insert ``(x, y)`` pairs, assigning sequential object ids."""
        start = self._size
        for i, p in enumerate(points):
            self.insert(start + i, p[0], p[1])

    def _insert_at_level(self, entry, level: int) -> None:
        """Make ``entry`` a child of some node *at* ``level``.

        ``entry`` is a :class:`LeafEntry` (then ``level`` is 0) or an
        orphaned subtree of level ``level - 1`` being re-inserted during
        forced reinsertion or tree condensation.
        """
        path = self._choose_path(entry_mbr(entry), level)
        path[-1].entries.append(entry)
        self._adjust_upward(path)

    def _choose_path(self, mbr: Rect, target_level: int) -> List[Node]:
        """Descend from the root to a node at ``target_level``."""
        node = self.root
        path = [node]
        while node.level > target_level:
            node = self._choose_subtree(node, mbr)
            path.append(node)
        return path

    def _choose_subtree(self, node: Node, mbr: Rect) -> Node:
        """R* ChooseSubtree, in one numpy pass over ``node.columns()``.

        For the level directly above the leaves the child minimizing
        *overlap* enlargement wins; higher up, minimum area enlargement.
        Ties break on area enlargement, then absolute area, then child
        order.  Every score is the value the per-child ``Rect`` code
        gives: the same IEEE min, max, subtraction and multiplication on
        the same operands, and each child's overlap deltas summed left to
        right in child order.  That holds while no area or overlap
        overflows to infinity (coordinate spans below about 1.3e154);
        past that an enlargement is ``inf - inf``, a NaN that lexsort
        sorts last where the loop's ``<`` kept the first child.
        Reading the columns charges no node access (writes read no
        nodes).
        """
        xmin, ymin, xmax, ymax = node.columns()
        # Every child's MBR enlarged to cover ``mbr`` (``Rect.union``).
        exmin = np.minimum(xmin, mbr.xmin)
        eymin = np.minimum(ymin, mbr.ymin)
        exmax = np.maximum(xmax, mbr.xmax)
        eymax = np.maximum(ymax, mbr.ymax)
        area = (xmax - xmin) * (ymax - ymin)
        growth = (exmax - exmin) * (eymax - eymin) - area
        if node.level == 1:
            delta = (_overlap_areas(exmin, eymin, exmax, eymax,
                                    xmin, ymin, xmax, ymax)
                     - _overlap_areas(xmin, ymin, xmax, ymax,
                                      xmin, ymin, xmax, ymax))
            np.fill_diagonal(delta, 0.0)  # a child does not overlap itself
            # add.accumulate sums each row sequentially, as ``+=`` does;
            # a pairwise or compensated sum could change the last bit.
            keys = (area, growth, np.add.accumulate(delta, axis=1)[:, -1])
        else:
            keys = (area, growth)
        # lexsort is stable: the first of equal keys wins, as with ``<``.
        return node.entries[int(np.lexsort(keys)[0])]

    def _adjust_upward(self, path: List[Node]) -> None:
        """Recompute MBRs bottom-up, resolving overflows as they appear."""
        i = len(path) - 1
        while i >= 0:
            node = path[i]
            node.recompute_mbr()
            if len(node.entries) > self.capacity:
                if node is not self.root and node.level not in self._reinserted_levels:
                    self._reinserted_levels.add(node.level)
                    self._forced_reinsert(node, path[:i + 1])
                    return  # reinsertions re-adjusted every affected path
                self._split_node(node, path, i)
            i -= 1

    def _forced_reinsert(self, node: Node, path_to_node: List[Node]) -> None:
        """Remove the entries farthest from the node centre and re-insert them."""
        center = node.mbr.center()
        node.entries.sort(
            key=lambda e: entry_mbr(e).center().distance_sq_to(center))
        victims = node.entries[-self.reinsert_count:]
        del node.entries[-self.reinsert_count:]
        # Tighten the whole remaining path before re-inserting, so later
        # ChooseSubtree decisions see consistent MBRs.
        for ancestor in reversed(path_to_node):
            ancestor.recompute_mbr()
        # Far-reinsert order (farthest first) per the original paper's
        # recommendation of re-inserting "maximally distant" entries.
        for victim in reversed(victims):
            self._insert_at_level(victim, node.level)

    def _split_node(self, node: Node, path: List[Node], index: int) -> None:
        """Split an overflowing node; grow a new root when needed."""
        group1, group2 = rstar_split(node.entries, self.min_fill)
        node.entries = group1
        node.recompute_mbr()
        sibling = self._new_node(node.level)
        sibling.entries = group2
        sibling.recompute_mbr()
        if index == 0:
            new_root = self._new_node(level=node.level + 1)
            new_root.entries = [node, sibling]
            new_root.recompute_mbr()
            self.root = new_root
        else:
            path[index - 1].entries.append(sibling)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, oid: int, x: float, y: float) -> bool:
        """Remove a data point; returns ``False`` when it is not stored."""
        target = LeafEntry(oid, float(x), float(y))
        path = self._find_leaf(self.root, [], target)
        if path is None:
            return False
        leaf = path[-1]
        leaf.entries.remove(target)
        self._size -= 1
        self._condense(path)
        # Shrink the tree when the root became a trivial inner node.
        while self.root.level > 0 and len(self.root.entries) == 1:
            old_root = self.root
            self.root = self.root.entries[0]
            self._free_node(old_root)
        return True

    def _find_leaf(self, node: Node, path: List[Node],
                   target: LeafEntry) -> Optional[List[Node]]:
        path = path + [node]
        if node.is_leaf:
            return path if target in node.entries else None
        for child in node.entries:
            if child.mbr.contains_point((target.x, target.y)):
                found = self._find_leaf(child, path, target)
                if found is not None:
                    return found
        return None

    def _condense(self, path: List[Node]) -> None:
        """CondenseTree: drop underfull nodes, re-insert their entries."""
        orphans: List = []  # (entry, level) pairs
        for i in range(len(path) - 1, 0, -1):
            node = path[i]
            parent = path[i - 1]
            if len(node.entries) < self.min_fill:
                parent.entries.remove(node)
                orphans.extend((e, node.level) for e in node.entries)
                self._free_node(node)
            else:
                node.recompute_mbr()
        self.root.recompute_mbr()
        for entry, level in orphans:
            self._reinserted_levels = set()
            self._insert_at_level(entry, level)

    # ------------------------------------------------------------------
    # window query
    # ------------------------------------------------------------------
    def window(self, rect: Rect,
               exclude: Optional[Rect] = None) -> List[LeafEntry]:
        """All data points inside the (closed) query rectangle, less
        those inside the closed ``exclude`` rectangle.

        Every visited node — including the root — is charged to the
        simulated disk, matching the paper's node-access counting;
        ``exclude`` prunes no node.
        """
        xmin, ymin, xmax, ymax = rect
        result: List[LeafEntry] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.read_node(node)
            cols = node.columns()
            entries = node.entries
            if node.is_leaf:
                # rect.contains_point of every entry
                xs, ys = cols
                hits = (xmin <= xs) & (xs <= xmax) & (ymin <= ys) & (ys <= ymax)
                if exclude is not None:
                    # and not exclude.contains_point
                    ex0, ey0, ex1, ey1 = exclude
                    hits &= ~((ex0 <= xs) & (xs <= ex1)
                              & (ey0 <= ys) & (ys <= ey1))
                result.extend(compress(entries, hits.tolist()))
            else:
                # rect.intersects of every child MBR
                hits = ((cols[0] <= xmax) & (cols[2] >= xmin)
                        & (cols[1] <= ymax) & (cols[3] >= ymin))
                stack.extend(compress(entries, hits.tolist()))
        return result

    # ------------------------------------------------------------------
    # integrity checking (used heavily by the test-suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` on any structural violation."""
        size = 0
        stack = [(self.root, None)]
        while stack:
            node, expected_level = stack.pop()
            if expected_level is not None:
                assert node.level == expected_level, "level mismatch"
            if node is not self.root:
                assert self.min_fill <= len(node.entries) <= self.capacity, (
                    f"occupancy {len(node.entries)} outside "
                    f"[{self.min_fill}, {self.capacity}]")
            else:
                assert len(node.entries) <= self.capacity
                if node.level > 0:
                    assert len(node.entries) >= 2, "inner root needs >= 2 children"
            assert self.pages.is_live(node.page_id), "node on freed page"
            if node.entries:
                recomputed = Rect.from_rects([entry_mbr(e) for e in node.entries])
                assert node.mbr == recomputed, "MBR not tight"
            if node._columns is not None:
                assert np.array_equal(node._columns,
                                      node._build_columns()), "stale columns"
            if node._oids is not None:
                assert np.array_equal(node._oids,
                                      node._build_oids()), "stale oids"
            if node.is_leaf:
                size += len(node.entries)
            else:
                for child in node.entries:
                    assert node.mbr.contains_rect(child.mbr), "child outside MBR"
                    stack.append((child, node.level - 1))
        assert size == self._size, f"size mismatch: {size} != {self._size}"
