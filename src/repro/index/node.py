"""R*-tree nodes.

Besides its entries, a node caches them as numpy columns, built on the
first :meth:`Node.columns` call (a leaf's oids on the first
:meth:`Node.oids` call) and dropped by :meth:`Node.recompute_mbr`.
The tree searches of :mod:`repro.queries` and :meth:`RStarTree.window`
evaluate one visited node in one numpy pass over these columns instead
of one Python call per entry; which nodes they visit is unchanged.
ChooseSubtree scores an inner node's children from its columns, and
:meth:`PointColumns.from_tree <repro.kernel.columns.PointColumns.from_tree>`
concatenates the leaves' columns and oids into the dataset snapshot.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter, itemgetter
from typing import List, Optional, Union

import numpy as np

from repro.geometry import Rect
from repro.index.entry import LeafEntry

_OID = itemgetter(0)
_X = itemgetter(1)
_Y = itemgetter(2)
_MBR = attrgetter("mbr")


class Node:
    """One R*-tree node, occupying one simulated disk page.

    ``level`` 0 is the leaf level.  A leaf's ``entries`` are
    :class:`LeafEntry` instances; an inner node's ``entries`` are child
    ``Node`` instances.  ``mbr`` is kept tight by the tree operations.

    :meth:`columns` caches the entries as a float64 array: ``(2, n)``
    rows ``x``, ``y`` for a leaf, ``(4, m)`` rows ``xmin``, ``ymin``,
    ``xmax``, ``ymax`` of the children's MBRs for an inner node.
    :meth:`oids` caches a leaf's oids as an int64 column beside them,
    built only for the dataset snapshot: the scalar query paths read
    coordinates alone.  Every
    mutation path (insert, split, forced reinsert, delete/condense, bulk
    load, ``load_tree``) ends by calling :meth:`recompute_mbr` on each
    node whose entries or children's MBRs changed, which drops the
    cache.  Readers: the query traversals (charged per node read),
    :meth:`RStarTree._choose_subtree <repro.index.rstar.RStarTree._choose_subtree>`
    on inner nodes and the dataset snapshot on leaves (neither charged).
    The lazy fill is idempotent, and the reads and mutations of
    one tree are serialized by the service lock (or a replica's lock),
    so no lock guards it here.
    """

    __slots__ = ("level", "entries", "mbr", "page_id", "_columns", "_oids")

    def __init__(self, level: int, page_id: int):
        self.level = level
        self.entries: List[Union[LeafEntry, "Node"]] = []
        self.mbr: Rect = Rect(0.0, 0.0, 0.0, 0.0)
        self.page_id = page_id
        self._columns: Optional[np.ndarray] = None
        self._oids: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def recompute_mbr(self) -> None:
        """Tighten ``mbr`` to exactly cover the current entries (and
        drop the cached columns, which may no longer match them)."""
        self._columns = self._oids = None
        entries = self.entries
        if not entries:
            self.mbr = Rect(0.0, 0.0, 0.0, 0.0)
        elif self.is_leaf:
            # A point's MBR is the point: min/max over the same values in
            # the same order as ``Rect.from_rects``, without a Rect each.
            self.mbr = Rect(min(map(_X, entries)), min(map(_Y, entries)),
                            max(map(_X, entries)), max(map(_Y, entries)))
        else:
            self.mbr = Rect.from_rects([child.mbr for child in entries])

    def columns(self) -> np.ndarray:
        """The entries as numpy columns (see the class docstring)."""
        cols = self._columns
        if cols is None:
            cols = self._columns = self._build_columns()
        return cols

    def oids(self) -> np.ndarray:
        """A leaf's entry oids as an int64 column (cached like
        :meth:`columns`)."""
        oids = self._oids
        if oids is None:
            oids = self._oids = self._build_oids()
        return oids

    def _build_oids(self) -> np.ndarray:
        entries = self.entries
        return np.fromiter(map(_OID, entries), dtype=np.int64,
                           count=len(entries))

    def _build_columns(self) -> np.ndarray:
        entries = self.entries
        n = len(entries)
        if self.is_leaf:
            return np.fromiter(chain(map(_X, entries), map(_Y, entries)),
                               dtype=float, count=2 * n).reshape(2, n)
        return np.fromiter(chain.from_iterable(map(_MBR, entries)),
                           dtype=float, count=4 * n).reshape(n, 4).T

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"inner(level={self.level})"
        return f"<Node {kind} page={self.page_id} fanout={len(self.entries)}>"


def entry_mbr(entry: Union[LeafEntry, Node]) -> Rect:
    """MBR of either kind of entry."""
    return entry.mbr
