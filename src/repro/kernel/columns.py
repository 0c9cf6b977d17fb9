"""Struct-of-arrays snapshot of a point dataset.

The columnar kernels evaluate whole candidate sets at once, which wants
the dataset as parallel coordinate arrays rather than a tree of
:class:`~repro.index.entry.LeafEntry` objects.  :class:`PointColumns`
is that snapshot: ``xs``/``ys``/``oids`` as numpy arrays, plus the
original entries so results materialize as the same ``LeafEntry``
objects the scalar path returns.

Snapshots are immutable; :class:`~repro.core.server.LocationServer`
and :class:`~repro.service.shard.ShardedServer` cache one per dataset
epoch (``dataset_columns()``) and rebuild it after updates.  A tree's
snapshot concatenates its leaves' cached node columns (see
:class:`~repro.index.node.Node`), so a rebuild after one insert or
delete recomputes only the leaves that mutation touched.  The columnar
kernels and the snapshot query kinds (reverse-kNN, probabilistic kNN)
all read that one snapshot.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, List, Sequence

import numpy as np

from repro.index.entry import LeafEntry

__all__ = ["PointColumns"]

_OID = itemgetter(0)
_X = itemgetter(1)
_Y = itemgetter(2)


def _column(entries: List[LeafEntry], field, dtype) -> np.ndarray:
    return np.fromiter(map(field, entries), dtype=dtype, count=len(entries))


class PointColumns:
    """Immutable SoA view over a sequence of leaf entries."""

    __slots__ = ("entries", "xs", "ys", "oids")

    def __init__(self, entries: Iterable[LeafEntry]):
        self.entries: List[LeafEntry] = list(entries)
        self.xs = _column(self.entries, _X, np.float64)
        self.ys = _column(self.entries, _Y, np.float64)
        #: Signed 64-bit so any Python-int oid the index accepts fits.
        self.oids = _column(self.entries, _OID, np.int64)

    @classmethod
    def _of(cls, entries: List[LeafEntry], xs: np.ndarray, ys: np.ndarray,
            oids: np.ndarray) -> "PointColumns":
        cols = cls.__new__(cls)
        cols.entries, cols.xs, cols.ys, cols.oids = entries, xs, ys, oids
        return cols

    @classmethod
    def from_tree(cls, tree) -> "PointColumns":
        """Snapshot every leaf entry of an R*-tree, leaf by leaf in
        ``tree.leaves()`` order, which is ``tree.points()`` order (no
        node accesses are charged: this is server-side memory, not
        simulated I/O).

        Concatenates the leaves' ``(2, n)`` node columns and oid
        columns, so only leaves whose columns a mutation dropped are
        rebuilt.
        """
        leaves = list(tree.leaves())
        xy = np.concatenate([leaf.columns() for leaf in leaves], axis=1)
        oids = np.concatenate([leaf.oids() for leaf in leaves])
        entries = list(chain.from_iterable(leaf.entries for leaf in leaves))
        return cls._of(entries, xy[0], xy[1], oids)

    @classmethod
    def concat(cls, parts: Sequence["PointColumns"]) -> "PointColumns":
        """One snapshot of ``parts``' entries, in order."""
        if not parts:
            return cls(())
        return cls._of(
            list(chain.from_iterable(p.entries for p in parts)),
            np.concatenate([p.xs for p in parts]),
            np.concatenate([p.ys for p in parts]),
            np.concatenate([p.oids for p in parts]))

    def __len__(self) -> int:
        return len(self.entries)

    def as_numpy(self):
        """``(xs, ys, oids)``: the snapshot's numpy columns."""
        return self.xs, self.ys, self.oids
