"""Struct-of-arrays snapshot of a point dataset.

The columnar kernels evaluate whole candidate sets at once, which wants
the dataset as parallel coordinate arrays rather than a tree of
:class:`~repro.index.entry.LeafEntry` objects.  :class:`PointColumns`
is that snapshot: ``xs``/``ys``/``oids`` as stdlib ``array`` columns
(zero-copy viewable as numpy arrays), plus the original entries so
results materialize as the same ``LeafEntry`` objects the scalar path
returns.

Snapshots are immutable; :class:`~repro.core.server.LocationServer`
and :class:`~repro.service.shard.ShardedServer` cache one per dataset
epoch (``dataset_columns()``) and rebuild it after updates.  The
columnar kernels and the snapshot query kinds (reverse-kNN,
probabilistic kNN) all read that one snapshot.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List

from repro.index.entry import LeafEntry

__all__ = ["PointColumns"]


class PointColumns:
    """Immutable SoA view over a sequence of leaf entries."""

    __slots__ = ("entries", "xs", "ys", "oids", "_np")

    def __init__(self, entries: Iterable[LeafEntry]):
        self.entries: List[LeafEntry] = list(entries)
        self.xs = array("d", (e.x for e in self.entries))
        self.ys = array("d", (e.y for e in self.entries))
        #: Signed 64-bit so any Python-int oid the index accepts fits.
        self.oids = array("q", (e.oid for e in self.entries))
        self._np = None

    @classmethod
    def from_tree(cls, tree) -> "PointColumns":
        """Snapshot every leaf entry of an R*-tree (no node accesses
        are charged: this is server-side memory, not simulated I/O)."""
        return cls(tree.points())

    def __len__(self) -> int:
        return len(self.entries)

    def as_numpy(self):
        """``(xs, ys, oids)`` as numpy arrays sharing the column buffers.

        Cached after the first call.
        """
        if self._np is None:
            import numpy as np
            self._np = (
                np.frombuffer(self.xs, dtype=np.float64),
                np.frombuffer(self.ys, dtype=np.float64),
                np.frombuffer(self.oids, dtype=np.int64),
            )
        return self._np
