"""Answer checking against the query-kind registry's brute-force oracles.

The benchmark keeps its own mirror of the dataset, mutated alongside the
service, and checks sampled client answers with
``query_semantics(kind).oracle(points, request)``.  The oracles are pure
Python and scan every point (rknn is quadratic), which is far too slow
for a 569k-point dataset inside a benchmark run.  So each check hands
the oracle a neighbourhood of the query that provably yields the same
verdict as the whole dataset:

* knn / probknn -- every point within the k-th distance (plus the
  probknn horizon ``2u``) of the query, padded by a margin;
* window / range -- every point inside the (padded) query window or
  disk;
* rknn -- the candidates that may count the query among their own k
  nearest (from per-point k-th neighbour radii computed once per
  dataset version with numpy), plus every point that could be among a
  candidate's k nearest.  The oracle's verdict is read for the
  candidates only; every other point is provably outside both sets.

Numpy only selects the neighbourhood; the verdict is the oracle's own.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro import query_semantics
from repro.index.entry import LeafEntry

#: Padding around every neighbourhood.  Far above the oracles' own tie
#: slack (1e-9), far below any distance that changes an answer.
_MARGIN = 1e-6
#: Rows of the blocked all-pairs distance computation.  Small, so that
#: the checker's temporaries (a few ``_BLOCK`` x N float arrays) stay
#: far below the program's own memory and never set the run's peak RSS.
_BLOCK = 32


class DatasetMirror:
    """The benchmark's copy of the dataset, as growable numpy columns."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        n = len(pts)
        self._ids = np.arange(n, dtype=np.int64)
        self._pts = pts.copy()
        self._alive = np.ones(n, dtype=bool)
        self._row: Dict[int, int] = {i: i for i in range(n)}
        self._size = n
        self.version = 0
        self._view_version = -1
        self._view: Tuple[np.ndarray, np.ndarray] = (self._ids, self._pts)
        self._radii: Dict[int, np.ndarray] = {}
        self._radii_version = -1

    def __len__(self) -> int:
        return len(self._row)

    def insert(self, oid: int, x: float, y: float) -> None:
        if self._size == len(self._ids):
            grow = max(1024, self._size // 4)
            self._ids = np.concatenate([self._ids, np.zeros(grow, np.int64)])
            self._pts = np.concatenate([self._pts, np.zeros((grow, 2))])
            self._alive = np.concatenate([self._alive, np.zeros(grow, bool)])
        row = self._size
        self._ids[row] = oid
        self._pts[row] = (x, y)
        self._alive[row] = True
        self._row[oid] = row
        self._size += 1
        self.version += 1

    def delete(self, oid: int) -> None:
        self._alive[self._row.pop(oid)] = False
        self.version += 1

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, points)`` of the live objects at the current version."""
        if self._view_version != self.version:
            alive = self._alive[:self._size]
            self._view = (self._ids[:self._size][alive],
                          self._pts[:self._size][alive])
            self._view_version = self.version
        return self._view

    def entries(self, mask: np.ndarray) -> list:
        ids, pts = self.arrays()
        return [LeafEntry(int(i), float(p[0]), float(p[1]))
                for i, p in zip(ids[mask], pts[mask])]

    def kth_radii(self, k: int) -> np.ndarray:
        """Every live point's distance to its k-th nearest other point."""
        if self._radii_version != self.version:
            self._radii = {}
            self._radii_version = self.version
        if k not in self._radii:
            _, pts = self.arrays()
            out = np.full(len(pts), np.inf)
            if len(pts) > k:
                for lo in range(0, len(pts), _BLOCK):
                    block = pts[lo:lo + _BLOCK]
                    d = np.hypot(block[:, None, 0] - pts[None, :, 0],
                                 block[:, None, 1] - pts[None, :, 1])
                    # Column 0 of a sorted row is the point itself.
                    out[lo:lo + _BLOCK] = np.partition(d, k, axis=1)[:, k]
            self._radii[k] = out
        return self._radii[k]


def _distances(pts: np.ndarray, q) -> np.ndarray:
    return np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1])


def _kth(d: np.ndarray, k: int) -> float:
    if len(d) <= k:
        return math.inf
    return float(np.partition(d, k - 1)[k - 1])


def neighbourhood(mirror: DatasetMirror, request) -> Tuple[list, Optional[set]]:
    """Points the oracle needs for ``request``, and the ids its verdict
    is read for (``None``: all of them)."""
    ids, pts = mirror.arrays()
    kind = request.kind
    if kind == "window":
        fx, fy = request.focus
        mask = ((np.abs(pts[:, 0] - fx) <= request.width / 2.0 + _MARGIN)
                & (np.abs(pts[:, 1] - fy) <= request.height / 2.0 + _MARGIN))
        return mirror.entries(mask), None
    d = _distances(pts, request.location)
    if kind == "range":
        return mirror.entries(d <= request.radius + _MARGIN), None
    if kind == "knn":
        return mirror.entries(d <= _kth(d, request.k) + _MARGIN), None
    if kind == "probknn":
        horizon = _kth(d, request.k) + 2.0 * request.uncertainty
        return mirror.entries(d <= horizon + _MARGIN), None
    if kind == "rknn":
        cand = d <= mirror.kth_radii(request.k) + _MARGIN
        keep = cand.copy()
        for i in np.flatnonzero(cand):
            keep |= _distances(pts, pts[i]) <= d[i] + 2.0 * _MARGIN
        return mirror.entries(keep), {int(i) for i in ids[cand]}
    raise ValueError(f"no neighbourhood rule for query kind {kind!r}")


def check_answer(mirror: DatasetMirror, request,
                 answer: Iterable) -> Optional[str]:
    """None when ``answer`` (the entries a client returned for
    ``request``) matches the registry oracle on the mirror's current
    dataset, else what is wrong with it."""
    got = {e.oid for e in answer}
    points, scope = neighbourhood(mirror, request)
    must, may = query_semantics(request.kind).oracle(points, request)
    if scope is not None:
        must, may = must & scope, may & scope
    if not must <= got:
        return f"{request.kind}: misses ids {sorted(must - got)[:5]}"
    if not got <= may:
        return f"{request.kind}: has impossible ids {sorted(got - may)[:5]}"
    if request.kind == "knn" and len(got) != min(request.k, len(mirror)):
        return f"knn: {len(got)} ids for k={request.k}"
    return None
