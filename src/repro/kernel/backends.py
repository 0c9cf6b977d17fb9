"""The geometry kernels: batch evaluation of whole candidate sets.

Three interchangeable kernels implement the hot geometric primitives of
the paper's query processing:

* :class:`ScalarKernel` — a marker for the seed behaviour: kNN and TPNN
  run one object at a time through the R*-tree (charging simulated node
  accesses); the kernel object itself computes nothing.
* :class:`SoAKernel` — pure-stdlib columnar fallback: brute-force
  evaluation over :class:`~repro.kernel.columns.PointColumns` using
  ``array`` columns and generator pipelines.  No dependencies, modest
  constant-factor wins, identical results.
* :class:`NumpyKernel` — the vectorized fast path: the same formulas
  over whole columns in a handful of numpy array operations.

The columnar kernels answer from an in-memory snapshot, so they charge
**zero** simulated node accesses — they trade the paper's I/O model for
CPU throughput, which is exactly the ablation the kernel benchmarks
measure.  Formulas and tie rules mirror the scalar implementations
(:mod:`repro.queries.nn`, :mod:`repro.queries.tp`) so all kernels
return identical results up to floating-point ties:

* kNN candidates are ordered by ``(dist², oid)``;
* a TPNN influence time is ``t = (|q-p|² - |q-o|²) / (2 v·(p-o))``,
  defined for ``v·(p-o) > 0``, clamped at 0, minimized per candidate
  over the result set in result order (strict ``<``, first wins);
* exact-time ties between candidates prefer objects not already known
  to the caller (``prefer_new``), matching the tree traversal's
  completeness tie-break.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Set, Tuple

from repro.index.entry import LeafEntry
from repro.kernel.columns import PointColumns
from repro.kernel.config import resolve_kernel_name
from repro.queries.tp import TPEvent

__all__ = [
    "ScalarKernel",
    "SoAKernel",
    "NumpyKernel",
    "get_kernel",
    "available_kernels",
]

#: First probe-subset size and the growth factor between escalation
#: levels.  Influence events are local — the winning candidate at time
#: ``t`` provably lies within ``d_k + 2t`` of the query — so probes
#: almost always resolve inside the innermost level.
_SUBSET_BASE = 64
_SUBSET_GROWTH = 8


def _numpy_or_none():
    from repro.kernel.config import numpy_enabled
    if not numpy_enabled():
        return None
    import numpy as np
    return np


class ScalarKernel:
    """The seed path: per-object tree traversal, no batch evaluation."""

    name = "scalar"
    #: Columnar kernels answer kNN/TPNN from a PointColumns snapshot;
    #: the scalar kernel leaves both to the R*-tree algorithms.
    columnar = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SoAKernel:
    """Pure-stdlib columnar kernel (``array``-based, no numpy)."""

    name = "soa"
    columnar = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"

    # ------------------------------------------------------------------
    # kNN over columns
    # ------------------------------------------------------------------
    def knn(self, columns: PointColumns, qx: float, qy: float,
            k: int) -> List[Tuple[float, LeafEntry]]:
        """The ``k`` nearest entries as ``(dist², entry)``, closest first."""
        xs, ys, oids = columns.xs, columns.ys, columns.oids
        best = heapq.nsmallest(
            k, (((xs[i] - qx) ** 2 + (ys[i] - qy) ** 2, oids[i], i)
                for i in range(len(columns))))
        return [(d2, columns.entries[i]) for d2, _oid, i in best]

    # ------------------------------------------------------------------
    # TPNN influence times over columns
    # ------------------------------------------------------------------
    def tp_context(self, columns: PointColumns, qx: float, qy: float,
                   result: Sequence[LeafEntry]) -> "SoAProbeContext":
        """A reusable probe context for one ``(query, result)`` pair.

        The influence-set retrieval fires dozens of TP probes from the
        same query point against the same result set; the context
        amortizes everything direction-independent (distances to the
        query, the near-subset candidate levels) across all of them.
        """
        return SoAProbeContext(columns, qx, qy, result)

    def tp_knn(self, columns: PointColumns, qx: float, qy: float,
               vx: float, vy: float, result: Sequence[LeafEntry],
               prefer_new: Optional[Set[int]] = None) -> TPEvent:
        """First influence event along ``v`` (one-shot convenience)."""
        return self.tp_context(columns, qx, qy, result).probe(
            vx, vy, prefer_new)

    # ------------------------------------------------------------------
    # batch MINDIST and halfplane primitives
    # ------------------------------------------------------------------
    def mindist_sq(self, rects: Sequence, qx: float,
                   qy: float) -> List[float]:
        """Squared MINDIST of ``(qx, qy)`` to every rectangle."""
        out = []
        for r in rects:
            dx = (r.xmin - qx) if qx < r.xmin else (
                (qx - r.xmax) if qx > r.xmax else 0.0)
            dy = (r.ymin - qy) if qy < r.ymin else (
                (qy - r.ymax) if qy > r.ymax else 0.0)
            out.append(dx * dx + dy * dy)
        return out

    def halfplane_margins(self, halfplane, xs: Sequence[float],
                          ys: Sequence[float]) -> List[float]:
        """Signed distances of a point batch to a halfplane boundary
        (negative inside, matching ``HalfPlane.signed_distance``)."""
        a, b, c = halfplane
        return [a * x + b * y - c for x, y in zip(xs, ys)]

    def polygon_contains(self, vertices: Sequence, xs: Sequence[float],
                         ys: Sequence[float], eps: float = 0.0
                         ) -> List[bool]:
        """Batch point-in-convex-polygon (CCW vertices, closed edges)."""
        n = len(vertices)
        if n < 3:
            return [False] * len(xs)
        inside = [True] * len(xs)
        for i in range(n):
            v1 = vertices[i]
            v2 = vertices[(i + 1) % n]
            ex, ey = v2.x - v1.x, v2.y - v1.y
            for j in range(len(xs)):
                if inside[j]:
                    cross = ex * (ys[j] - v1.y) - ey * (xs[j] - v1.x)
                    if cross < -eps:
                        inside[j] = False
        return inside


class SoAProbeContext:
    """Direction-independent TP-probe state over columns (pure stdlib).

    Soundness of the near-subset pruning: a candidate ``p`` whose
    influence event against result member ``o`` fires at time ``t``
    has the moving query ``m = q + t v`` on its bisector with ``o``,
    so ``|p - m| = |o - m| <= |o - q| + t <= d_k + t`` and hence
    ``|p - q| <= d_k + 2 t`` (an event clamped to ``t = 0`` satisfies
    ``|p - q| <= d_k`` outright).  Therefore once a candidate level of
    radius ``R`` yields an event at time ``t`` with
    ``d_k + 2 t < R``, every point that could beat *or tie* it lies
    strictly inside the level and the subset answer is exact; otherwise
    the probe escalates to the next level, ultimately the full column.
    """

    __slots__ = ("columns", "qx", "qy", "result", "_d2", "_d_k",
                 "_result_oids", "_levels", "_sizes")

    def __init__(self, columns: PointColumns, qx: float, qy: float,
                 result: Sequence[LeafEntry]):
        self.columns = columns
        self.qx = qx
        self.qy = qy
        self.result = list(result)
        self._result_oids = {e.oid for e in self.result}
        xs, ys = columns.xs, columns.ys
        self._d2 = [(x - qx) ** 2 + (y - qy) ** 2
                    for x, y in zip(xs, ys)]
        self._d_k = math.sqrt(max(
            ((e.x - qx) ** 2 + (e.y - qy) ** 2 for e in self.result),
            default=0.0))
        n = len(columns)
        sizes = []
        m = _SUBSET_BASE
        while m < n:
            sizes.append(m)
            m *= _SUBSET_GROWTH
        sizes.append(n)
        self._sizes = sizes
        self._levels: List = [None] * len(sizes)

    def _level(self, li: int):
        """``(rows, radius)`` for level ``li``, built lazily and cached.

        ``rows`` holds ``(x, y, dist², index)`` for the level's
        candidates in column order, result members already excluded.
        """
        level = self._levels[li]
        if level is None:
            m = self._sizes[li]
            n = len(self.columns)
            if m >= n:
                idx: Sequence[int] = range(n)
                radius = math.inf
            else:
                smallest = heapq.nsmallest(
                    m, ((d2, i) for i, d2 in enumerate(self._d2)))
                radius = math.sqrt(smallest[-1][0])
                idx = sorted(i for _d2, i in smallest)
            xs, ys, oids = self.columns.xs, self.columns.ys, self.columns.oids
            d2 = self._d2
            rows = [(xs[i], ys[i], d2[i], i) for i in idx
                    if oids[i] not in self._result_oids]
            level = (rows, radius)
            self._levels[li] = level
        return level

    def probe(self, vx: float, vy: float,
              prefer_new: Optional[Set[int]] = None) -> TPEvent:
        """First influence event along direction ``(vx, vy)``."""
        norm = math.hypot(vx, vy)
        if norm == 0.0:
            raise ValueError("TP query direction must be non-zero")
        vx /= norm
        vy /= norm
        known = prefer_new or frozenset()
        qx, qy = self.qx, self.qy
        res_info = [((e.x - qx) ** 2 + (e.y - qy) ** 2,
                     vx * e.x + vy * e.y, e) for e in self.result]
        oids = self.columns.oids
        entries = self.columns.entries
        best_time = math.inf
        best_i = -1
        best_pair: Optional[LeafEntry] = None
        for li in range(len(self._sizes)):
            rows, radius = self._level(li)
            best_time = math.inf
            best_i = -1
            best_pair = None
            for x, y, p_dist_sq, i in rows:
                v_dot_p = vx * x + vy * y
                t_best, pair = math.inf, None
                for o_dist_sq, v_dot_o, o in res_info:
                    den = 2.0 * (v_dot_p - v_dot_o)
                    if den <= 0.0:
                        continue
                    t = (p_dist_sq - o_dist_sq) / den
                    if t < 0.0:
                        t = 0.0
                    if t < t_best:
                        t_best, pair = t, o
                if pair is None:
                    continue
                wins = t_best < best_time or (
                    t_best == best_time
                    and best_i >= 0
                    and oids[best_i] in known
                    and oids[i] not in known)
                if wins:
                    best_time = t_best
                    best_i = i
                    best_pair = pair
            if (best_pair is not None
                    and self._d_k + 2.0 * best_time < radius):
                return TPEvent(best_time, entries[best_i], best_pair)
        if best_pair is None:
            return TPEvent(math.inf, None, None)
        return TPEvent(best_time, entries[best_i], best_pair)


class NumpyProbeContext:
    """Vectorized direction-independent TP-probe state (numpy).

    Same level/escalation scheme and soundness bound as
    :class:`SoAProbeContext`; each probe costs a handful of array
    operations over the innermost level that proves the bound.
    """

    __slots__ = ("np", "columns", "qx", "qy", "result", "_d2", "_d_k",
                 "_o_d2", "_ox", "_oy", "_excluded", "_levels", "_sizes")

    def __init__(self, np, columns: PointColumns, qx: float, qy: float,
                 result: Sequence[LeafEntry]):
        self.np = np
        self.columns = columns
        self.qx = qx
        self.qy = qy
        self.result = list(result)
        xs, ys, oids = columns.as_numpy()
        dx = xs - qx
        dy = ys - qy
        self._d2 = dx * dx + dy * dy
        k = len(self.result)
        self._ox = np.fromiter((e.x for e in self.result), dtype=float,
                               count=k)
        self._oy = np.fromiter((e.y for e in self.result), dtype=float,
                               count=k)
        self._o_d2 = (self._ox - qx) ** 2 + (self._oy - qy) ** 2
        self._d_k = math.sqrt(float(self._o_d2.max())) if k else 0.0
        result_ids = np.fromiter((e.oid for e in self.result),
                                 dtype=np.int64, count=k)
        self._excluded = np.isin(oids, result_ids)
        n = len(columns)
        sizes = []
        m = _SUBSET_BASE
        while m < n:
            sizes.append(m)
            m *= _SUBSET_GROWTH
        sizes.append(n)
        self._sizes = sizes
        self._levels: List = [None] * len(sizes)

    def _level(self, li: int):
        """``(idx, xs, ys, dist², oids, excluded, radius)`` arrays for
        level ``li``, gathered once and cached (column order)."""
        level = self._levels[li]
        if level is None:
            np = self.np
            m = self._sizes[li]
            n = len(self.columns)
            xs, ys, oids = self.columns.as_numpy()
            if m >= n:
                idx = np.arange(n)
                radius = math.inf
            else:
                idx = np.argpartition(self._d2, m - 1)[:m]
                idx.sort()
                radius = math.sqrt(float(self._d2[idx].max()))
            level = (idx, xs[idx], ys[idx], self._d2[idx], oids[idx],
                     self._excluded[idx], radius)
            self._levels[li] = level
        return level

    def probe(self, vx: float, vy: float,
              prefer_new: Optional[Set[int]] = None) -> TPEvent:
        """First influence event along direction ``(vx, vy)``."""
        np = self.np
        norm = math.hypot(vx, vy)
        if norm == 0.0:
            raise ValueError("TP query direction must be non-zero")
        if not self.result:
            return TPEvent(math.inf, None, None)
        vx /= norm
        vy /= norm
        known = prefer_new or frozenset()
        v_dot_o = vx * self._ox + vy * self._oy
        o_d2 = self._o_d2
        for li in range(len(self._sizes)):
            idx, xs_s, ys_s, p_d2, oid_s, excl, radius = self._level(li)
            if not idx.size:
                continue
            v_dot_p = vx * xs_s + vy * ys_s
            den = v_dot_p - v_dot_o[:, None]
            den += den
            bad = den <= 0.0
            np.copyto(den, 1.0, where=bad)
            t = p_d2 - o_d2[:, None]
            t /= den
            np.copyto(t, math.inf, where=bad)
            np.maximum(t, 0.0, out=t)
            best_t = t.min(axis=0)
            np.copyto(best_t, math.inf, where=excl)
            t_min = float(best_t.min())
            if not math.isfinite(t_min):
                continue  # no event this close — look farther out
            if self._d_k + 2.0 * t_min >= radius:
                continue  # not provably global — escalate
            ties = np.nonzero(best_t == t_min)[0]
            pick = int(ties[0])
            if ties.size > 1 and known:
                # Completeness tie-break of the tree traversal: a
                # not-yet-known influence object wins an exact-time tie.
                for s in ties:
                    if int(oid_s[s]) not in known:
                        pick = int(s)
                        break
            # argmin over the winning column returns the *first*
            # minimizing result index — the scalar strict-< rule in
            # result order.
            pair_j = int(np.argmin(t[:, pick]))
            return TPEvent(t_min, self.columns.entries[int(idx[pick])],
                           self.result[pair_j])
        return TPEvent(math.inf, None, None)


class NumpyKernel(SoAKernel):
    """Vectorized columnar kernel (requires numpy)."""

    name = "numpy"
    columnar = True

    def __init__(self):
        np = _numpy_or_none()
        if np is None:
            raise RuntimeError("numpy kernel constructed without numpy")
        self._np = np

    def tp_context(self, columns: PointColumns, qx: float, qy: float,
                   result: Sequence[LeafEntry]) -> NumpyProbeContext:
        return NumpyProbeContext(self._np, columns, qx, qy, result)

    def knn(self, columns: PointColumns, qx: float, qy: float,
            k: int) -> List[Tuple[float, LeafEntry]]:
        np = self._np
        n = len(columns)
        xs, ys, oids = columns.as_numpy()
        dx = xs - qx
        dy = ys - qy
        d2 = dx * dx + dy * dy
        if k < n:
            idx = np.argpartition(d2, k - 1)[:k] if k > 0 else []
        else:
            idx = np.arange(n)
        ordered = sorted(
            ((float(d2[i]), int(oids[i]), int(i)) for i in idx))
        return [(d, columns.entries[i]) for d, _oid, i in ordered]

    def mindist_sq(self, rects: Sequence, qx: float, qy: float):
        np = self._np
        n = len(rects)
        xmin = np.fromiter((r.xmin for r in rects), dtype=float, count=n)
        xmax = np.fromiter((r.xmax for r in rects), dtype=float, count=n)
        ymin = np.fromiter((r.ymin for r in rects), dtype=float, count=n)
        ymax = np.fromiter((r.ymax for r in rects), dtype=float, count=n)
        dx = np.maximum(xmin - qx, 0.0) + np.maximum(qx - xmax, 0.0)
        dy = np.maximum(ymin - qy, 0.0) + np.maximum(qy - ymax, 0.0)
        return list(dx * dx + dy * dy)

    def halfplane_margins(self, halfplane, xs, ys):
        np = self._np
        a, b, c = halfplane
        return list(a * np.asarray(xs, dtype=float)
                    + b * np.asarray(ys, dtype=float) - c)

    def polygon_contains(self, vertices: Sequence, xs, ys,
                         eps: float = 0.0):
        np = self._np
        n = len(vertices)
        px = np.asarray(xs, dtype=float)
        py = np.asarray(ys, dtype=float)
        if n < 3:
            return [False] * len(px)
        inside = np.ones(len(px), dtype=bool)
        for i in range(n):
            v1 = vertices[i]
            v2 = vertices[(i + 1) % n]
            cross = ((v2.x - v1.x) * (py - v1.y)
                     - (v2.y - v1.y) * (px - v1.x))
            inside &= cross >= -eps
        return list(inside)


def available_kernels() -> Tuple[str, ...]:
    """Concrete kernel names usable right now (`auto` excluded)."""
    names = ["scalar", "soa"]
    if _numpy_or_none() is not None:
        names.append("numpy")
    return tuple(names)


def get_kernel(spec=None):
    """Resolve ``spec`` to a kernel object.

    ``None`` means the scalar (seed) kernel; a string is resolved via
    :func:`repro.kernel.config.resolve_kernel_name` (so ``"auto"``
    picks numpy when available, else SoA); a kernel instance passes
    through unchanged.
    """
    if spec is None:
        return ScalarKernel()
    if not isinstance(spec, str):
        return spec
    name = resolve_kernel_name(spec)
    if name == "scalar":
        return ScalarKernel()
    if name == "soa":
        return SoAKernel()
    return NumpyKernel()
