"""The numpy kernel: batch evaluation of whole candidate sets.

The paper's kNN and TPNN hot paths run one object at a time through
the R*-tree, charging simulated node accesses.  This module evaluates
them over a whole :class:`~repro.kernel.columns.PointColumns` snapshot
in a handful of numpy array operations instead: :func:`knn` ranks
every entry by distance, and a :class:`NumpyProbeContext` answers the
TPNN influence probes of one ``(query, result)`` pair.

The columnar kernel answers from an in-memory snapshot, so it charges
**zero** simulated node accesses — it trades the paper's I/O model for
CPU throughput, which is exactly the ablation the kernel benchmarks
measure.  Formulas and tie rules mirror the scalar implementations
(:mod:`repro.queries.nn`, :mod:`repro.queries.tp`) so both paths
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

import math
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.index.entry import LeafEntry
from repro.kernel.columns import PointColumns
from repro.queries.tp import TPEvent

__all__ = ["NumpyProbeContext", "knn"]

#: First probe-subset size and the growth factor between escalation
#: levels.  Influence events are local — the winning candidate at time
#: ``t`` provably lies within ``d_k + 2t`` of the query — so probes
#: almost always resolve inside the innermost level.
_SUBSET_BASE = 64
_SUBSET_GROWTH = 8


class NumpyProbeContext:
    """Vectorized direction-independent TP-probe state.

    The influence-set retrieval fires dozens of TP probes from the same
    query point against the same result set; the context computes
    everything direction-independent (distances to the query, the
    near-subset candidate levels) once, and each probe costs a handful
    of array operations over the innermost level that proves the bound.

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
                 "_o_d2", "_ox", "_oy", "_excluded", "_levels", "_sizes")

    def __init__(self, columns: PointColumns, qx: float, qy: float,
                 result: Sequence[LeafEntry]):
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


def knn(columns: PointColumns, qx: float, qy: float,
        k: int) -> List[Tuple[float, LeafEntry]]:
    """The ``k`` nearest entries as ``(dist², entry)``, closest first."""
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
