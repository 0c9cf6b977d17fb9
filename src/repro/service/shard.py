"""The sharded server: scatter-gather over a grid of R*-trees.

One R*-tree over the whole dataset serializes every query on one
simulated disk.  :class:`ShardedServer` partitions the universe into a
K×K grid and builds an **independent** :class:`LocationServer` (own
tree, own disk, own buffer) per non-empty cell, so a query fans out
over a worker pool and only touches the shards that can contribute.

The interesting part is keeping the paper's validity-region contract
across the merge.  Per query type:

* **kNN** — shards are ranked by MINDIST of the query to their data
  MBRs; the nearest shard runs first and its k-th neighbour distance
  prunes every shard whose MINDIST exceeds it (such a shard cannot
  contribute a neighbour).  The survivors are queried through the pool
  and merged to the global top-k.  The merged validity region is the
  **intersection** of the per-shard regions — inside it every shard's
  local top-k set is frozen, so the candidate union is frozen — further
  clipped by a safety disk of radius ``min((c_{k+1} - c_k)/2, min over
  pruned shards of (MINDIST - d_k)/2)`` where ``c_i`` are the sorted
  candidate distances: moving by δ changes any point-to-query distance
  by at most δ, so inside the disk neither a reorder across the k-th
  candidate boundary nor an entry from a pruned shard is possible.
* **window** — a shard can affect the result at the focus iff the focus
  lies in its data MBR inflated by the half-extents (the Minkowski
  hull of its points' window rectangles).  Exactly those shards are
  queried and their conservative rectangles intersected; every
  *non-contributing* shard whose inflated MBR still intersects that
  rectangle is excluded by an axis **cut** that separates the focus
  from the inflated MBR — zero node accesses for shards the window
  cannot reach.
* **range** — shards with ``MINDIST <= radius`` are queried; the merged
  validity disk radius is the minimum of the per-shard radii and, for
  every pruned shard, its slack ``MINDIST - radius``.

Degraded-mode budgets are split across shards: a request's
``max_node_accesses`` is divided evenly over the shards being queried
(each shard meters its own disk), and any shard exhausting its slice
degrades the merged response exactly like the single-tree server
would — the merged region simply intersects that shard's conservative
safe disk.

The class implements the same narrow instrumentation interface as
:class:`LocationServer` (``answer``, ``io_stats``, ``num_points``,
``disk_snapshot``, …), so the service layer — cache, tracing, metrics,
resilience — composes with it unchanged.  :func:`build_server` builds
either server shape from raw points.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.api import QueryBudget, QueryDetail, QueryRequest, Response
from repro.core.server import LocationServer, execute
from repro.core.validity import (
    CompositeValidityRegion,
    ValidityDisk,
    WindowValidityRegion,
)
from repro.geometry import Rect
from repro.geometry.rect import _cut_away
from repro.index.bulk import bulk_load_str
from repro.index.entry import LeafEntry
from repro.index.rstar import RStarTree, check_finite
from repro.kernel import ExecutionConfig, PointColumns
from repro.obs.context import attach, current_trace, emit_event
from repro.obs.context import span as obs_span
from repro.storage.counters import AccessStats

__all__ = [
    "build_server",
    "ShardedServer",
    "Shard",
    "ShardedKNNDetail",
    "ShardedWindowDetail",
    "ShardedRangeDetail",
]


@dataclass
class Shard:
    """One grid cell's independent location server."""

    sid: int
    cell: Tuple[int, int]
    server: LocationServer

    @property
    def data_mbr(self) -> Rect:
        """MBR of the shard's actual points (tighter than its cell)."""
        return self.server.tree.root.mbr

    @property
    def num_points(self) -> int:
        return self.server.num_points


# ----------------------------------------------------------------------
# merged detail records (the sharded arm of the QueryDetail hierarchy)
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class _FanOutDetail(QueryDetail):
    """The fan-out accounting every merged detail carries
    (:meth:`ShardedServer._gathered` fills it in)."""

    shards_total: int
    shards_queried: int
    shards_pruned: int
    #: Node accesses each queried shard charged to this query.
    per_shard_node_accesses: Dict[int, int]
    #: ``(shard id, that shard's own detail)`` in query order (MINDIST
    #: order for kNN).
    shard_details: List[Tuple[int, QueryDetail]] = field(default_factory=list)
    degraded: bool = False

    @property
    def influence_set(self) -> List[LeafEntry]:
        """The queried shards' influence objects, each once."""
        out: List[LeafEntry] = []
        seen = set()
        for _sid, detail in self.shard_details:
            for entry in getattr(detail, "influence_set", []) or []:
                if entry.oid not in seen:
                    seen.add(entry.oid)
                    out.append(entry)
        return out


@dataclass
class ShardedKNNDetail(_FanOutDetail):
    """How a scatter-gathered kNN answer came together."""

    kind = "knn"

    query: Tuple[float, float]
    k: int
    neighbors: List[LeafEntry]
    #: Radius of the cross-shard safety disk clipped into the merged
    #: region (``None`` when no clipping was needed).
    safety_radius: Optional[float]
    num_tp_queries: int = 0


@dataclass
class ShardedWindowDetail(_FanOutDetail):
    """How a scatter-gathered window answer came together."""

    kind = "window"

    focus: Tuple[float, float]
    window: Rect
    result: List[LeafEntry]
    #: The merged validity rectangle (same contract as the single-tree
    #: :class:`~repro.core.window_validity.WindowValidityResult`).
    conservative_region: Rect
    #: Shards excluded by an axis cut instead of a query.
    shards_cut: int


@dataclass
class ShardedRangeDetail(_FanOutDetail):
    """How a scatter-gathered range answer came together."""

    kind = "range"

    focus: Tuple[float, float]
    radius: float
    result: List[LeafEntry]
    #: The merged validity disk radius (may be ``math.inf``).
    validity_radius: float


def _grid_axis(values: np.ndarray, lo: float, extent: float,
               n: int) -> np.ndarray:
    """:meth:`Rect.grid_index` along one axis for a whole array:
    ``min(n - 1, max(0, int((v - lo) / extent * n)))``, and cell 0
    across a zero extent."""
    if extent <= 0:
        return np.zeros(len(values), dtype=np.int64)
    return np.clip((values - lo) / extent * n, 0, n - 1).astype(np.int64)


class ShardedServer:
    """A grid of independent location servers answering as one.

    Drop-in for :class:`LocationServer` wherever the narrow server
    interface is used (the service layer, the benchmarks): same
    ``answer(request)`` entry point, same response record, same
    validity-region guarantee on every merged response.
    """

    def __init__(self, shards: Sequence[Shard], universe: Rect,
                 grid: int, capacity: Optional[int] = None,
                 execution: Optional[ExecutionConfig] = None,
                 buffer_fraction: float = 0.0):
        self.universe = universe
        self.grid = grid
        self._capacity = capacity
        self._by_cell: Dict[Tuple[int, int], Shard] = {
            s.cell: s for s in shards
        }
        self.queries_processed = 0
        self.epoch = 0
        #: ``(snapshot, epoch)`` once :meth:`dataset_columns` has run.
        self._columns = None
        #: The fleet's running I/O total (see :attr:`io_stats`).
        self._io = AccessStats()
        self.execution = (execution if execution is not None
                          else ExecutionConfig())
        #: LRU buffer share of shards that :meth:`insert_object` creates.
        self._buffer_fraction = float(buffer_fraction)
        workers = self.execution.workers
        if workers is None:
            workers = min(max(len(self._by_cell), 1),
                          os.cpu_count() or 4)
        self._max_workers = max(1, int(workers))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        #: Set by bind_metrics: per-shard work is metered with a shard
        #: label (and any extra, e.g. replica, labels).
        self._metrics = None
        self._metric_labels: Dict[str, str] = {}

    def bind_metrics(self, registry, extra_labels=None) -> None:
        """Report per-shard counters into ``registry`` with labels.

        Every shard job increments ``service.shard.queries{shard=}`` and
        adds its node accesses to ``service.shard.node_accesses{shard=}``.
        ``extra_labels`` ride along on every series (a fronting
        :class:`~repro.service.replica.ReplicaSet` adds ``replica``).
        """
        self._metrics = registry
        self._metric_labels = dict(extra_labels or {})

    def _meter_shard(self, sid: int, node_accesses: int) -> None:
        if self._metrics is None:
            return
        labels = dict(self._metric_labels, shard=str(sid))
        self._metrics.counter("service.shard.queries", labels=labels).inc()
        if node_accesses:
            self._metrics.counter("service.shard.node_accesses",
                                  labels=labels).inc(node_accesses)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Sequence, grid: int = 4,
                    universe: Optional[Rect] = None,
                    capacity: Optional[int] = None, fill: float = 0.7,
                    buffer_fraction: float = 0.0,
                    execution: Optional[ExecutionConfig] = None
                    ) -> "ShardedServer":
        """Partition ``(x, y)`` data into a ``grid``×``grid`` fleet.

        Object ids are the sequence positions (matching
        :meth:`LocationServer.from_points`), preserved globally across
        shards.  ``execution`` selects the geometry kernel every shard
        server runs and the width of the scatter pool.  A NaN or
        infinite coordinate raises ``ValueError``.
        """
        if grid < 1:
            raise ValueError("grid must be positive")
        xy = np.asarray(points, dtype=float)
        if not xy.size:
            raise ValueError("cannot shard an empty dataset")
        if not np.isfinite(xy[:, :2]).all():
            raise ValueError("cannot shard a NaN or infinite coordinate")
        xs, ys = xy[:, 0], xy[:, 1]
        if universe is None:
            universe = Rect(float(xs.min()), float(ys.min()),
                            float(xs.max()), float(ys.max()))
        # Rect.grid_index over the whole array: the same float steps,
        # clipped to the border cells before truncation.
        cell_x = _grid_axis(xs, universe.xmin, universe.width, grid)
        cell_y = _grid_axis(ys, universe.ymin, universe.height, grid)
        keys = cell_x * grid + cell_y
        # Sorted-cell order, each cell's oids ascending.
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.diff(keys[order])) + 1
        shards: List[Shard] = []
        for sid, oids in enumerate(np.split(order, starts)):
            tree = bulk_load_str(xy[oids, :2], capacity=capacity,
                                 fill=fill, oids=oids)
            if buffer_fraction > 0.0:
                tree.attach_lru_buffer(buffer_fraction)
            key = int(keys[oids[0]])
            shards.append(Shard(
                sid=sid,
                cell=(key // grid, key % grid),
                server=LocationServer(tree, universe, execution=execution),
            ))
        return cls(shards, universe, grid, capacity=capacity,
                   execution=execution, buffer_fraction=buffer_fraction)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def shards(self) -> List[Shard]:
        return sorted(self._by_cell.values(), key=lambda s: s.sid)

    @property
    def num_shards(self) -> int:
        return len(self._by_cell)

    def _live(self) -> List[Shard]:
        return [s for s in self.shards if s.num_points > 0]

    def close(self) -> None:
        """Shut down the scatter-gather thread pool.

        Idempotent: closing twice (or closing a server that never built
        a pool) is a no-op, and a closed server rebuilds the pool on its
        next fanned-out query.
        """
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # updates (bump the epoch: outstanding validity regions die)
    # ------------------------------------------------------------------
    def insert_object(self, oid: int, x: float, y: float) -> None:
        """Add a data point, creating its grid cell's shard on demand
        (on the fleet's ``execution``, like the shards it was built
        with)."""
        check_finite(x, y)
        cell = self.universe.grid_index((x, y), self.grid, self.grid)
        shard = self._by_cell.get(cell)
        if shard is None:
            tree = RStarTree(capacity=self._capacity)
            if self._buffer_fraction > 0.0:
                tree.attach_lru_buffer(self._buffer_fraction)
            sid = 1 + max((s.sid for s in self._by_cell.values()),
                          default=-1)
            shard = Shard(sid=sid, cell=cell, server=LocationServer(
                tree, self.universe, execution=self.execution))
            self._by_cell[cell] = shard
        shard.server.insert_object(oid, x, y)
        self.epoch += 1

    def delete_object(self, oid: int, x: float, y: float) -> bool:
        """Remove a data point from its cell's shard.

        A NaN or infinite coordinate names no stored point: ``False``,
        as on a single tree.
        """
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        cell = self.universe.grid_index((x, y), self.grid, self.grid)
        shard = self._by_cell.get(cell)
        if shard is None:
            return False
        removed = shard.server.delete_object(oid, x, y)
        if removed:
            self.epoch += 1
        return removed

    # ------------------------------------------------------------------
    # the unified entry point (mirrors LocationServer.answer)
    # ------------------------------------------------------------------
    def answer(self, request: QueryRequest):
        """Answer any typed query request by scatter-gather.

        It runs through :func:`repro.core.server.execute`, as
        :meth:`LocationServer.answer` does: the kind's one ``execute``
        hook (the builtin kinds scatter-gather through :meth:`_knn`,
        :meth:`_window` and :meth:`_range`), then the §7 delta when the
        request carries ``previous_ids``.  Under an active trace
        context the whole scatter-gather runs in a ``shard_fanout``
        span; each queried shard hangs its own ``shard_<sid>`` child
        (with the disk-phase spans beneath it), so the fan-out renders
        as real parallel tracks in exporters.
        """
        with obs_span("shard_fanout") as fan:
            response = execute(self, request)
            if fan is not None:
                detail = response.detail
                fan.meta.update({
                    "shards_queried": getattr(detail, "shards_queried", 0),
                    "shards_pruned": getattr(detail, "shards_pruned", 0),
                    "node_accesses": sum(getattr(
                        detail, "per_shard_node_accesses", {}).values()),
                })
            return response

    def dataset_columns(self) -> PointColumns:
        """Every live entry across all shards as one
        :class:`~repro.kernel.columns.PointColumns` snapshot (no
        simulated I/O).

        The shards' own epoch-cached snapshots are concatenated, in
        shard order, once per epoch of this server, so within an epoch
        every call returns the same object.  The snapshot kinds
        (reverse-kNN, probabilistic kNN) answer from it on either server
        shape.
        """
        cached = self._columns
        if cached is None or cached[1] != self.epoch:
            epoch = self.epoch
            cached = (PointColumns.concat(
                [s.server.dataset_columns() for s in self._live()]), epoch)
            self._columns = cached
        return cached[0]

    # ------------------------------------------------------------------
    # scatter-gather plumbing
    # ------------------------------------------------------------------
    def _run(self, jobs):
        """Run thunks on the worker pool (inline when it cannot help).

        Pool threads do not inherit the caller's trace context, so it
        is captured here and explicitly re-attached inside each worker
        — per-shard spans stay parented under the query's trace.  When
        a job fails, the error surfaces only after every job has ended,
        so no worker of a failed query keeps reading a shard disk (into
        a retry's reads) or adds spans to a trace already kept.
        """
        if self._max_workers <= 1 or len(jobs) <= 1:
            return [job() for job in jobs]
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-shard")
            pool = self._pool
        ctx = current_trace()

        def handoff(job):
            def run():
                with attach(ctx):
                    return job()
            return run

        futures = [pool.submit(handoff(job)) for job in jobs]
        try:
            return [f.result() for f in futures]
        except Exception:
            wait(futures)
            raise

    def _metered(self, shard: Shard, call):
        """Run ``call(shard)`` under a per-shard child span; returns
        ``(shard, response, io)`` with ``io`` the per-phase accesses it
        cost the shard's own disk."""
        with obs_span(f"shard_{shard.sid}",
                      meta={"sid": shard.sid}) as span_:
            with shard.server.io_stats.measure() as io:
                response = call(shard)
            if span_ is not None:
                span_.meta["node_accesses"] = io.total_node_accesses
        self._meter_shard(shard.sid, io.total_node_accesses)
        return shard, response, io

    def _scatter(self, kind: str, visit: List[Shard], pruned: List[Shard],
                 call, done=()) -> list:
        """Emit the ``shard.scatter`` event and run ``call(shard)`` on
        every shard of ``visit``, each metered (:meth:`_metered`).

        ``done`` holds the ``(shard, response, io)`` of shards already
        queried inline; they lead the event's ``visited`` list and the
        returned list of every queried shard's triple.
        """
        emit_event("shard", event="shard.scatter", kind=kind,
                   visited=[s.sid for s, _r, _io in done]
                   + [s.sid for s in visit],
                   pruned=[s.sid for s in pruned])
        return list(done) + self._run([
            (lambda s=s: self._metered(s, call)) for s in visit])

    def _gathered(self, queried, live: List[Shard],
                  pruned: List[Shard]) -> dict:
        """Add each queried shard's measured I/O to the fleet's running
        total — on the calling thread, so pool workers never share it —
        count the query, and return the fan-out fields of its detail."""
        for _s, _r, io in queried:
            self._io.merge(io)
        self.queries_processed += 1
        shard_details = [(s.sid, resp.detail) for s, resp, _io in queried]
        return dict(
            shards_total=len(live),
            shards_queried=len(queried),
            shards_pruned=len(pruned),
            per_shard_node_accesses={
                s.sid: io.total_node_accesses for s, _r, io in queried},
            shard_details=shard_details,
            degraded=any(d.degraded for _sid, d in shard_details),
        )

    @staticmethod
    def _split_budget(budget: Optional[QueryBudget],
                      ways: int) -> Optional[QueryBudget]:
        if budget is None or ways <= 1:
            return budget
        if budget.max_node_accesses is None:
            return budget
        return QueryBudget(
            deadline_ms=budget.deadline_ms,
            max_node_accesses=max(1, budget.max_node_accesses // ways),
        )

    # ------------------------------------------------------------------
    # kNN
    # ------------------------------------------------------------------
    def _knn(self, location, k: int = 1, vertex_policy: str = "fifo",
             budget: Optional[QueryBudget] = None) -> Response:
        loc = (float(location[0]), float(location[1]))
        live = self._live()
        if not live:
            raise ValueError("kNN query over an empty sharded dataset")
        # Ordering and pruning compare *squared* MINDIST — identical
        # order, and sqrt stays off the scatter hot path.
        order = sorted(live, key=lambda s: s.data_mbr.mindist_sq(loc))

        sub_budget = self._split_budget(budget, len(order))

        def call(s: Shard) -> Response:
            return s.server._knn(loc, k=min(k, s.num_points),
                                 vertex_policy=vertex_policy,
                                 budget=sub_budget)

        # The nearest shard runs inline: its k-th distance is the
        # pruning bound for everyone else.
        nearest = self._metered(order[0], call)
        if len(nearest[1].result) >= k:
            last = nearest[1].result[-1]
            d2_bound = (last.x - loc[0]) ** 2 + (last.y - loc[1]) ** 2
        else:
            d2_bound = math.inf

        survivors = [s for s in order[1:]
                     if s.data_mbr.mindist_sq(loc) <= d2_bound]
        pruned = [s for s in order[1:]
                  if s.data_mbr.mindist_sq(loc) > d2_bound]
        queried = self._scatter("knn", survivors, pruned, call,
                                done=[nearest])

        # Gather: global top-k of the candidate union (squared keys —
        # the ordering is the same, sqrt waits until the safety radius).
        candidates = sorted(
            ((e.x - loc[0]) ** 2 + (e.y - loc[1]) ** 2, e.oid, e)
            for _s, resp, _io in queried for e in resp.result)
        top = candidates[:k]
        neighbors = [e for _d2, _oid, e in top]

        # The safety disk: freeze the cross-shard candidate ordering and
        # keep every pruned shard out of reach.
        rho: Optional[float] = None
        if len(candidates) > k:
            rho = (math.sqrt(candidates[k][0])
                   - math.sqrt(candidates[k - 1][0])) / 2.0
        if pruned:
            d_k = math.sqrt(top[-1][0])
            slack = min((math.sqrt(s.data_mbr.mindist_sq(loc)) - d_k) / 2.0
                        for s in pruned)
            rho = slack if rho is None else min(rho, slack)

        components = [resp.region for _s, resp, _io in queried]
        if rho is not None:
            components.append(ValidityDisk(loc, max(rho, 0.0)))
        region = (components[0] if len(components) == 1
                  else CompositeValidityRegion(components))

        fanout = self._gathered(queried, live, pruned)
        detail = ShardedKNNDetail(
            query=loc,
            k=k,
            neighbors=neighbors,
            safety_radius=None if rho is None else max(rho, 0.0),
            num_tp_queries=sum(getattr(d, "num_tp_queries", 0)
                               for _sid, d in fanout["shard_details"]),
            **fanout,
        )
        return Response(neighbors, region, detail)

    # ------------------------------------------------------------------
    # window
    # ------------------------------------------------------------------
    def _window(self, focus, width: float, height: float,
                budget: Optional[QueryBudget] = None) -> Response:
        f = (float(focus[0]), float(focus[1]))
        hw, hh = width / 2.0, height / 2.0
        live = self._live()
        # A shard can contribute iff the focus lies in the Minkowski
        # hull of its points' window rectangles.
        contributing = [s for s in live
                        if s.data_mbr.inflated(hw, hh).contains_point(f)]
        others = [s for s in live if not
                  s.data_mbr.inflated(hw, hh).contains_point(f)]

        sub_budget = self._split_budget(budget, len(contributing))
        queried = self._scatter(
            "window", contributing, others,
            lambda s: s.server._window(f, width, height, budget=sub_budget))

        rect = self.universe.extended(f)
        for _s, resp, _io in queried:
            overlap = rect.intersection(resp.region.rect)
            if overlap is None:  # numerically disjoint: collapse to f
                overlap = Rect(f[0], f[1], f[0], f[1])
            rect = overlap

        # Exclude every unqueried shard the rectangle could still reach.
        cuts = 0
        for s in others:
            hull = s.data_mbr.inflated(hw, hh)
            if hull.intersects(rect):
                rect = _cut_away(rect, hull, f)
                cuts += 1

        result = sorted((e for _s, resp, _io in queried
                         for e in resp.result), key=lambda e: e.oid)
        detail = ShardedWindowDetail(
            focus=f,
            window=Rect(f[0] - hw, f[1] - hh, f[0] + hw, f[1] + hh),
            result=result,
            conservative_region=rect,
            shards_cut=cuts,
            **self._gathered(queried, live, others),
        )
        return Response(result, WindowValidityRegion(rect), detail)

    # ------------------------------------------------------------------
    # range
    # ------------------------------------------------------------------
    def _range(self, location, radius: float,
               budget: Optional[QueryBudget] = None) -> Response:
        loc = (float(location[0]), float(location[1]))
        live = self._live()
        r2 = radius * radius
        reachable = [s for s in live
                     if s.data_mbr.mindist_sq(loc) <= r2]
        pruned = [s for s in live if s.data_mbr.mindist_sq(loc) > r2]

        sub_budget = self._split_budget(budget, len(reachable))
        queried = self._scatter(
            "range", reachable, pruned,
            lambda s: s.server._range(loc, radius, budget=sub_budget))

        validity_radius = math.inf
        for _s, resp, _io in queried:
            validity_radius = min(validity_radius,
                                  resp.detail.validity_radius)
        for s in pruned:
            validity_radius = min(
                validity_radius,
                math.sqrt(s.data_mbr.mindist_sq(loc)) - radius)
        validity_radius = max(validity_radius, 0.0)

        result = sorted((e for _s, resp, _io in queried
                         for e in resp.result), key=lambda e: e.oid)
        detail = ShardedRangeDetail(
            focus=loc,
            radius=radius,
            result=result,
            validity_radius=validity_radius,
            **self._gathered(queried, live, pruned),
        )
        return Response(result, ValidityDisk(loc, validity_radius), detail)

    # ------------------------------------------------------------------
    # instrumentation — the same narrow interface as LocationServer
    # ------------------------------------------------------------------
    @property
    def io_stats(self) -> AccessStats:
        """The fleet's running I/O total, live like a single disk's.

        Every query measures each shard it reads on that shard's own
        disk and adds the results here on the calling thread, so a
        caller measures one query's fleet-wide cost with
        :meth:`AccessStats.measure` instead of merging every shard's
        counters.  It equals the sum of the shards' own counters as long
        as shards are queried only through this server.
        """
        return self._io

    def reset_io_stats(self) -> None:
        for s in self.shards:
            s.server.reset_io_stats()
        self._io.reset()

    @property
    def num_points(self) -> int:
        return sum(s.num_points for s in self.shards)

    @property
    def num_pages(self) -> int:
        return sum(s.server.num_pages for s in self.shards)

    def disk_snapshot(self) -> Dict[str, object]:
        """Aggregated disk state plus the per-shard breakdown."""
        return {
            "stats": self.io_stats.as_dict(),
            "buffer": None,
            "shards": self.shard_snapshot(),
        }

    def shard_snapshot(self) -> List[Dict[str, object]]:
        """JSON-serializable per-shard topology and I/O accounting."""
        out = []
        for s in self.shards:
            out.append({
                "sid": s.sid,
                "cell": list(s.cell),
                "num_points": s.num_points,
                "num_pages": s.server.num_pages,
                "queries_processed": s.server.queries_processed,
                "node_accesses": s.server.io_stats.total_node_accesses,
                "page_faults": s.server.io_stats.total_page_faults,
            })
        return out


def build_server(points: Sequence, *, shards: int = 1,
                 universe: Optional[Rect] = None,
                 capacity: Optional[int] = None, fill: float = 0.7,
                 buffer_fraction: float = 0.0,
                 execution: Optional[ExecutionConfig] = None
                 ) -> Union[LocationServer, ShardedServer]:
    """One server over raw ``(x, y)`` data, every tree on
    ``execution``'s kernel: the paper's single R*-tree for
    ``shards == 1``, else a ``shards``×``shards`` :class:`ShardedServer`.

    :func:`~repro.service.service.build_service` and
    :meth:`~repro.service.replica.ReplicaSet.from_points` build every
    server shape here.
    """
    if shards == 1:
        return LocationServer.from_points(
            points, universe=universe, capacity=capacity, fill=fill,
            buffer_fraction=buffer_fraction, execution=execution)
    return ShardedServer.from_points(
        points, grid=shards, universe=universe, capacity=capacity,
        fill=fill, buffer_fraction=buffer_fraction, execution=execution)
