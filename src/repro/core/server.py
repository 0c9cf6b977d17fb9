"""The location server: the public query-processing facade.

Wraps an R*-tree and answers location-based queries with (result,
validity region, influence set) triples, tracking the server-side I/O
statistics that Section 6 reports.

Every answer is a :class:`repro.core.api.Response` — a §7 re-answer
too, carrying its ``added`` entries and ``removed_ids`` — and
:meth:`LocationServer.answer` — the single query entry point — accepts
any typed request from :mod:`repro.core.api`.

The geometry kernel is chosen once, by ``execution=``
(:class:`~repro.kernel.ExecutionConfig`): the default scalar kernel
runs the paper's per-object tree algorithms and charges simulated node
accesses; the columnar numpy kernel of :mod:`repro.kernel`
batch-evaluates kNN and TPNN influence times over a struct-of-arrays
snapshot of the dataset (:meth:`LocationServer.dataset_columns`, cached
per epoch) for raw CPU throughput.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.geometry import Rect
from repro.index.rstar import RStarTree
from repro.index.bulk import bulk_load_str
from repro.core.api import (
    BudgetClock,
    QueryBudget,
    QueryRequest,
    Response,
    query_semantics,
)
from repro.core.nn_validity import compute_nn_validity
from repro.core.range_validity import compute_range_validity
from repro.core.window_validity import compute_window_validity
from repro.kernel import ExecutionConfig, PointColumns


class LocationServer:
    """Answers location-based spatial queries over a point dataset.

    The dataset is *mostly* static (the paper's setting), but updates
    are supported: every :meth:`insert_object` / :meth:`delete_object`
    bumps the server ``epoch``.  Clients remember the epoch their cached
    validity region was computed under and drop the cache when it goes
    stale — modelling the invalidation broadcast a deployed system would
    push to its subscribers.  This is exactly where validity regions
    beat the pre-computed Voronoi diagram of [ZL01], whose maintenance
    cost under updates the paper criticizes.
    """

    def __init__(self, tree: RStarTree, universe: Optional[Rect] = None,
                 execution: Optional[ExecutionConfig] = None):
        self.tree = tree
        self.universe = universe if universe is not None else tree.root.mbr
        self.queries_processed = 0
        self.epoch = 0
        #: Does kNN run on the numpy kernel over :meth:`dataset_columns`
        #: (``False``: the scalar tree path, also for ``execution=None``)?
        self._columnar = (execution is not None
                          and execution.resolved_kernel() == "numpy")
        #: ``(snapshot, epoch)`` once :meth:`dataset_columns` has run.
        self._columns = None

    def dataset_columns(self) -> PointColumns:
        """Every data entry as a :class:`~repro.kernel.columns.PointColumns`
        snapshot (no simulated I/O).

        Built on first use and cached for the dataset epoch, whatever the
        kernel: within an epoch every call returns the same object, and
        the first call after an update builds a new one.  The snapshot
        kinds (reverse-kNN, probabilistic kNN) and the columnar kernels
        answer from it.
        """
        cached = self._columns
        if cached is None or cached[1] != self.epoch:
            # Read the epoch before walking the tree: an update racing
            # the walk leaves the snapshot stale, never stamped current.
            epoch = self.epoch
            cached = (PointColumns.from_tree(self.tree), epoch)
            self._columns = cached
        return cached[0]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert_object(self, oid: int, x: float, y: float) -> None:
        """Add a data point; invalidates all outstanding validity regions."""
        self.tree.insert(oid, x, y)
        self.epoch += 1

    def delete_object(self, oid: int, x: float, y: float) -> bool:
        """Remove a data point; invalidates all outstanding regions."""
        removed = self.tree.delete(oid, x, y)
        if removed:
            self.epoch += 1
        return removed

    @classmethod
    def from_points(cls, points: Sequence, universe: Optional[Rect] = None,
                    capacity: Optional[int] = None, fill: float = 0.7,
                    buffer_fraction: float = 0.0,
                    execution: Optional[ExecutionConfig] = None
                    ) -> "LocationServer":
        """Bulk-load a server over raw ``(x, y)`` data."""
        tree = bulk_load_str(points, capacity=capacity, fill=fill)
        if buffer_fraction > 0.0:
            tree.attach_lru_buffer(buffer_fraction)
        return cls(tree, universe, execution=execution)

    # ------------------------------------------------------------------
    # the unified entry point
    # ------------------------------------------------------------------
    def answer(self, request: QueryRequest) -> Response:
        """Answer any registered query request (see :mod:`repro.core.api`).

        Dispatch goes through the :class:`~repro.core.api.QuerySemantics`
        registry (see :func:`execute`), so third-party query types
        answered here need no server changes.  Requests carrying
        ``previous_ids`` are answered incrementally (the §7 delta).
        """
        return execute(self, request)

    def _start_clock(self, budget: Optional[QueryBudget]
                     ) -> Optional[BudgetClock]:
        if budget is None or budget.unlimited:
            return None
        return budget.start(self.io_stats)

    # ------------------------------------------------------------------
    # query implementations
    # ------------------------------------------------------------------
    def _knn(self, location, k: int = 1, vertex_policy: str = "fifo",
             rng: Optional[random.Random] = None,
             budget: Optional[QueryBudget] = None) -> Response:
        # A location outside the universe still gets a region holding it.
        universe = self.universe.extended(location)
        detail = compute_nn_validity(self.tree, location, k=k,
                                     universe=universe,
                                     vertex_policy=vertex_policy, rng=rng,
                                     clock=self._start_clock(budget),
                                     columns=(self.dataset_columns()
                                              if self._columnar else None))
        self.queries_processed += 1
        return Response(detail.neighbors, detail.validity_region(universe),
                        detail)

    def _window(self, focus, width: float, height: float,
                budget: Optional[QueryBudget] = None) -> Response:
        detail = compute_window_validity(self.tree, focus, width, height,
                                         universe=self.universe,
                                         clock=self._start_clock(budget))
        self.queries_processed += 1
        return Response(detail.result, detail.validity_region(), detail)

    def _range(self, location, radius: float,
               budget: Optional[QueryBudget] = None) -> Response:
        detail = compute_range_validity(self.tree, location, radius,
                                        clock=self._start_clock(budget))
        self.queries_processed += 1
        return Response(detail.result, detail.validity_region(), detail)

    # ------------------------------------------------------------------
    # instrumentation — the narrow interface the service layer uses.
    # Any server implementation (this one, ShardedServer) provides it.
    # ------------------------------------------------------------------
    @property
    def io_stats(self):
        return self.tree.disk.stats

    def reset_io_stats(self) -> None:
        self.tree.disk.reset_stats()

    @property
    def num_points(self) -> int:
        return len(self.tree)

    @property
    def num_pages(self) -> int:
        return self.tree.num_pages

    def disk_snapshot(self) -> Dict[str, object]:
        """JSON-serializable disk + buffer state (the snapshot format)."""
        disk = self.tree.disk
        out: Dict[str, object] = {
            "stats": disk.stats.as_dict(),
            "buffer": (disk.buffer.snapshot()
                       if disk.buffer is not None else None),
        }
        injected = getattr(disk, "snapshot", None)
        if callable(injected) and hasattr(disk, "plan"):
            out["faults_injected"] = disk.snapshot()
        return out


def execute(server, request: QueryRequest) -> Response:
    """Answer ``request`` on ``server`` — a :class:`LocationServer` or a
    :class:`~repro.service.shard.ShardedServer` — the one way both
    servers' ``answer`` runs a query.

    The kind's :meth:`~repro.core.api.QuerySemantics.execute` computes
    the full answer, which must be a :class:`~repro.core.api.Response`;
    a request carrying ``previous_ids`` gets it back with the §7 delta
    against those ids, whatever its kind.
    """
    semantics = query_semantics(request)
    full = semantics.execute(server, request)
    if type(full) is not Response:
        raise TypeError(f"the {semantics.kind!r} kind's execute returned "
                        f"a {type(full).__name__}; it must return a "
                        f"repro.Response itself")
    previous_ids = getattr(request, "previous_ids", None)
    if previous_ids is None:
        return full
    previous = set(previous_ids)
    current = {e.oid for e in full.result}
    return replace(full,
                   added=[e for e in full.result if e.oid not in previous],
                   removed_ids=sorted(previous - current))
