"""The location server: the public query-processing facade.

Wraps an R*-tree and answers location-based queries with (result,
validity region, influence set) triples, tracking the server-side I/O
statistics that Section 6 reports.

Every response class implements the :class:`repro.core.api.QueryResponse`
protocol (``.result``, ``.region``, ``.detail``, ``.transfer_bytes()``),
and :meth:`LocationServer.answer` — the single query entry point —
accepts any typed request from :mod:`repro.core.api`.

The geometry kernel is pluggable (``kernel=``): the default scalar
kernel runs the paper's per-object tree algorithms and charges
simulated node accesses; the columnar kernels of :mod:`repro.kernel`
batch-evaluate kNN and TPNN influence times over a struct-of-arrays
snapshot of the dataset (:meth:`LocationServer.dataset_columns`, cached
per epoch) for raw CPU throughput.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.geometry import Rect
from repro.index.entry import LeafEntry
from repro.index.rstar import RStarTree
from repro.index.bulk import bulk_load_str
from repro.core.api import BudgetClock, QueryBudget, QueryRequest
from repro.core.nn_validity import NNValidityResult, compute_nn_validity
from repro.core.range_validity import (
    RangeValidityRegion,
    RangeValidityResult,
    compute_range_validity,
    DISK_BYTES,
)
from repro.core.validity import (
    NNValidityRegion,
    WindowValidityRegion,
    POINT_BYTES,
    RECT_BYTES,
)
from repro.core.window_validity import WindowValidityResult, compute_window_validity
from repro.kernel.backends import get_kernel
from repro.kernel.columns import PointColumns


@dataclass
class KNNResponse:
    """What the server ships back for a kNN query."""

    neighbors: List[LeafEntry]
    region: NNValidityRegion
    detail: NNValidityResult

    @property
    def result(self) -> List[LeafEntry]:
        """The result entries (:class:`~repro.core.api.QueryResponse`)."""
        return self.neighbors

    def transfer_bytes(self) -> int:
        """Result points + influence payload (paper's network-cost model)."""
        return POINT_BYTES * len(self.neighbors) + self.region.transfer_bytes()


@dataclass
class WindowResponse:
    """What the server ships back for a window query."""

    result: List[LeafEntry]
    region: WindowValidityRegion
    detail: WindowValidityResult

    def transfer_bytes(self) -> int:
        return POINT_BYTES * len(self.result) + RECT_BYTES


@dataclass
class RangeResponse:
    """What the server ships back for a circular range query (§7 ext.)."""

    result: List[LeafEntry]
    region: RangeValidityRegion
    detail: RangeValidityResult

    def transfer_bytes(self) -> int:
        return POINT_BYTES * len(self.result) + DISK_BYTES


@dataclass
class DeltaResponse:
    """Incremental re-query response (the §7 delta-transmission idea).

    Instead of the full result, the server ships only the objects
    *added* since the client's previous result and the ids *removed*
    from it, together with the fresh validity region.
    """

    added: List[LeafEntry]
    removed_ids: List[int]
    #: The fresh full response (regions, details); its result list is
    #: what the client reconstructs from its cache plus the delta.
    full: object

    @property
    def result(self) -> List[LeafEntry]:
        """The full fresh result (what the client state converges to)."""
        return self.full.result

    @property
    def region(self):
        return self.full.region

    @property
    def detail(self):
        return self.full.detail

    def transfer_bytes(self) -> int:
        region_bytes = self.full.region.transfer_bytes()
        return (POINT_BYTES * len(self.added)
                + 4 * len(self.removed_ids) + region_bytes)


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
                 kernel=None):
        self.tree = tree
        self.universe = universe if universe is not None else tree.root.mbr
        self.queries_processed = 0
        self.epoch = 0
        self.kernel = get_kernel(kernel)
        #: ``(snapshot, epoch)`` once :meth:`dataset_columns` has run.
        self._columns = None

    def use_kernel(self, kernel) -> None:
        """Swap the geometry kernel (name, ``None``, or instance)."""
        self.kernel = get_kernel(kernel)

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

    def _kernel_columns(self):
        """The snapshot on a columnar kernel (``None`` on the scalar path)."""
        return self.dataset_columns() if self.kernel.columnar else None

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
                    kernel=None) -> "LocationServer":
        """Bulk-load a server over raw ``(x, y)`` data."""
        tree = bulk_load_str(points, capacity=capacity, fill=fill)
        if buffer_fraction > 0.0:
            tree.attach_lru_buffer(buffer_fraction)
        return cls(tree, universe, kernel=kernel)

    # ------------------------------------------------------------------
    # the unified entry point
    # ------------------------------------------------------------------
    def answer(self, request: QueryRequest):
        """Answer any registered query request (see :mod:`repro.core.api`).

        Dispatch goes through the :class:`~repro.core.api.QuerySemantics`
        registry, so third-party query types answered here need no
        server changes.  Requests carrying ``previous_ids`` are answered
        incrementally (a :class:`DeltaResponse`); all responses satisfy
        the :class:`~repro.core.api.QueryResponse` protocol.
        """
        from repro.core.api import query_semantics
        return query_semantics(request).execute(self, request)

    def dataset_entries(self) -> List[LeafEntry]:
        """A point-in-time list of every data entry (no simulated I/O):
        a copy of :meth:`dataset_columns`' entries, for query types that
        iterate entries rather than columns."""
        return list(self.dataset_columns().entries)

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
             budget: Optional[QueryBudget] = None) -> KNNResponse:
        detail = compute_nn_validity(self.tree, location, k=k,
                                     universe=self.universe,
                                     vertex_policy=vertex_policy, rng=rng,
                                     clock=self._start_clock(budget),
                                     kernel=self.kernel,
                                     columns=self._kernel_columns())
        self.queries_processed += 1
        return KNNResponse(
            neighbors=detail.neighbors,
            region=detail.validity_region(self.universe),
            detail=detail,
        )

    def _window(self, focus, width: float, height: float,
                budget: Optional[QueryBudget] = None) -> WindowResponse:
        detail = compute_window_validity(self.tree, focus, width, height,
                                         universe=self.universe,
                                         clock=self._start_clock(budget))
        self.queries_processed += 1
        return WindowResponse(
            result=detail.result,
            region=detail.validity_region(),
            detail=detail,
        )

    def _range(self, location, radius: float,
               budget: Optional[QueryBudget] = None) -> RangeResponse:
        detail = compute_range_validity(self.tree, location, radius,
                                        clock=self._start_clock(budget))
        self.queries_processed += 1
        return RangeResponse(
            result=detail.result,
            region=detail.validity_region(),
            detail=detail,
        )

    def _knn_delta(self, location, k: int, previous_ids,
                   budget: Optional[QueryBudget] = None) -> DeltaResponse:
        full = self._knn(location, k=k, budget=budget)
        return _delta(full, full.neighbors, previous_ids)

    def _window_delta(self, focus, width: float, height: float, previous_ids,
                      budget: Optional[QueryBudget] = None) -> DeltaResponse:
        full = self._window(focus, width, height, budget=budget)
        return _delta(full, full.result, previous_ids)

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

    def node_accesses_by_phase(self) -> Dict[str, int]:
        return self.io_stats.node_accesses_by_phase()

    def page_faults_by_phase(self) -> Dict[str, int]:
        return self.io_stats.page_faults_by_phase()

    def set_phase_listener(self, listener):
        """Install (or clear) the disk phase listener; returns the old one."""
        return self.tree.disk.set_phase_listener(listener)

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


def delta_response(full, result: List[LeafEntry], previous_ids
                   ) -> DeltaResponse:
    """Diff a full response against a client's cached result ids."""
    previous = set(previous_ids)
    current = {e.oid for e in result}
    return DeltaResponse(
        added=[e for e in result if e.oid not in previous],
        removed_ids=sorted(previous - current),
        full=full,
    )


_delta = delta_response
