"""Worker-process side of the process-pool shard backend.

Each pool worker is initialized exactly once with the serialized
R*-tree of every shard (:func:`repro.storage.serialize.tree_to_bytes`
images) and rebuilds them into private :class:`LocationServer`
instances — after that, queries cross the process boundary only as the
compact frames of :mod:`repro.service.framing`.

The worker keeps the parent's observability contract:

* it opens a trace with the request's ``trace_id`` and runs each shard
  job under its own ``shard_<sid>`` span, so the disk-phase spans the
  query produces keep their usual shape;
* the recorded span tree travels back in the response frame (parent
  links as local indices) and the parent re-injects it into the live
  trace with a time-base shift — process workers render in exporters
  exactly like thread workers;
* per-phase node accesses and page faults are measured around each job
  on the worker's copy of that shard's disk
  (:meth:`~repro.storage.counters.AccessStats.measure`) and merged into
  the parent-side shard counters at decode time
  (:meth:`~repro.service.shard.ShardedServer._scatter_process`), so
  ``io_stats``, phase breakdowns, shard snapshots *and* the dimensional
  ``service.shard.*{shard=,backend="process"}`` registry series stay
  accurate under the process backend — the worker never talks to a
  registry itself.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.api import QueryBudget
from repro.core.server import LocationServer
from repro.geometry import Rect
from repro.obs.context import span as obs_span
from repro.obs.context import start_trace
from repro.service.framing import (
    RequestFrame,
    decode_request,
    encode_response,
)
from repro.storage.serialize import tree_from_bytes

__all__ = ["worker_init", "worker_run"]

#: Per-process shard servers, keyed by shard id (set by worker_init).
_SERVERS: Dict[int, LocationServer] = {}
_UNIVERSE: Optional[Rect] = None


def worker_init(blobs: Dict[int, bytes],
                universe: Tuple[float, float, float, float],
                kernel: Optional[str],
                buffer_fraction: float = 0.0) -> None:
    """Pool initializer: rebuild every shard tree once per worker.

    ``blobs`` maps shard id to its ``tree_to_bytes`` image; the trees
    are reassembled page-for-page, so worker-side traversal (and the
    node accesses it charges) is identical to the parent's.
    """
    global _UNIVERSE
    _SERVERS.clear()
    _UNIVERSE = Rect(*universe)
    for sid, blob in blobs.items():
        tree = tree_from_bytes(blob, source=f"shard-{sid}")
        if buffer_fraction > 0.0:
            tree.attach_lru_buffer(buffer_fraction)
        _SERVERS[sid] = LocationServer(tree, _UNIVERSE, kernel=kernel)


def _budget(frame: RequestFrame) -> Optional[QueryBudget]:
    if frame.deadline_ms is None and frame.max_node_accesses is None:
        return None
    return QueryBudget(deadline_ms=frame.deadline_ms,
                       max_node_accesses=frame.max_node_accesses)


def _run_job(frame: RequestFrame, job: Tuple,
             budget: Optional[QueryBudget]):
    sid = job[0]
    server = _SERVERS[sid]
    if frame.kind == "knn":
        qx, qy, policy = frame.params
        return sid, server._knn((qx, qy), k=job[1], vertex_policy=policy,
                                budget=budget)
    if frame.kind == "window":
        fx, fy, width, height = frame.params
        return sid, server._window((fx, fy), width, height, budget=budget)
    x, y, radius = frame.params
    return sid, server._range((x, y), radius, budget=budget)


def worker_run(data: bytes) -> bytes:
    """Evaluate one request frame; returns the response frame."""
    frame = decode_request(data)
    budget = _budget(frame)
    results = []
    for job in frame.jobs:
        sid = job[0]
        # A private trace per job: its span collection is exactly the
        # job's span tree, ready for re-injection parent-side.
        with start_trace(frame.trace_id or None) as ctx:
            with obs_span(f"shard_{sid}", meta={"sid": sid,
                                                "process": True}) as sp:
                with _SERVERS[sid].io_stats.measure() as io:
                    sid, response = _run_job(frame, job, budget)
                if sp is not None:
                    sp.meta["node_accesses"] = io.total_node_accesses
            spans = ctx.spans()
        index = {s.span_id: i for i, s in enumerate(spans)}
        wire_spans = [(s.name, s.offset_ms, s.duration_ms,
                       index.get(s.parent_id, -1), s.meta)
                      for s in spans]
        results.append((sid, response, io.node_accesses, io.page_faults,
                        wire_spans))
    return encode_response(frame.kind, results)
