"""Metric definitions and how each is computed from a run.

``BENCHMARK.json`` at the root of the checkout declares every metric's
name, unit and direction; this module computes them.  Every ``*_ms``
per-layer metric is the total self time of that layer over the traced
pass, which is a fixed, seeded prefix of the workload, so totals from
two versions of the program compare directly.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.session import Session, percentile, tail_quantile
from perfbench.tracer import Tracer
from perfbench.workloads import Workload, resolved_kernel

_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: (name, unit) of every metric the final JSON line carries, as
#: ``BENCHMARK.json`` declares them: end to end, and of a traced run.
END_TO_END: List[Tuple[str, str]] = [
    (m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER: List[Tuple[str, str]] = [
    (m["name"], m["unit"]) for m in _SPEC["per_layer"]]

#: End-to-end metrics printed in the table only.  The p99 moves by up
#: to a quarter between runs of the same code on a shared 2-vCPU
#: machine, too much for a regression bound; the two ratios are 0 on a
#: healthy run, and the JSON line carries ``failed``/``attempted``.
TABLE_ONLY: List[Tuple[str, str]] = [
    ("server_p99_ms", "ms"), ("over_limit_ratio", "ratio"),
    ("failed_ratio", "ratio")]

#: What each end-to-end metric means, as the table prints it.
MEANING: Dict[str, str] = {
    "updates_per_s":
        "position updates per second in the program (median of blocks)",
    "server_p50_ms":
        "median client-observed latency of updates that needed the server",
    "server_p90_ms": "same, p90",
    "server_queries_per_update":
        "server round trips per position update (1 - query saving)",
    "bytes_per_update":
        "bytes on the wire per update: responses, deltas and pushes",
    "node_accesses_per_query":
        "simulated R*-tree node accesses per server query",
    "setup_s": "dataset generation + index build + service assembly (median)",
    "peak_rss_mb": "peak resident memory of the run",
    "server_p99_ms":
        "same, p99 (or the highest quantile with 10 samples beyond it)",
    "over_limit_ratio":
        "updates over the latency limit, failed or refused / attempted",
    "failed_ratio": "operations that raised or were refused / attempted",
}

#: Which wrapped span feeds each per-layer metric (absent span -> None).
_SOURCE = {
    "client.": ("client", "client.check"),
    "service.": ("service",),
    "obs.": ("obs",),
    "admission.": ("admission",),
    "cache.": ("cache.probe", "cache.admit", "cache.invalidate"),
    "shard.": ("shard",),
    "replica.": ("replica", "replica.replicate"),
    "staleness.": ("staleness",),
    "continuous.": ("continuous.notify", "continuous.move"),
    "core.": ("core.knn", "core.window", "core.range", "core.rknn",
              "core.probknn"),
    "kernel.": ("kernel.columns",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def end_to_end(workload: Workload, session: Session,
               setup_times: List[float]) -> Dict[str, float]:
    counts = session.prefix
    lat = session.server_latency
    limit = workload.latency_limit_ms / 1e3
    over = sum(1 for v in session.latency if v > limit) + session.failed
    return {
        "updates_per_s": statistics.median(
            len(block) / _busy(session.cum_busy, block)
            for block in _blocks(len(session.cum_busy), BLOCKS)),
        "server_p50_ms": _block_median(lat, BLOCKS, 0.5) * 1e3,
        "server_p90_ms": _block_median(lat, BLOCKS, 0.9) * 1e3,
        "server_p99_ms": _block_median(lat, tail_blocks(len(lat)), None) * 1e3,
        "server_queries_per_update": _ratio(counts.server_queries,
                                            counts.updates),
        "bytes_per_update": _ratio(counts.bytes, counts.updates),
        "node_accesses_per_query": _ratio(counts.node_accesses,
                                          counts.server_queries),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "over_limit_ratio": _ratio(over, session.attempted),
        "failed_ratio": _ratio(session.failed, session.attempted),
    }


#: Timings are medians over this many consecutive blocks of a run, so a
#: burst of interference from other tenants of the machine moves a few
#: blocks, not the reported value.  A first block of the same size is
#: left out as warm-up: on ``commute`` it ran up to a quarter slower
#: than the rest while caches filled.
BLOCKS = 8
#: Server updates a block needs for its own p99 (ten beyond it).
_TAIL_BLOCK = 1000


def tail_blocks(n: int) -> int:
    """Blocks for the tail percentile: each holds >= 1000 server updates
    when the run has them (one block otherwise)."""
    return max(1, min(BLOCKS, n // _TAIL_BLOCK - 1))


def _blocks(n: int, count: int) -> List[range]:
    """``count`` consecutive blocks of ``n`` items after a warm-up block
    of the same size (fewer, and no warm-up, when ``n`` is too small)."""
    parts = min(count + 1, n)
    if parts < 2:
        return [range(n)]
    return [range(n * b // parts, n * (b + 1) // parts)
            for b in range(1, parts)]


def _busy(cum_busy: List[float], block: range) -> float:
    before = cum_busy[block.start - 1] if block.start else 0.0
    return cum_busy[block.stop - 1] - before


def _block_median(values: List[float], count: int,
                  q: Optional[float]) -> float:
    """Median over blocks of each block's ``q``-quantile (``None``: the
    highest quantile <= p99 with ten samples beyond it)."""
    if not values:
        return 0.0
    out = []
    for block in _blocks(len(values), count):
        chunk = values[block.start:block.stop]
        out.append(percentile(chunk, tail_quantile(len(chunk))
                              if q is None else q))
    return statistics.median(out)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# per layer
# ----------------------------------------------------------------------
def per_layer(workload: Workload, session: Session, tracer: Tracer,
              overhead: float) -> Dict[str, Optional[float]]:
    st = tracer.self_times()
    c = tracer.counts
    counts = session.prefix

    def calls(name: str) -> int:
        return st.get(name, (0, 0.0))[0]

    def ms(name: str) -> float:
        return st.get(name, (0, 0.0))[1] * 1e3

    metrics = session.service.metrics
    server_q = counts.server_queries
    phase = {p: metrics.counter_total("service.node_accesses", phase=p)
             for p in ("nn", "tpnn", "result", "influence")}
    snapshot = session.service.stats_snapshot()
    buffer = snapshot.get("buffer") or {}
    out: Dict[str, Optional[float]] = {
        "client.check_us": _ratio(ms("client.check") * 1e3,
                                  calls("client.check")),
        "client.answer_ratio": _ratio(c.get("client.check.true", 0),
                                      calls("client.check")),
        "service.calls": calls("service"),
        "service.self_ms": ms("service"),
        "obs.calls": calls("obs"),
        "obs.busy_ms": ms("obs"),
        "admission.wait_ms": c.get("admission.wait_ms", 0.0),
        "admission.rejected": c.get("admission.rejected", 0),
        "cache.probe_ms": ms("cache.probe"),
        "cache.hit_ratio": _ratio(c.get("cache.probe.hits", 0),
                                  calls("cache.probe")),
        "cache.admit_ms": ms("cache.admit"),
        "cache.invalidate_ms": ms("cache.invalidate"),
        "cache.survival_ratio": _ratio(
            c.get("cache.invalidate.survivors", 0),
            c.get("cache.invalidate.entries", 0)),
        "cache.evictions": c.get("cache.evictions", 0),
        "shard.self_ms": ms("shard"),
        "shard.width": _ratio(c.get("shard.queried", 0), calls("shard")),
        "shard.pruned_ratio": _ratio(
            c.get("shard.pruned", 0),
            c.get("shard.queried", 0) + c.get("shard.pruned", 0)),
        "replica.self_ms": ms("replica"),
        "replica.replicate_ms": ms("replica.replicate"),
        "replica.stale_served_ratio": _ratio(c.get("replica.stale_served", 0),
                                             calls("replica")),
        "staleness.shrink_ms": ms("staleness"),
        "staleness.unservable_ratio": _ratio(
            c.get("staleness.unservable", 0), calls("staleness")),
        "continuous.notify_ms": ms("continuous.notify"),
        "continuous.move_ms": ms("continuous.move"),
        "continuous.patch_ratio": _ratio(c.get("continuous.move.patched", 0),
                                         calls("continuous.move")),
        "continuous.refetch_ratio": _ratio(
            c.get("continuous.move.refetched", 0), calls("continuous.move")),
        "continuous.pushes_per_update": _ratio(
            metrics.counter_total("service.continuous.pushes"),
            counts.updates),
        "core.knn_ms": ms("core.knn"),
        "core.window_ms": ms("core.window"),
        "core.range_ms": ms("core.range"),
        "core.rknn_ms": ms("core.rknn"),
        "core.probknn_ms": ms("core.probknn"),
        "core.tp_queries_per_knn": _ratio(c.get("core.knn.tp_queries", 0),
                                          calls("core.knn")),
        "core.clip_ms": c.get("core.knn.clip_ms", 0.0),
        "core.influence_set": _ratio(c.get("core.knn.influence", 0),
                                     calls("core.knn")),
        "kernel.columns_builds": calls("kernel.columns"),
        "kernel.columns_ms": ms("kernel.columns"),
        "storage.page_faults_per_query": _ratio(
            metrics.counter_total("service.page_faults"), server_q),
        "storage.buffer_hit_ratio": float(buffer.get("hit_ratio", 0.0)),
        "harness.updates": counts.updates,
        "harness.trace_overhead": overhead,
    }
    for p, total in phase.items():
        out[f"index.node_accesses.{p}"] = _ratio(total, server_q)
    out.update(_model(workload, session, phase, calls))
    absent = tracer.absent_spans()
    for prefix, spans in _SOURCE.items():
        if absent.intersection(spans):
            for name in out:
                if name.startswith(prefix):
                    out[name] = None
    return out


def _model(workload: Workload, session: Session, phase: Dict[str, int],
           calls) -> Dict[str, float]:
    """The section 5 node-access model beside the measurement.

    Only the paper's single scalar R*-tree (``commute``) charges the
    accesses the model predicts; elsewhere the four values are 0.
    """
    names = ("analysis.predicted_node_accesses.knn",
             "analysis.predicted_node_accesses.window",
             "analysis.model_ratio.knn", "analysis.model_ratio.window")
    tree = getattr(session.service.server, "tree", None)
    if workload.stack != "paper" or tree is None:
        return dict.fromkeys(names, 0.0)
    from repro.analysis.cost_model import (
        knn_query_node_accesses,
        location_window_query_node_accesses,
    )
    from repro.analysis.window_model import expected_inner_extents
    from repro.index.metrics import tree_level_stats

    levels = tree_level_stats(tree)
    universe = session.service.universe
    area = universe.width * universe.height
    n = len(tree)
    side = workload.window_side
    dx, dy = expected_inner_extents(n / area, side, side)
    knn = knn_query_node_accesses(levels, workload.k, n, area)
    window = location_window_query_node_accesses(
        levels, side, side, side + 2.0 * dx, side + 2.0 * dy, area)
    measured_knn = _ratio(phase["nn"], calls("core.knn"))
    measured_window = _ratio(phase["result"] + phase["influence"],
                             calls("core.window"))
    return dict(zip(names, (knn, window, _ratio(measured_knn, knn),
                            _ratio(measured_window, window))))


# ----------------------------------------------------------------------
# the run record
# ----------------------------------------------------------------------
def environment(root: Path, workload: Workload) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": resolved_kernel(workload),
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def table(rows: List[Tuple[str, Optional[float], str, str]]) -> List[str]:
    """Human-readable ``name value unit  meaning`` lines."""
    width = max(len(name) for name, *_ in rows)
    out = []
    for name, value, unit, meaning in rows:
        shown = "absent" if value is None else f"{value:.6g}"
        out.append(f"  {name:<{width}}  {shown:>12} {unit:<12} {meaning}")
    return out
