"""Shared harness for the experiment benches.

Each ``bench_figNN_*.py`` module regenerates one figure of the paper's
Section 6, printing the same series (and, where the paper plots one,
the analytical estimate next to the measurement).

Scaling: the environment variable ``REPRO_SCALE`` selects the workload
size — ``smoke`` (default; minutes for the full sweep) or ``paper``
(the paper's cardinalities and 500-query workloads; budget hours).
Trees, datasets and histograms are cached per process so consecutive
benches reuse them.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Sequence

import numpy as np

from repro.analysis import MinskewHistogram
from repro.datasets import (
    GR_UNIVERSE,
    NA_UNIVERSE,
    data_following_queries,
    make_greece_like,
    make_north_america_like,
    uniform_points,
)
from repro.datasets.synthetic import UNIT_UNIVERSE
from repro.geometry import Rect
from repro.index import RStarTree, bulk_load_str

SCALE = os.environ.get("REPRO_SCALE", "smoke")


@dataclass(frozen=True)
class ScaleConfig:
    uniform_cardinalities: Sequence[int]
    default_n: int                # the fixed-N used by vs-k / vs-qs sweeps
    ks: Sequence[int]
    window_fractions: Sequence[float]   # qs as fraction of the universe
    real_window_areas_km2: Sequence[float]
    num_queries: int
    num_queries_real: int
    gr_n: int
    na_n: int
    histogram_cells: int
    histogram_buckets: int


_CONFIGS = {
    # Fast enough for CI; same parameter *shape* as the paper.
    "smoke": ScaleConfig(
        uniform_cardinalities=(10_000, 30_000, 100_000),
        default_n=100_000,
        ks=(1, 3, 10, 30, 100),
        window_fractions=(0.0001, 0.001, 0.01, 0.1),
        real_window_areas_km2=(100.0, 300.0, 1000.0, 3000.0, 10_000.0),
        num_queries=40,
        num_queries_real=25,
        gr_n=23_268,
        na_n=569_120,
        histogram_cells=10_000,
        histogram_buckets=500,
    ),
    # The paper's setup: N up to 1M, 500 queries, full NA cardinality.
    "paper": ScaleConfig(
        uniform_cardinalities=(10_000, 30_000, 100_000, 300_000, 1_000_000),
        default_n=100_000,
        ks=(1, 3, 10, 30, 100),
        window_fractions=(0.0001, 0.001, 0.01, 0.1),
        real_window_areas_km2=(100.0, 300.0, 1000.0, 3000.0, 10_000.0),
        num_queries=500,
        num_queries_real=500,
        gr_n=23_268,
        na_n=569_120,
        histogram_cells=10_000,
        histogram_buckets=500,
    ),
}

CONFIG = _CONFIGS[SCALE]


# ----------------------------------------------------------------------
# cached data / trees / histograms
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def uniform_dataset(n: int) -> np.ndarray:
    return uniform_points(n, UNIT_UNIVERSE, seed=20030609 + n)


@lru_cache(maxsize=None)
def uniform_tree(n: int) -> RStarTree:
    return bulk_load_str(uniform_dataset(n))


@lru_cache(maxsize=None)
def gr_dataset() -> np.ndarray:
    return make_greece_like(n=CONFIG.gr_n)


@lru_cache(maxsize=None)
def na_dataset() -> np.ndarray:
    return make_north_america_like(n=CONFIG.na_n)


@lru_cache(maxsize=None)
def gr_tree() -> RStarTree:
    return bulk_load_str(gr_dataset())


@lru_cache(maxsize=None)
def na_tree() -> RStarTree:
    return bulk_load_str(na_dataset())


@lru_cache(maxsize=None)
def gr_histogram() -> MinskewHistogram:
    return MinskewHistogram.build(gr_dataset(), GR_UNIVERSE,
                                  CONFIG.histogram_cells,
                                  CONFIG.histogram_buckets)


@lru_cache(maxsize=None)
def na_histogram() -> MinskewHistogram:
    return MinskewHistogram.build(na_dataset(), NA_UNIVERSE,
                                  CONFIG.histogram_cells,
                                  CONFIG.histogram_buckets)


REAL_DATASETS = {
    "GR": (gr_dataset, gr_tree, gr_histogram, GR_UNIVERSE),
    "NA": (na_dataset, na_tree, na_histogram, NA_UNIVERSE),
}


def query_workload(points: np.ndarray, universe: Rect, num: int,
                   seed: int = 777) -> np.ndarray:
    """The paper's workload: queries distributed like the data.

    The jitter is kept small (0.2% of the universe) so that queries on
    the skewed real datasets actually land where the data lives —
    a mobile user asks about the road/city they are on.
    """
    return data_following_queries(points, num, universe, jitter=0.002,
                                  seed=seed)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Render one figure's series as an aligned text table."""
    rows = [tuple(_fmt(v) for v in row) for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    print()
    print(f"=== {title} (REPRO_SCALE={SCALE}) ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    sys.stdout.flush()


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def geometric_mean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def run_once(benchmark, fn: Callable[[], object]):
    """Adapter so experiment harnesses run under pytest-benchmark.

    These benches are experiments (they print tables), not
    micro-benchmarks, so one round is the meaningful unit.
    """
    if benchmark is None:
        return fn()
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# ----------------------------------------------------------------------
# instrumented service runs
# ----------------------------------------------------------------------
def fleet_run(tree, num_clients: int = 16, ticks: int = 25,
              max_workers: int = 8, seed: int = 0,
              incremental_share: float = 0.0,
              return_service: bool = False):
    """Drive a simulated client fleet over ``tree`` through the
    instrumented :class:`~repro.service.service.QueryService`.

    Returns the :class:`~repro.service.fleet.FleetReport`; its
    ``snapshot`` field is the JSON-serializable stats the benches dump
    with :func:`dump_snapshot`.  With ``return_service=True`` returns
    ``(report, service)`` so callers can read the live metrics registry
    (e.g. ``metrics.histogram_merged`` for cross-label percentiles).
    """
    from repro.core import LocationServer
    from repro.service import ClientFleet, FleetConfig, QueryService

    service = QueryService(LocationServer(tree))
    fleet = ClientFleet(service, FleetConfig(
        num_clients=num_clients, seed=seed,
        incremental_share=incremental_share))
    report = fleet.run(ticks, max_workers=max_workers)
    return (report, service) if return_service else report


def dump_snapshot(snapshot, title: str = "service snapshot") -> None:
    """Print a service stats snapshot as JSON (the machine-readable
    companion of :func:`print_table`)."""
    print()
    print(f"=== {title} (REPRO_SCALE={SCALE}) ===")
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    sys.stdout.flush()


# ----------------------------------------------------------------------
# the benchmark regression trail (see benchmarks/compare.py)
# ----------------------------------------------------------------------
#: Record-file schema version; bump on incompatible shape changes.
BENCH_SCHEMA = "repro-bench/1"

#: Runs retained per record file (oldest evicted first).
BENCH_HISTORY = 20


def bench_record_path(name: str, prefix: str = "obs") -> str:
    """Where ``write_bench_record(name, ...)`` persists its runs.

    ``REPRO_BENCH_DIR`` overrides the directory (default: the current
    working directory, which is where CI collects ``BENCH_<prefix>_*.json``
    artifacts from).  ``prefix`` namespaces independent trails: "obs"
    for the observability benches, "kernel" for the execution-config
    kernel matrix, "fleet" for the replicated-serving
    chaos/overload gate.
    """
    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    return os.path.join(out_dir, f"BENCH_{prefix}_{name}.json")


def write_bench_record(name: str, metrics, context=None,
                       prefix: str = "obs") -> str:
    """Append one run's flat numeric ``metrics`` to the bench record.

    The record file (``BENCH_<prefix>_<name>.json``) keeps a bounded
    run history under a schema version; ``benchmarks/compare.py`` diffs
    the last two runs and fails on large regressions.  Returns the path
    written.
    """
    import time

    path = bench_record_path(name, prefix=prefix)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    record = {"schema": BENCH_SCHEMA, "name": name, "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh)
            if (existing.get("schema") == BENCH_SCHEMA
                    and existing.get("name") == name):
                record = existing
        except (OSError, ValueError):
            pass  # corrupt or foreign file: start a fresh history
    run = {
        "recorded_at": time.time(),
        "scale": SCALE,
        "metrics": {k: float(v) for k, v in dict(metrics).items()},
    }
    if context:
        run["context"] = dict(context)
    record["runs"] = (record["runs"] + [run])[-BENCH_HISTORY:]
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bench record: appended run #{len(record['runs'])} to {path}")
    return path
