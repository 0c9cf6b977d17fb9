"""Sharded scatter-gather: result equivalence and merged-region soundness.

A :class:`ShardedServer` must be observationally equivalent to one
:class:`LocationServer` over the same points — same result sets — and
its *merged* validity regions must honour the paper's contract: the
region it ships is conservative, so the brute-force answer is unchanged
at any probe inside it.  The latter is the part sharding can silently
break (a pruned shard's nearest point creeping below the k-th distance,
a window validity rectangle leaking into an unqueried shard), so the
probes here are the real test.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from hypothesis import given, settings, strategies as st

from repro import ExecutionConfig, KNNRequest, RangeRequest, WindowRequest
from repro.core.api import QueryBudget
from repro.core.server import LocationServer
from repro.datasets import GR_UNIVERSE, make_greece_like
from repro.geometry import Rect
from repro.index.bulk import bulk_load_str
from repro.service.shard import (
    ShardedKNNDetail,
    ShardedRangeDetail,
    ShardedServer,
    ShardedWindowDetail,
)
from repro.storage import FaultPlan, PageReadError, inject_faults

from tests.conftest import UNIT, brute_window
from tests.core.test_validity_oracle import EPS, _knn_set_unchanged

seeds = st.integers(min_value=0, max_value=2**31 - 1)
ks = st.integers(min_value=1, max_value=6)
grids = st.integers(min_value=2, max_value=4)


def _instance(seed: int, n: int = 160):
    rnd = random.Random(seed)
    points = [(rnd.random(), rnd.random()) for _ in range(n)]
    query = (rnd.random(), rnd.random())
    return points, query, rnd


def _pair(points, grid):
    return (LocationServer.from_points(points, universe=UNIT),
            ShardedServer.from_points(
                points, grid=grid, universe=UNIT,
                execution=ExecutionConfig(workers=1)))


class TestEquivalence:
    @given(seeds, ks, grids)
    @settings(deadline=None, max_examples=25)
    def test_knn_matches_single_tree(self, seed, k, grid):
        points, query, _ = _instance(seed)
        single, sharded = _pair(points, grid)
        merged = sharded.answer(KNNRequest(query, k=k))
        assert len(merged.result) == k
        # Tie-aware: any correct kNN set is acceptable.
        assert _knn_set_unchanged(points, query,
                                  {e.oid for e in merged.result})
        dists = [math.dist(points[e.oid], query) for e in merged.result]
        assert dists == sorted(dists)
        reference = single.answer(KNNRequest(query, k=k))
        assert math.isclose(
            dists[-1], math.dist(points[reference.result[-1].oid], query),
            abs_tol=EPS)

    @given(seeds, grids,
           st.floats(min_value=0.05, max_value=0.4),
           st.floats(min_value=0.05, max_value=0.4))
    @settings(deadline=None, max_examples=25)
    def test_window_matches_brute_force(self, seed, grid, w, h):
        points, focus, _ = _instance(seed)
        _, sharded = _pair(points, grid)
        response = sharded.answer(WindowRequest(focus, w, h))
        window = Rect(focus[0] - w / 2.0, focus[1] - h / 2.0,
                      focus[0] + w / 2.0, focus[1] + h / 2.0)
        assert sorted(e.oid for e in response.result) == \
            brute_window(points, window)

    @given(seeds, grids, st.floats(min_value=0.02, max_value=0.3))
    @settings(deadline=None, max_examples=25)
    def test_range_matches_brute_force(self, seed, grid, radius):
        points, focus, _ = _instance(seed)
        _, sharded = _pair(points, grid)
        response = sharded.answer(RangeRequest(focus, radius))
        served = {e.oid for e in response.result}
        on_rim = {i for i, p in enumerate(points)
                  if abs(math.dist(p, focus) - radius) <= EPS}
        inside = {i for i, p in enumerate(points)
                  if math.dist(p, focus) <= radius - EPS}
        assert inside - served <= on_rim
        assert served - inside <= on_rim


class TestMergedRegionSoundness:
    @given(seeds, ks, grids)
    @settings(deadline=None, max_examples=20)
    def test_knn_region_probes(self, seed, k, grid):
        points, query, rnd = _instance(seed)
        _, sharded = _pair(points, grid)
        response = sharded.answer(KNNRequest(query, k=k))
        region = response.region
        assert region.contains(query, eps=EPS)
        served = {e.oid for e in response.result}
        mbr = region.mbr() or UNIT
        for _ in range(30):
            probe = (rnd.uniform(mbr.xmin, mbr.xmax),
                     rnd.uniform(mbr.ymin, mbr.ymax))
            if not region.contains(probe, eps=-EPS):
                continue
            assert _knn_set_unchanged(points, probe, served), (
                f"kNN set changed inside the merged region at {probe} "
                f"(seed={seed}, k={k}, grid={grid})")

    @given(seeds, grids,
           st.floats(min_value=0.05, max_value=0.35),
           st.floats(min_value=0.05, max_value=0.35))
    @settings(deadline=None, max_examples=20)
    def test_window_region_probes(self, seed, grid, w, h):
        points, focus, rnd = _instance(seed)
        _, sharded = _pair(points, grid)
        response = sharded.answer(WindowRequest(focus, w, h))
        rect = response.detail.conservative_region
        cached = sorted(e.oid for e in response.result)
        assert rect.contains_point(focus)
        for _ in range(20):
            probe = (rnd.uniform(rect.xmin, rect.xmax),
                     rnd.uniform(rect.ymin, rect.ymax))
            if (min(probe[0] - rect.xmin, rect.xmax - probe[0]) < EPS
                    or min(probe[1] - rect.ymin, rect.ymax - probe[1]) < EPS):
                continue
            moved = Rect(probe[0] - w / 2.0, probe[1] - h / 2.0,
                         probe[0] + w / 2.0, probe[1] + h / 2.0)
            assert brute_window(points, moved) == cached, (
                f"window result changed inside the merged rect at {probe} "
                f"(seed={seed}, grid={grid})")

    @given(seeds, grids, st.floats(min_value=0.02, max_value=0.25))
    @settings(deadline=None, max_examples=20)
    def test_range_validity_disk_probes(self, seed, grid, radius):
        points, focus, rnd = _instance(seed)
        _, sharded = _pair(points, grid)
        response = sharded.answer(RangeRequest(focus, radius))
        cached = sorted(e.oid for e in response.result)
        rho = response.detail.validity_radius
        assert rho >= 0.0
        for _ in range(20):
            angle = rnd.uniform(0.0, 2.0 * math.pi)
            r = rho * math.sqrt(rnd.random()) * 0.99
            probe = (focus[0] + r * math.cos(angle),
                     focus[1] + r * math.sin(angle))
            inside = sorted(i for i, p in enumerate(points)
                            if math.dist(p, probe) <= radius - EPS)
            on_rim = {i for i, p in enumerate(points)
                      if abs(math.dist(p, probe) - radius) <= EPS}
            assert set(inside) - set(cached) <= on_rim, (
                f"range result changed inside the validity disk at {probe} "
                f"(seed={seed}, grid={grid})")


class TestScatterGatherMechanics:
    def _sharded(self, seed=7, n=300, grid=3):
        points, query, rnd = _instance(seed, n=n)
        return points, query, rnd, ShardedServer.from_points(
            points, grid=grid, universe=UNIT,
            execution=ExecutionConfig(workers=1))

    def test_knn_accounting_and_pruning(self):
        points, query, _, sharded = self._sharded()
        detail = sharded.answer(KNNRequest(query, k=3)).detail
        assert isinstance(detail, ShardedKNNDetail)
        assert detail.shards_total == len(sharded.shards)
        assert (detail.shards_queried + detail.shards_pruned
                == detail.shards_total)
        assert detail.shards_queried >= 1
        assert set(detail.per_shard_node_accesses) <= {
            s.sid for s in sharded.shards}

    def test_small_window_prunes_far_shards(self):
        points, _, _, sharded = self._sharded(n=400, grid=3)
        detail = sharded.answer(
            WindowRequest((0.1, 0.1), 0.05, 0.05)).detail
        assert detail.shards_queried < detail.shards_total
        assert (detail.shards_queried + detail.shards_pruned
                == detail.shards_total)

    def test_knn_delta_against_full(self):
        points, query, _, sharded = self._sharded()
        full = sharded.answer(KNNRequest(query, k=4))
        ids = frozenset(e.oid for e in full.result)
        stale = frozenset(list(ids)[:2] + [9999])
        delta = sharded.answer(
            KNNRequest(query, k=4, previous_ids=stale))
        assert frozenset(e.oid for e in delta.result) == ids
        assert set(delta.removed_ids) == {9999}
        assert {e.oid for e in delta.added} == ids - stale

    def test_budget_degrades_but_stays_exact(self):
        points, query, _, sharded = self._sharded()
        response = sharded.answer(
            KNNRequest(query, k=2,
                       budget=QueryBudget(max_node_accesses=2)))
        assert response.detail.degraded
        assert _knn_set_unchanged(points, query,
                                  {e.oid for e in response.result})

    def test_insert_creates_shard_and_is_queryable(self):
        points, _, _, sharded = self._sharded(n=20, grid=4)
        before = len(sharded.shards)
        epoch = sharded.epoch
        oid = 777
        sharded.insert_object(oid, 0.015, 0.015)
        assert sharded.epoch == epoch + 1
        assert sharded.num_points == len(points) + 1
        assert len(sharded.shards) >= before
        nearest = sharded.answer(KNNRequest((0.01, 0.01), k=1))
        assert nearest.result[0].oid == oid
        assert sharded.delete_object(oid, 0.015, 0.015)
        assert sharded.num_points == len(points)

    def test_inserted_shard_gets_the_fleet_buffer(self):
        """A shard created for an empty cell buffers its disk like the
        shards the fleet was built with."""
        rnd = random.Random(5)
        points = [(rnd.uniform(0, 0.5), rnd.uniform(0, 0.5))
                  for _ in range(400)]
        sharded = ShardedServer.from_points(points, grid=2, universe=UNIT,
                                            buffer_fraction=0.5)
        assert [s.sid for s in sharded.shards] == [0]
        sharded.insert_object(10_000, 0.9, 0.9)
        new = sharded.shards[1]
        assert new.server.tree.disk.buffer is not None
        sharded.answer(KNNRequest((0.9, 0.9), k=1))
        sharded.answer(KNNRequest((0.9, 0.9), k=1))
        io = new.server.io_stats
        assert io.total_page_faults < io.total_node_accesses

    def test_global_universe_shared_by_all_shards(self):
        _, _, _, sharded = self._sharded()
        assert all(s.server.universe == UNIT for s in sharded.shards)

    def test_typed_details_expose_attributes(self):
        points, query, _, sharded = self._sharded()
        knn = sharded.answer(KNNRequest(query, k=2)).detail
        window = sharded.answer(WindowRequest(query, 0.2, 0.2)).detail
        rng = sharded.answer(RangeRequest(query, 0.1)).detail
        assert isinstance(knn, ShardedKNNDetail)
        assert isinstance(window, ShardedWindowDetail)
        assert isinstance(rng, ShardedRangeDetail)
        for detail in (knn, window, rng):
            assert detail.shards_total == len(sharded.shards)
            assert isinstance(detail.per_shard_node_accesses, dict)
            with pytest.raises(AttributeError):
                detail.no_such_key

    def test_parallel_pool_matches_inline_execution(self):
        points, query, _, _ = self._sharded()
        inline = ShardedServer.from_points(
            points, grid=3, universe=UNIT,
            execution=ExecutionConfig(workers=1))
        pooled = ShardedServer.from_points(
            points, grid=3, universe=UNIT,
            execution=ExecutionConfig(workers=4))
        try:
            for k in (1, 3, 5):
                a = inline.answer(KNNRequest(query, k=k))
                b = pooled.answer(KNNRequest(query, k=k))
                assert [e.oid for e in a.result] == \
                    [e.oid for e in b.result]
            wa = inline.answer(WindowRequest(query, 0.3, 0.3))
            wb = pooled.answer(WindowRequest(query, 0.3, 0.3))
            assert [e.oid for e in wa.result] == [e.oid for e in wb.result]
        finally:
            pooled.close()

    def test_a_failed_fanout_returns_after_every_shard_job(self):
        """One shard failing at once must not leave the others reading
        their disks (and adding spans to the query's trace) after the
        error reached the caller."""
        points, _, _, _ = self._sharded()
        pooled = ShardedServer.from_points(
            points, grid=2, universe=UNIT,
            execution=ExecutionConfig(workers=4))
        disks = [inject_faults(s.server.tree,
                               FaultPlan(fail_reads=(1,)) if s.sid == 0
                               else FaultPlan(seed=s.sid,
                                              latency_mean_s=0.002))
                 for s in pooled.shards]
        try:
            with pytest.raises(PageReadError):
                pooled.answer(WindowRequest((0.5, 0.5), 0.9, 0.9))
            reads = [d.reads_attempted for d in disks]
            time.sleep(0.2)
            assert [d.reads_attempted for d in disks] == reads
            assert all(n > 1 for n in reads[1:])  # the others ran to the end
        finally:
            pooled.close()


# ----------------------------------------------------------------------
# construction: one numpy pass routes exactly like Rect.grid_index
# ----------------------------------------------------------------------
def _reference_fleet(points, grid, universe=None):
    """``(universe, [(sid, cell, tree)])`` routed one point at a time
    with ``Rect.grid_index`` — the loop ``from_points`` vectorizes."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    if universe is None:
        universe = Rect.from_points(pts)
    buckets = {}
    for oid, p in enumerate(pts):
        buckets.setdefault(universe.grid_index(p, grid, grid),
                           []).append(oid)
    return universe, [
        (sid, cell, bulk_load_str([pts[i] for i in buckets[cell]],
                                  oids=buckets[cell]))
        for sid, cell in enumerate(sorted(buckets))]


def _tree_fingerprint(tree):
    """Each node's level, page id and MBR, and each leaf entry's oid and
    coordinates, in traversal order; floats as ``float.hex``."""
    def hexes(*values):
        return tuple(float(v).hex() for v in values)

    return [(node.level, node.page_id,
             hexes(node.mbr.xmin, node.mbr.ymin, node.mbr.xmax,
                   node.mbr.ymax),
             [(e.oid, hexes(e.x, e.y)) for e in node.entries]
             if node.is_leaf else len(node.entries))
            for node in tree.nodes()]


def _lattice_and_strays():
    """A 9x9 lattice on the lines of an 8x8 grid over the unit square,
    plus points outside it on every side."""
    lattice = [(i / 8, j / 8) for i in range(9) for j in range(9)]
    return lattice + [(-0.5, 0.3), (1.5, 0.7), (0.2, -1.0), (0.9, 2.0),
                      (-3.0, -3.0), (4.0, 4.0)]


class TestConstruction:
    @pytest.mark.parametrize("case", ["gr", "gr-universe", "lattice",
                                      "flat", "random"])
    def test_shards_equal_the_per_point_reference(self, case):
        if case.startswith("gr"):
            points, grid = make_greece_like(), 4
            universe = GR_UNIVERSE if case == "gr-universe" else None
        elif case == "lattice":
            points, grid, universe = _lattice_and_strays(), 8, UNIT
        elif case == "flat":  # a zero-width universe: every x in cell 0
            points, grid, universe = [(0.5, y / 10) for y in range(10)], 3, None
        else:
            rnd = random.Random(31)
            points = [(rnd.uniform(-2, 5), rnd.uniform(10, 11))
                      for _ in range(500)]
            grid, universe = 3, None
        expected_universe, expected = _reference_fleet(points, grid,
                                                       universe)
        server = ShardedServer.from_points(points, grid=grid,
                                           universe=universe)
        assert server.universe == expected_universe
        assert [(s.sid, s.cell, _tree_fingerprint(s.server.tree))
                for s in server.shards] == [
            (sid, cell, _tree_fingerprint(tree))
            for sid, cell, tree in expected]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_point_raises(self, bad):
        for point in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError):
                ShardedServer.from_points([(0.1, 0.2), point], grid=2)

    def test_a_new_cell_shard_runs_the_fleet_kernel(self):
        """``insert_object`` opens a cell's shard on the fleet's own
        ``execution``: its kNN charges no node accesses on the numpy
        kernel, and every tree keeps its invariants."""
        rnd = random.Random(8)
        points = [(rnd.uniform(0, 0.5), rnd.uniform(0, 0.5))
                  for _ in range(300)]
        inserts = [(rnd.uniform(0.5, 1), rnd.uniform(0.5, 1))
                   for _ in range(60)]
        charged = {}
        for kernel in ("scalar", "numpy"):
            with ShardedServer.from_points(
                    points, grid=2, universe=UNIT, capacity=8,
                    execution=ExecutionConfig(kernel=kernel)) as fleet:
                assert [s.cell for s in fleet.shards] == [(0, 0)]
                for i, (x, y) in enumerate(inserts):
                    fleet.insert_object(10_000 + i, x, y)
                new = fleet.shards[1]
                assert new.cell == (1, 1)
                for shard in fleet.shards:
                    shard.server.tree.check_invariants()
                with new.server.io_stats.measure() as io:
                    new.server.answer(KNNRequest((0.75, 0.75), k=3))
                charged[kernel] = io.total_node_accesses
        assert charged["numpy"] == 0 < charged["scalar"]
