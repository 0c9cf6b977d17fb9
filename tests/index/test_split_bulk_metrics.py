"""Tests for the R* split, STR bulk loading, and tree metrics."""

import math
import random

import numpy as np
import pytest

from repro.geometry import Rect
from repro.index import LeafEntry, RStarTree, bulk_load_str, tree_level_stats
from repro.index.bulk import _chunk_sizes
from repro.index.metrics import average_occupancy
from repro.index.split import rstar_split
from tests.conftest import brute_window

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


class TestSplit:
    def _entries(self, coords):
        return [LeafEntry(i, x, y) for i, (x, y) in enumerate(coords)]

    def test_preserves_all_entries(self):
        rnd = random.Random(0)
        entries = self._entries([(rnd.random(), rnd.random())
                                 for _ in range(17)])
        g1, g2 = rstar_split(entries, min_fill=6)
        assert sorted(e.oid for e in g1 + g2) == list(range(17))

    def test_respects_min_fill(self):
        rnd = random.Random(1)
        for _ in range(20):
            n = rnd.randint(12, 33)
            entries = self._entries([(rnd.random(), rnd.random())
                                     for _ in range(n)])
            g1, g2 = rstar_split(entries, min_fill=6)
            assert len(g1) >= 6 and len(g2) >= 6

    def test_too_few_entries_raises(self):
        entries = self._entries([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            rstar_split(entries, min_fill=2)

    def test_separates_two_clusters(self):
        left = [(0.1 + i * 1e-3, 0.5) for i in range(8)]
        right = [(0.9 + i * 1e-3, 0.5) for i in range(8)]
        entries = self._entries(left + right)
        g1, g2 = rstar_split(entries, min_fill=4)
        xs1 = {e.x < 0.5 for e in g1}
        xs2 = {e.x < 0.5 for e in g2}
        assert xs1 != xs2 and len(xs1) == 1 and len(xs2) == 1

    def test_splits_along_better_axis(self):
        # Points form a tall strip: the split should be horizontal.
        entries = self._entries([(0.5, i / 20.0) for i in range(20)])
        g1, g2 = rstar_split(entries, min_fill=8)
        ys1 = max(e.y for e in g1)
        ys2 = min(e.y for e in g2)
        assert ys1 <= ys2 or min(e.y for e in g1) >= max(e.y for e in g2)


class TestChunkSizes:
    def test_empty(self):
        assert _chunk_sizes(0, 4, 7, 10) == []

    def test_exact_fill(self):
        assert _chunk_sizes(14, 4, 7, 10) == [7, 7]

    def test_all_chunks_legal(self):
        for m in range(1, 400):
            sizes = _chunk_sizes(m, 81, 142, 204)
            assert sum(sizes) == m
            if len(sizes) > 1:
                assert all(81 <= s <= 204 for s in sizes), (m, sizes)
            else:
                assert sizes[0] <= 204 or m <= 204

    def test_single_small_chunk(self):
        assert _chunk_sizes(3, 4, 7, 10) == [3]


class TestBulkLoad:
    def test_empty(self):
        tree = bulk_load_str([], capacity=8)
        assert len(tree) == 0 and tree.window(UNIT) == []

    def test_single_point(self):
        tree = bulk_load_str([(0.5, 0.5)], capacity=8)
        assert [e.oid for e in tree.window(UNIT)] == [0]

    def test_invariants(self):
        rnd = random.Random(0)
        tree = bulk_load_str([(rnd.random(), rnd.random())
                              for _ in range(5000)], capacity=16)
        tree.check_invariants()

    def test_matches_brute_force(self):
        rnd = random.Random(4)
        points = [(rnd.random(), rnd.random()) for _ in range(800)]
        tree = bulk_load_str(points, capacity=12)
        for _ in range(25):
            x1, x2 = sorted((rnd.random(), rnd.random()))
            y1, y2 = sorted((rnd.random(), rnd.random()))
            rect = Rect(x1, y1, x2, y2)
            assert sorted(e.oid for e in tree.window(rect)) == brute_window(
                points, rect)

    def test_fill_factor_controls_occupancy(self):
        rnd = random.Random(5)
        points = [(rnd.random(), rnd.random()) for _ in range(3000)]
        packed = bulk_load_str(points, capacity=16, fill=1.0)
        loose = bulk_load_str(points, capacity=16, fill=0.5)
        assert packed.num_pages < loose.num_pages

    def test_invalid_fill_raises(self):
        with pytest.raises(ValueError):
            bulk_load_str([(0, 0)], fill=0.0)

    def test_array_and_list_inputs_build_the_same_tree(self):
        rnd = random.Random(8)
        points = [(rnd.random(), rnd.random()) for _ in range(600)]
        trees = [bulk_load_str(p, capacity=8) for p in (
            points, np.array(points), np.array(points, dtype=object),
            [(x, y, 1.0) for x, y in points])]  # extra columns ignored
        walks = [list(tree.points()) for tree in trees]
        assert all(walk == walks[0] for walk in walks)
        assert all(type(e.x) is float and type(e.y) is float
                   for walk in walks for e in walk)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_raises(self, bad):
        for points in ([(0.1, 0.2), (bad, 0.3)],
                       np.array([(0.1, 0.2), (0.3, bad)]),
                       [(1e308, 0.2), (1e308, 0.3), (bad, 0.4)]):
            with pytest.raises(ValueError, match="NaN or infinite"):
                bulk_load_str(points, capacity=8)

    def test_point_beyond_double_range_raises(self):
        # finite as a long double, infinite once loaded as a float
        huge = np.longdouble(np.finfo(np.float64).max) * 2
        with pytest.raises(ValueError, match="NaN or infinite"):
            bulk_load_str(np.array([(0.1, 0.2), (huge, 0.3)],
                                   dtype=np.longdouble), capacity=8)

    def test_finite_points_whose_sum_overflows_load(self):
        tree = bulk_load_str([(1e308, 1e308), (1e308, -1e308), (0.0, 0.0)],
                             capacity=8)
        assert len(tree) == 3

    def test_insert_after_bulk_load(self):
        rnd = random.Random(6)
        points = [(rnd.random(), rnd.random()) for _ in range(500)]
        tree = bulk_load_str(points, capacity=8)
        for i in range(100):
            tree.insert(500 + i, rnd.random(), rnd.random())
        tree.check_invariants()
        assert len(tree) == 600

    def test_delete_after_bulk_load(self):
        rnd = random.Random(7)
        points = [(rnd.random(), rnd.random()) for _ in range(500)]
        tree = bulk_load_str(points, capacity=8)
        for i in range(0, 500, 3):
            assert tree.delete(i, points[i][0], points[i][1])
        tree.check_invariants()


class TestMetrics:
    def test_level_stats_shape(self):
        rnd = random.Random(8)
        tree = bulk_load_str([(rnd.random(), rnd.random())
                              for _ in range(2000)], capacity=16)
        stats = tree_level_stats(tree)
        assert [s.level for s in stats] == list(range(tree.height))
        assert stats[-1].num_nodes == 1  # the root
        assert stats[0].num_nodes > stats[-1].num_nodes

    def test_level_node_counts_sum_to_pages(self):
        rnd = random.Random(9)
        tree = bulk_load_str([(rnd.random(), rnd.random())
                              for _ in range(1500)], capacity=12)
        stats = tree_level_stats(tree)
        assert sum(s.num_nodes for s in stats) == tree.num_pages

    def test_average_occupancy_in_range(self):
        rnd = random.Random(10)
        tree = bulk_load_str([(rnd.random(), rnd.random())
                              for _ in range(2000)], capacity=16, fill=0.7)
        occ = average_occupancy(tree)
        assert 0.5 < occ <= 1.0

    def test_leaf_extents_shrink_with_cardinality(self):
        rnd = random.Random(11)
        small = bulk_load_str([(rnd.random(), rnd.random())
                               for _ in range(500)], capacity=16)
        large = bulk_load_str([(rnd.random(), rnd.random())
                               for _ in range(5000)], capacity=16)
        assert (tree_level_stats(large)[0].avg_extent_x
                < tree_level_stats(small)[0].avg_extent_x)
