"""Tests for NN validity regions (paper, Section 3).

The fundamental invariant: the computed region equals the order-k
Voronoi cell of the result set (brute-force half-plane intersection),
and the kNN set is constant exactly on that region.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.index import bulk_load_str
from repro.core import (
    compute_nn_validity,
    retrieve_influence_set_1nn,
    retrieve_influence_set_knn,
)
from repro.core.nn_validity import VERTEX_POLICIES
from repro.queries import nearest_neighbors
from tests.conftest import brute_knn_set, brute_order_k_cell

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


class TestRegionEqualsVoronoiCell:
    def test_1nn_region_is_voronoi_cell(self, small_tree, uniform_1k, rng):
        for _ in range(20):
            q = (rng.random(), rng.random())
            res = compute_nn_validity(small_tree, q, k=1, universe=UNIT)
            cell = brute_order_k_cell(uniform_1k, q, 1, UNIT)
            assert math.isclose(res.region.area(), cell.area(),
                                rel_tol=1e-6, abs_tol=1e-12)

    def test_knn_region_is_order_k_cell(self, small_tree, uniform_1k, rng):
        for k in (2, 3, 10):
            for _ in range(6):
                q = (rng.random(), rng.random())
                res = compute_nn_validity(small_tree, q, k=k, universe=UNIT)
                cell = brute_order_k_cell(uniform_1k, q, k, UNIT)
                assert math.isclose(res.region.area(), cell.area(),
                                    rel_tol=1e-6, abs_tol=1e-12)

    def test_region_contains_query(self, small_tree, rng):
        for _ in range(10):
            q = (rng.random(), rng.random())
            res = compute_nn_validity(small_tree, q, k=1, universe=UNIT)
            assert res.region.contains(q, eps=1e-9)

    def test_result_constant_inside_region(self, small_tree, uniform_1k, rng):
        for _ in range(10):
            q = (rng.random(), rng.random())
            k = rng.choice([1, 3])
            res = compute_nn_validity(small_tree, q, k=k, universe=UNIT)
            base = {e.oid for e in res.neighbors}
            hits = 0
            while hits < 8:
                p = (rng.random(), rng.random())
                if res.region.contains(p, eps=-1e-9):
                    hits += 1
                    assert brute_knn_set(uniform_1k, p, k) == base

    def test_result_differs_outside_region(self, small_tree, uniform_1k, rng):
        for _ in range(10):
            q = (rng.random(), rng.random())
            res = compute_nn_validity(small_tree, q, k=1, universe=UNIT)
            base = {e.oid for e in res.neighbors}
            misses = 0
            while misses < 8:
                p = (rng.random(), rng.random())
                if not res.region.contains(p, eps=1e-9):
                    misses += 1
                    assert brute_knn_set(uniform_1k, p, 1) != base


class TestLemmas:
    def test_lemma_3_2_query_count(self, small_tree, rng):
        """#TP queries == n_inf (pairs) + n_v (confirmations)."""
        for _ in range(20):
            q = (rng.random(), rng.random())
            k = rng.choice([1, 1, 5])
            res = compute_nn_validity(small_tree, q, k=k, universe=UNIT)
            assert res.num_tp_queries == (len(res.influence_pairs)
                                          + res.num_confirmations)

    def test_no_false_hits(self, small_tree, uniform_1k, rng):
        """Lemma 3.1(ii): every influence object contributes an edge.

        Removing any single influence pair must strictly grow the
        region, otherwise the pair was a false hit.
        """
        from repro.geometry import ConvexPolygon, bisector_halfplane
        for _ in range(8):
            q = (rng.random(), rng.random())
            res = compute_nn_validity(small_tree, q, k=1, universe=UNIT)
            pairs = res.influence_pairs
            full_area = res.region.area()
            for skip in range(len(pairs)):
                poly = ConvexPolygon.from_rect(UNIT)
                for i, (o, a) in enumerate(pairs):
                    if i == skip:
                        continue
                    poly = poly.clip(
                        bisector_halfplane(o.point, a.point), eps=1e-12)
                assert poly.area() > full_area + 1e-15

    def test_influence_count_matches_edges_for_1nn(self, small_tree, rng):
        """For k=1, interior edges of V(q) map 1:1 to influence objects."""
        for _ in range(15):
            q = (rng.random(), rng.random())
            res = compute_nn_validity(small_tree, q, k=1, universe=UNIT)
            # Edges on the universe boundary have no influence object.
            boundary_edges = _universe_edges(res.region, UNIT)
            assert res.num_influence_objects == res.num_edges - boundary_edges


def _universe_edges(region, universe):
    count = 0
    verts = region.vertices
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        for lo, hi, coord in ((universe.xmin, universe.xmax, 0),
                              (universe.ymin, universe.ymax, 1)):
            for bound in (lo, hi):
                if (abs(a[coord] - bound) < 1e-12
                        and abs(b[coord] - bound) < 1e-12):
                    count += 1
    return count


class TestAlgorithmVariants:
    def test_1nn_wrapper_equivalent(self, small_tree):
        q = (0.37, 0.81)
        o = nearest_neighbors(small_tree, q, k=1)[0].entry
        a = retrieve_influence_set_1nn(small_tree, q, o, UNIT)
        b = retrieve_influence_set_knn(small_tree, q, [o], UNIT)
        assert math.isclose(a.region.area(), b.region.area())
        assert ({e.oid for e in a.influence_set}
                == {e.oid for e in b.influence_set})

    @pytest.mark.parametrize("policy", VERTEX_POLICIES)
    def test_all_vertex_policies_same_region(self, small_tree, policy):
        q = (0.52, 0.44)
        rng = random.Random(7)
        res = compute_nn_validity(small_tree, q, k=1, universe=UNIT,
                                  vertex_policy=policy, rng=rng)
        ref = compute_nn_validity(small_tree, q, k=1, universe=UNIT)
        assert math.isclose(res.region.area(), ref.region.area(),
                            rel_tol=1e-9)

    def test_unknown_policy_raises(self, small_tree):
        with pytest.raises(ValueError):
            compute_nn_validity(small_tree, (0.5, 0.5), universe=UNIT,
                                vertex_policy="bogus")

    def test_depth_first_nn_method(self, small_tree):
        res = compute_nn_validity(small_tree, (0.5, 0.5), k=1, universe=UNIT,
                                  nn_method="depth_first")
        ref = compute_nn_validity(small_tree, (0.5, 0.5), k=1, universe=UNIT)
        assert math.isclose(res.region.area(), ref.region.area())

    def test_empty_result_raises(self, small_tree):
        with pytest.raises(ValueError):
            retrieve_influence_set_knn(small_tree, (0.5, 0.5), [], UNIT)


class TestEdgeCases:
    def test_k_equals_dataset_size(self):
        pts = [(0.2, 0.2), (0.8, 0.8), (0.5, 0.1)]
        tree = bulk_load_str(pts, capacity=4)
        res = compute_nn_validity(tree, (0.5, 0.5), k=3, universe=UNIT)
        # Every point is in the result: valid everywhere, no influences.
        assert math.isclose(res.region.area(), 1.0)
        assert res.influence_pairs == []

    def test_k_exceeds_dataset_size(self):
        pts = [(0.2, 0.2), (0.8, 0.8)]
        tree = bulk_load_str(pts, capacity=4)
        res = compute_nn_validity(tree, (0.5, 0.5), k=5, universe=UNIT)
        assert math.isclose(res.region.area(), 1.0)

    def test_two_points(self):
        tree = bulk_load_str([(0.25, 0.5), (0.75, 0.5)], capacity=4)
        res = compute_nn_validity(tree, (0.3, 0.5), k=1, universe=UNIT)
        # The cell is the half of the square left of x = 0.5.
        assert math.isclose(res.region.area(), 0.5, rel_tol=1e-9)
        assert res.num_influence_objects == 1

    def test_query_on_data_point(self, small_tree, uniform_1k):
        q = uniform_1k[50]
        res = compute_nn_validity(small_tree, q, k=1, universe=UNIT)
        assert res.neighbors[0].oid == 50
        cell = brute_order_k_cell(uniform_1k, q, 1, UNIT)
        assert math.isclose(res.region.area(), cell.area(), rel_tol=1e-6)

    def test_query_at_universe_corner(self, small_tree, uniform_1k):
        res = compute_nn_validity(small_tree, (0.0, 0.0), k=1, universe=UNIT)
        cell = brute_order_k_cell(uniform_1k, (0.0, 0.0), 1, UNIT)
        assert math.isclose(res.region.area(), cell.area(), rel_tol=1e-6)

    def test_grid_data_degenerate_ties(self):
        """Cocircular grid points: the tie-preference must still find the
        full cell."""
        pts = [(x / 10.0, y / 10.0) for x in range(1, 10)
               for y in range(1, 10)]
        tree = bulk_load_str(pts, capacity=8)
        res = compute_nn_validity(tree, (0.43, 0.52), k=1, universe=UNIT)
        cell = brute_order_k_cell(pts, (0.43, 0.52), 1, UNIT)
        assert math.isclose(res.region.area(), cell.area(), rel_tol=1e-6)

    def test_clustered_data(self, clustered_tree, clustered_300, rng):
        for _ in range(8):
            q = (rng.random(), rng.random())
            res = compute_nn_validity(clustered_tree, q, k=2, universe=UNIT)
            cell = brute_order_k_cell(clustered_300, q, 2, UNIT)
            assert math.isclose(res.region.area(), cell.area(),
                                rel_tol=1e-6, abs_tol=1e-12)

    def test_validity_region_object(self, small_tree, rng):
        q = (0.4, 0.6)
        res = compute_nn_validity(small_tree, q, k=1, universe=UNIT)
        region = res.validity_region(UNIT)
        assert region.contains(q)
        poly = region.polygon()
        assert math.isclose(poly.area(), res.region.area(), rel_tol=1e-9)
        assert region.num_halfplane_checks == len(res.influence_pairs)
        assert region.transfer_bytes() > 0


class TestTies:
    """q equidistant from a result object and a non-result one."""

    #: q = (0.925, 0.365) lies on the bisector of objects 5 and 7: their
    #: squared distances from q differ by 2e-17.
    POINTS = [(0.005, 0.005), (0.005, 0.01), (0.005, 0.015), (0.005, 0.44),
              (0.01, 0.005), (0.715, 0.31), (0.73, 0.32), (0.79, 0.535)]

    def test_tied_query_ships_the_zero_radius_safe_disk(self):
        from repro import KNNRequest, LocationServer

        server = LocationServer.from_points(self.POINTS, universe=UNIT)
        server.reset_io_stats()
        response = server.answer(KNNRequest((0.925, 0.365), k=2))
        assert {e.oid for e in response.result} == {6, 7}
        assert response.detail.degraded
        assert response.detail.safe_radius == 0.0
        assert response.region.contains((0.925, 0.365))
        # Probes toward two vertices once met the known pair (5, 7) at a
        # spurious time and confirmed them, so the region held p, where
        # the 2-NN is {7, 5}.
        p = (0.5457230392156862, 0.5049999999999999)
        assert brute_knn_set(self.POINTS, p, 2) == {5, 7}
        assert not response.region.contains(p)
        # The tie costs no extra (k+1)-NN probe.
        assert "degraded" not in server.io_stats.node_accesses


class TestPhaseAccounting:
    def test_phases_split_nn_and_tpnn(self, small_tree):
        small_tree.disk.reset_stats()
        compute_nn_validity(small_tree, (0.5, 0.5), k=1, universe=UNIT)
        phases = small_tree.disk.stats.node_accesses_by_phase()
        assert set(phases) == {"nn", "tpnn"}
        assert phases["tpnn"] > phases["nn"]  # ~12 TP queries vs 1 NN


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_region_matches_brute_cell_random(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(2, 60)
        points = [(rnd.random(), rnd.random()) for _ in range(n)]
        tree = bulk_load_str(points, capacity=rnd.randint(4, 12))
        q = (rnd.random(), rnd.random())
        k = rnd.randint(1, min(n, 6))
        res = compute_nn_validity(tree, q, k=k, universe=UNIT)
        cell = brute_order_k_cell(points, q, k, UNIT)
        assert math.isclose(res.region.area(), cell.area(),
                            rel_tol=1e-5, abs_tol=1e-10)
