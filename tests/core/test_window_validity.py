"""Tests for window-query validity regions (paper, Section 4)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import WindowRequest, build_service, check_semantics
from repro.geometry import Rect
from repro.index import bulk_load_str
from repro.core import LocationServer, compute_window_validity
from tests.conftest import brute_window

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def result_set(points, focus, w, h):
    return set(brute_window(points, Rect.around(focus, w, h)))


class TestResultAndRegions:
    def test_result_matches_brute_force(self, small_tree, uniform_1k, rng):
        for _ in range(15):
            f = (rng.random(), rng.random())
            res = compute_window_validity(small_tree, f, 0.1, 0.1,
                                          universe=UNIT)
            assert {e.oid for e in res.result} == result_set(
                uniform_1k, f, 0.1, 0.1)

    def test_focus_inside_all_regions(self, small_tree, rng):
        for _ in range(10):
            f = (rng.random(), rng.random())
            res = compute_window_validity(small_tree, f, 0.08, 0.08,
                                          universe=UNIT)
            assert res.inner_region.contains_point(f)
            assert res.conservative_region.contains_point(f)
            assert res.exact_region.contains(f)

    def test_conservative_inside_exact_inside_inner(self, small_tree, rng):
        for _ in range(10):
            f = (rng.random(), rng.random())
            res = compute_window_validity(small_tree, f, 0.1, 0.06,
                                          universe=UNIT)
            assert res.inner_region.contains_rect(res.conservative_region)
            for _ in range(10):
                p = (rng.uniform(res.conservative_region.xmin,
                                 res.conservative_region.xmax),
                     rng.uniform(res.conservative_region.ymin,
                                 res.conservative_region.ymax))
                assert res.exact_region.contains(p)

    def test_result_invariant_in_conservative_region(self, small_tree,
                                                     uniform_1k, rng):
        for _ in range(12):
            f = (rng.random(), rng.random())
            w = h = rng.choice([0.05, 0.1])
            res = compute_window_validity(small_tree, f, w, h, universe=UNIT)
            base = {e.oid for e in res.result}
            cr = res.conservative_region
            for _ in range(8):
                g = (rng.uniform(cr.xmin, cr.xmax),
                     rng.uniform(cr.ymin, cr.ymax))
                assert result_set(uniform_1k, g, w, h) == base

    def test_result_invariant_in_exact_region_interior(self, small_tree,
                                                       uniform_1k, rng):
        for _ in range(12):
            f = (rng.random(), rng.random())
            w = h = 0.08
            res = compute_window_validity(small_tree, f, w, h, universe=UNIT)
            base = {e.oid for e in res.result}
            ir = res.inner_region
            for _ in range(20):
                g = (rng.uniform(ir.xmin, ir.xmax),
                     rng.uniform(ir.ymin, ir.ymax))
                # Stay clear of hole boundaries where the result legit flips.
                strictly_in = res.exact_region.contains(g) and all(
                    not hole.contains_point(g, eps=1e-9)
                    for hole in res.exact_region.holes)
                strictly_out = any(
                    hole.contains_point_open(g, eps=1e-9)
                    for hole in res.exact_region.holes)
                if strictly_in:
                    assert result_set(uniform_1k, g, w, h) == base
                elif strictly_out:
                    assert result_set(uniform_1k, g, w, h) != base

    def test_result_changes_outside_inner_region(self, small_tree,
                                                 uniform_1k, rng):
        """Leaving the inner region means an inner point has left."""
        for _ in range(10):
            f = (rng.random() * 0.8 + 0.1, rng.random() * 0.8 + 0.1)
            w = h = 0.1
            res = compute_window_validity(small_tree, f, w, h, universe=UNIT)
            if not res.result:
                continue
            base = {e.oid for e in res.result}
            ir = res.inner_region
            # Step just past the +x boundary (if it is point-bounded).
            g = (ir.xmax + 1e-6, f[1])
            if UNIT.contains_point(g) and ir.xmax < UNIT.xmax - 1e-6:
                assert not result_set(uniform_1k, g, w, h) >= base


class TestInfluenceObjects:
    def test_inner_influence_are_result_members(self, small_tree, rng):
        for _ in range(10):
            f = (rng.random(), rng.random())
            res = compute_window_validity(small_tree, f, 0.1, 0.1,
                                          universe=UNIT)
            result_ids = {e.oid for e in res.result}
            assert all(e.oid in result_ids for e in res.inner_influence)

    def test_outer_influence_are_not_result_members(self, small_tree, rng):
        for _ in range(10):
            f = (rng.random(), rng.random())
            res = compute_window_validity(small_tree, f, 0.1, 0.1,
                                          universe=UNIT)
            result_ids = {e.oid for e in res.result}
            assert all(e.oid not in result_ids for e in res.outer_influence)

    def test_inner_influence_bound_the_region(self):
        # One point dead centre: all four sides bounded by it.
        tree = bulk_load_str([(0.5, 0.5)], capacity=4)
        res = compute_window_validity(tree, (0.5, 0.5), 0.2, 0.2,
                                      universe=UNIT)
        assert [e.oid for e in res.inner_influence] == [0]
        assert math.isclose(res.inner_region.width, 0.2)
        assert math.isclose(res.inner_region.height, 0.2)

    def test_empty_window_region_is_capped(self):
        """An empty window gets a sound, bounded validity region (3x the
        window by default) instead of the whole universe, keeping the
        influence query local."""
        tree = bulk_load_str([(0.05, 0.05)], capacity=4)
        res = compute_window_validity(tree, (0.7, 0.7), 0.1, 0.1,
                                      universe=UNIT)
        assert res.result == []
        assert res.inner_influence == []
        want = Rect.around((0.7, 0.7), 0.3, 0.3)
        assert all(a == pytest.approx(b)
                   for a, b in zip(res.inner_region, want))
        # The region is still sound: the window stays empty within it.
        cr = res.conservative_region
        for g in ((cr.xmin, cr.ymin), (cr.xmax, cr.ymax), cr.center()):
            assert not Rect.around(g, 0.1, 0.1).contains_point((0.05, 0.05))

    def test_empty_window_uncapped_matches_universe(self):
        import math
        tree = bulk_load_str([(0.05, 0.05)], capacity=4)
        res = compute_window_validity(tree, (0.7, 0.7), 0.1, 0.1,
                                      universe=UNIT,
                                      empty_window_region_factor=math.inf)
        assert res.inner_region == UNIT

    def test_outer_influence_edge_cut(self):
        # Inner point at centre, outer point to the east just outside.
        tree = bulk_load_str([(0.5, 0.5), (0.62, 0.5)], capacity=4)
        res = compute_window_validity(tree, (0.5, 0.5), 0.2, 0.2,
                                      universe=UNIT)
        assert {e.oid for e in res.result} == {0}
        assert [e.oid for e in res.outer_influence] == [1]
        # Focus can move east only until the window reaches the outer
        # point: xmax = 0.62 - 0.1 = 0.52.
        assert math.isclose(res.conservative_region.xmax, 0.52)

    def test_corner_outer_object_figure_33(self):
        """An outer object at the corner of the extended window makes the
        exact region non-rectangular; the conservative rectangle stays
        inside it (the Figure 33 discussion)."""
        tree = bulk_load_str([(0.5, 0.5), (0.63, 0.63)], capacity=4)
        res = compute_window_validity(tree, (0.5, 0.5), 0.2, 0.2,
                                      universe=UNIT)
        # The hole only eats the north-east corner of the inner region.
        assert len(res.exact_region.holes) == 1
        assert res.exact_region.area() > res.conservative_region.area()
        # Conservative region must still avoid the hole.
        hole = res.exact_region.holes[0]
        assert res.conservative_region.overlap_area(hole) == 0.0

    def test_average_influence_counts(self, small_tree, rng):
        """Paper Figure 31: about two inner and two outer on average."""
        nin, nout = [], []
        for _ in range(60):
            f = (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
            res = compute_window_validity(small_tree, f, 0.12, 0.12,
                                          universe=UNIT)
            nin.append(len(res.inner_influence))
            nout.append(len(res.outer_influence))
        assert 1.0 < sum(nin) / len(nin) < 3.5
        assert 1.0 < sum(nout) / len(nout) < 3.5


class TestValidation:
    def test_bad_extents_raise(self, small_tree):
        with pytest.raises(ValueError):
            compute_window_validity(small_tree, (0.5, 0.5), 0.0, 0.1)
        with pytest.raises(ValueError):
            compute_window_validity(small_tree, (0.5, 0.5), 0.1, -0.1)

    def test_phase_accounting(self, small_tree):
        small_tree.disk.reset_stats()
        compute_window_validity(small_tree, (0.5, 0.5), 0.1, 0.1,
                                universe=UNIT)
        phases = small_tree.disk.stats.node_accesses_by_phase()
        assert set(phases) == {"result", "influence"}

    def test_validity_region_object(self, small_tree):
        res = compute_window_validity(small_tree, (0.5, 0.5), 0.1, 0.1,
                                      universe=UNIT)
        region = res.validity_region()
        assert region.contains((0.5, 0.5))
        assert region.area() == res.conservative_region.area()
        assert region.transfer_bytes() == 32


class TestFocusOutsideTheUniverse:
    """A server built from points takes their MBR as its universe; a
    focus beyond it must still lie in its own region, or no client or
    cache could ever reuse the answer."""

    def test_repro_passes_the_semantics_contract(self):
        rng = random.Random(31)
        pts = [(0.8 * rng.random(), 0.8 * rng.random()) for _ in range(23)]
        request = WindowRequest((0.87, 0.88), 0.4, 0.33)
        response = LocationServer.from_points(pts).answer(request)
        assert response.region.contains(request.focus)
        check_semantics("window", pts, [request])

    @pytest.mark.parametrize("shards", [1, 2])
    def test_regions_hold_their_focus_and_the_oracle(self, shards):
        rnd = random.Random(5)
        missed = wrong = 0
        for _ in range(8):
            pts = [(0.8 * rnd.random(), 0.8 * rnd.random())
                   for _ in range(60)]
            service = build_service(pts, shards=shards)
            for _ in range(15):
                f = (rnd.uniform(-0.3, 1.1), rnd.uniform(-0.3, 1.1))
                w, h = rnd.uniform(0.05, 0.5), rnd.uniform(0.05, 0.5)
                response = service.answer(WindowRequest(f, w, h))
                region = response.region
                missed += not region.contains(f)
                base = {e.oid for e in response.result}
                assert base == result_set(pts, f, w, h)
                r = region.rect
                for _ in range(8):
                    g = (rnd.uniform(r.xmin, r.xmax),
                         rnd.uniform(r.ymin, r.ymax))
                    wrong += result_set(pts, g, w, h) != base
            service.close()
        assert missed == 0
        assert wrong == 0


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_conservative_region_sound_random(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 100)
        points = [(rnd.random(), rnd.random()) for _ in range(n)]
        tree = bulk_load_str(points, capacity=rnd.randint(4, 12))
        f = (rnd.random(), rnd.random())
        w = rnd.uniform(0.02, 0.3)
        h = rnd.uniform(0.02, 0.3)
        res = compute_window_validity(tree, f, w, h, universe=UNIT)
        base = result_set(points, f, w, h)
        assert {e.oid for e in res.result} == base
        cr = res.conservative_region
        for _ in range(10):
            g = (rnd.uniform(cr.xmin, cr.xmax), rnd.uniform(cr.ymin, cr.ymax))
            assert result_set(points, g, w, h) == base
