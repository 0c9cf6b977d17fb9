"""Tests for the region-query validity extension (paper §7)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.index import bulk_load_str
from repro.core import LocationServer, MobileClient, compute_range_validity
from repro.core.api import RangeRequest
from repro.geometry import Rect
from repro.service import ShardedServer

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def brute_range_set(points, center, radius):
    return {i for i, p in enumerate(points)
            if math.dist(p, center) <= radius}


class TestRangeValidity:
    def test_result_matches_brute_force(self, small_tree, uniform_1k, rng):
        for _ in range(15):
            f = (rng.random(), rng.random())
            res = compute_range_validity(small_tree, f, 0.1)
            assert {e.oid for e in res.result} == brute_range_set(
                uniform_1k, f, 0.1)

    def test_result_invariant_inside_validity_disk(self, small_tree,
                                                   uniform_1k, rng):
        """The conservative disk is sound: result identical anywhere in it."""
        for _ in range(20):
            f = (rng.random(), rng.random())
            res = compute_range_validity(small_tree, f, 0.08)
            base = {e.oid for e in res.result}
            rho = res.validity_radius
            if not math.isfinite(rho) or rho <= 0:
                continue
            for _ in range(8):
                ang = rng.random() * 2 * math.pi
                d = rng.random() * rho * 0.999
                g = (f[0] + d * math.cos(ang), f[1] + d * math.sin(ang))
                assert brute_range_set(uniform_1k, g, 0.08) == base

    def test_validity_radius_is_tight(self, small_tree, uniform_1k, rng):
        """Moving just beyond the disk towards the binding object changes
        the result."""
        for _ in range(15):
            f = (rng.random(), rng.random())
            res = compute_range_validity(small_tree, f, 0.08)
            rho = res.validity_radius
            if not math.isfinite(rho) or rho <= 1e-9:
                continue
            base = {e.oid for e in res.result}
            # The binding influence object defines the tight direction.
            inner_slack = (min(0.08 - math.dist((e.x, e.y), f)
                               for e in res.result)
                           if res.result else math.inf)
            if inner_slack < math.inf and math.isclose(rho, inner_slack):
                b = res.inner_influence
                away = (f[0] - (b.x - f[0]) / max(math.dist((b.x, b.y), f), 1e-12) * rho * 1.01,
                        f[1] - (b.y - f[1]) / max(math.dist((b.x, b.y), f), 1e-12) * rho * 1.01)
                # Moving directly away from the binding inner object by
                # slightly more than rho drops it from the result.
                assert b.oid not in brute_range_set(uniform_1k, away, 0.08)
            else:
                b = res.outer_influence
                towards = (f[0] + (b.x - f[0]) / math.dist((b.x, b.y), f) * rho * 1.01,
                           f[1] + (b.y - f[1]) / math.dist((b.x, b.y), f) * rho * 1.01)
                assert b.oid in brute_range_set(uniform_1k, towards, 0.08)

    def test_empty_result(self, rng):
        tree = bulk_load_str([(0.9, 0.9)], capacity=4)
        res = compute_range_validity(tree, (0.1, 0.1), 0.05)
        assert res.result == []
        assert res.inner_influence is None
        assert res.outer_influence is not None
        # Disk reaches until the single point would enter.
        want = math.dist((0.1, 0.1), (0.9, 0.9)) - 0.05
        assert math.isclose(res.validity_radius, want)

    def test_all_points_inside(self):
        tree = bulk_load_str([(0.5, 0.5)], capacity=4)
        res = compute_range_validity(tree, (0.5, 0.5), 0.2)
        assert res.outer_influence is None
        assert math.isclose(res.validity_radius, 0.2)  # until the point exits

    def test_empty_tree(self):
        tree = bulk_load_str([], capacity=4)
        res = compute_range_validity(tree, (0.5, 0.5), 0.1)
        assert res.result == [] and res.influence_set == []
        assert math.isinf(res.validity_radius)
        assert res.validity_region().contains((123.0, 456.0))

    def test_invalid_radius_raises(self, small_tree):
        with pytest.raises(ValueError):
            compute_range_validity(small_tree, (0.5, 0.5), 0.0)

    def test_region_object(self, small_tree):
        res = compute_range_validity(small_tree, (0.5, 0.5), 0.1)
        region = res.validity_region()
        assert region.contains((0.5, 0.5))
        assert region.transfer_bytes() == 24
        if math.isfinite(res.validity_radius):
            assert math.isclose(
                region.area(), math.pi * res.validity_radius ** 2)

    def test_member_a_rounding_step_outside_leaves_a_zero_disk(self):
        """The squared-distance test admits a point that ``hypot`` puts
        a rounding step beyond the radius.  Its slack is then zero, not
        negative, so the disk still holds its own focus, on a single
        tree as on a sharded fleet."""
        edge = (0.37170886643127976, 0.6534320209332224)
        dx, dy = edge[0] - 0.5, edge[1] - 0.5
        assert dx * dx + dy * dy <= 0.2 * 0.2 and math.hypot(dx, dy) > 0.2
        points = [edge, (0.9, 0.9), (0.1, 0.1), (0.5, 0.55)]
        for server in (LocationServer.from_points(points),
                       ShardedServer.from_points(points, grid=2)):
            response = server.answer(RangeRequest((0.5, 0.5), 0.2))
            assert {e.oid for e in response.result} == {0, 3}
            assert response.detail.validity_radius == 0.0
            assert response.region.contains((0.5, 0.5))


class TestServerClientRange:
    def test_server_range_query(self, small_tree, uniform_1k):
        server = LocationServer(small_tree, UNIT)
        resp = server.answer(RangeRequest((0.5, 0.5), 0.1))
        assert {e.oid for e in resp.result} == brute_range_set(
            uniform_1k, (0.5, 0.5), 0.1)
        assert resp.transfer_bytes() >= 24

    def test_client_caches_range(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        a = client.range((0.5, 0.5), 0.1)
        b = client.range((0.5 + 1e-9, 0.5), 0.1)
        assert [e.oid for e in a] == [e.oid for e in b]
        assert client.stats.server_queries == 1
        assert client.stats.cache_answers == 1

    def test_client_range_correct_along_walk(self, small_tree, uniform_1k,
                                             rng):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        # Validity disks over 1k points are small (boundary gaps of a
        # 0.07-radius circle average ~0.002), so walk in small steps.
        pos = [0.5, 0.5]
        for _ in range(60):
            pos[0] = min(max(pos[0] + rng.uniform(-0.0005, 0.0005), 0), 1)
            pos[1] = min(max(pos[1] + rng.uniform(-0.0005, 0.0005), 0), 1)
            got = {e.oid for e in client.range(tuple(pos), 0.07)}
            assert got == brute_range_set(uniform_1k, tuple(pos), 0.07)
        assert client.stats.cache_answers > 0

    def test_radius_change_invalidates_cache(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        client.range((0.5, 0.5), 0.1)
        client.range((0.5, 0.5), 0.2)
        assert client.stats.server_queries == 2


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_validity_disk_sound_random(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 80)
        points = [(rnd.random(), rnd.random()) for _ in range(n)]
        tree = bulk_load_str(points, capacity=rnd.randint(4, 12))
        f = (rnd.random(), rnd.random())
        r = rnd.uniform(0.02, 0.4)
        res = compute_range_validity(tree, f, r)
        base = brute_range_set(points, f, r)
        assert {e.oid for e in res.result} == base
        rho = res.validity_radius
        if math.isfinite(rho) and rho > 0:
            for _ in range(6):
                ang = rnd.random() * 2 * math.pi
                d = rnd.random() * rho * 0.999
                g = (f[0] + d * math.cos(ang), f[1] + d * math.sin(ang))
                assert brute_range_set(points, g, r) == base
