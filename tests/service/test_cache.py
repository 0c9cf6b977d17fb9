"""The server-side validity cache: correctness oracle and bookkeeping.

The cache's contract is the paper's contract, applied across clients: a
cache-served response must equal the brute-force answer *at the probe
point* (not at the original query point).  The Hypothesis properties
drive random probes through a cached service and check exactly that,
reusing the tie-aware oracles of tests/core/test_validity_oracle.py.
The unit tests pin the mechanics: LRU eviction, mutation invalidation,
epoch staleness, and what is never admitted.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro import (
    KNNRequest,
    RangeRequest,
    RKNNRequest,
    WindowRequest,
    build_service,
)
from repro.core.server import LocationServer
from repro.geometry import Rect
from repro.index import bulk_load_str
from repro.service import CacheConfig, ValidityCache

from tests.conftest import UNIT, brute_window
from tests.core.test_validity_oracle import EPS, _knn_set_unchanged

seeds = st.integers(min_value=0, max_value=2**31 - 1)
ks = st.integers(min_value=1, max_value=5)


def _instance(seed: int, n: int = 150):
    rnd = random.Random(seed)
    points = [(rnd.random(), rnd.random()) for _ in range(n)]
    query = (0.2 + 0.6 * rnd.random(), 0.2 + 0.6 * rnd.random())
    return points, query, rnd


def _probes_near(query, rnd, num=20, sigma=0.02):
    for _ in range(num):
        yield (min(1.0, max(0.0, query[0] + rnd.gauss(0.0, sigma))),
               min(1.0, max(0.0, query[1] + rnd.gauss(0.0, sigma))))


class TestCacheOracle:
    @given(seeds, ks)
    @settings(deadline=None, max_examples=20)
    def test_cache_served_knn_equals_brute_force_at_probe(self, seed, k):
        points, query, rnd = _instance(seed)
        service = build_service(points, cache=CacheConfig(capacity=64))
        service.answer(KNNRequest(query, k=k))
        hits = 0
        for probe in _probes_near(query, rnd):
            before = service.cache.hits
            response = service.answer(KNNRequest(probe, k=k))
            if service.cache.hits == before:
                continue  # miss: answered by the index, not under test
            hits += 1
            served = {e.oid for e in response.result}
            assert _knn_set_unchanged(points, probe, served), (
                f"cache served a wrong kNN set at {probe} (seed={seed}, "
                f"k={k})")
            # Hit responses are re-ranked by distance at the probe point.
            dists = [math.dist(points[e.oid], probe)
                     for e in response.result]
            assert dists == sorted(dists)
        assert service.cache.hits == hits

    @given(seeds,
           st.floats(min_value=0.05, max_value=0.3),
           st.floats(min_value=0.05, max_value=0.3))
    @settings(deadline=None, max_examples=20)
    def test_cache_served_window_equals_brute_force_at_probe(
            self, seed, w, h):
        points, focus, rnd = _instance(seed)
        service = build_service(points, cache=CacheConfig(capacity=64))
        service.answer(WindowRequest(focus, w, h))
        for probe in _probes_near(focus, rnd):
            before = service.cache.hits
            response = service.answer(WindowRequest(probe, w, h))
            if service.cache.hits == before:
                continue
            moved = Rect(probe[0] - w / 2.0, probe[1] - h / 2.0,
                         probe[0] + w / 2.0, probe[1] + h / 2.0)
            assert sorted(e.oid for e in response.result) == \
                brute_window(points, moved), (
                    f"cache served a wrong window result at {probe} "
                    f"(seed={seed}, w={w}, h={h})")

    @given(seeds, st.floats(min_value=0.05, max_value=0.25))
    @settings(deadline=None, max_examples=20)
    def test_cache_served_range_equals_brute_force_at_probe(
            self, seed, radius):
        points, focus, rnd = _instance(seed)
        service = build_service(points, cache=CacheConfig(capacity=64))
        service.answer(RangeRequest(focus, radius))
        for probe in _probes_near(focus, rnd, sigma=0.01):
            before = service.cache.hits
            response = service.answer(RangeRequest(probe, radius))
            if service.cache.hits == before:
                continue
            served = sorted(e.oid for e in response.result)
            inside = sorted(
                i for i, p in enumerate(points)
                if math.dist(p, probe) <= radius - EPS)
            on_rim = {i for i, p in enumerate(points)
                      if abs(math.dist(p, probe) - radius) <= EPS}
            assert set(inside) - set(served) <= on_rim
            assert set(served) - set(inside) <= on_rim

    @given(seeds, ks)
    @settings(deadline=None, max_examples=15)
    def test_hit_costs_zero_node_accesses(self, seed, k):
        points, query, _ = _instance(seed)
        service = build_service(points, cache=CacheConfig(capacity=64))
        service.answer(KNNRequest(query, k=k))
        before = service.server.io_stats.total_node_accesses
        response = service.answer(KNNRequest(query, k=k))
        assert service.cache.hits == 1
        assert service.server.io_stats.total_node_accesses == before
        assert {e.oid for e in response.result}


class TestCacheMechanics:
    def _server(self, n=200, seed=9):
        rnd = random.Random(seed)
        points = [(rnd.random(), rnd.random()) for _ in range(n)]
        tree = bulk_load_str(points, capacity=8)
        return points, LocationServer(tree, universe=UNIT)

    def test_lru_eviction_order(self):
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=2))
        q = (0.5, 0.5)
        requests = [KNNRequest(q, k=k) for k in (1, 2, 3)]
        for request in requests:
            cache.admit(request, server.answer(request), server.epoch)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.probe(requests[0], server.epoch) is None  # evicted
        assert cache.probe(requests[2], server.epoch) is not None

    def test_probe_refreshes_lru_position(self):
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=2))
        q = (0.5, 0.5)
        requests = [KNNRequest(q, k=k) for k in (1, 2, 3)]
        for request in requests[:2]:
            cache.admit(request, server.answer(request), server.epoch)
        assert cache.probe(requests[0], server.epoch) is not None  # touch
        cache.admit(requests[2], server.answer(requests[2]), server.epoch)
        # k=2 was least recently used, so it (not the touched k=1) went.
        assert cache.probe(requests[0], server.epoch) is not None
        assert cache.probe(requests[1], server.epoch) is None

    def test_mutation_invalidates_through_the_service(self):
        points, _, _ = _instance(3)
        service = build_service(points, cache=CacheConfig(capacity=64))
        request = KNNRequest((0.5, 0.5), k=2)
        service.answer(request)
        assert len(service.cache) == 1
        service.insert_object(len(points), 0.5001, 0.5001)
        assert len(service.cache) == 0
        assert service.cache.invalidations == 1
        response = service.answer(request)  # recomputed, not stale
        assert len(points) in {e.oid for e in response.result}

    def test_stale_epoch_entries_dropped_lazily(self):
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=8))
        request = KNNRequest((0.5, 0.5), k=1)
        cache.admit(request, server.answer(request), epoch=0)
        assert cache.probe(request, epoch=1) is None
        assert len(cache) == 0  # dropped on sight, not just skipped

    def test_delta_and_degraded_are_not_admitted(self):
        from repro.core.api import QueryBudget
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=8))
        delta = KNNRequest((0.5, 0.5), k=2, previous_ids=frozenset({1}))
        assert not cache.admit(delta, server.answer(delta), server.epoch)
        full = KNNRequest((0.5, 0.5), k=2)
        starved = server.answer(
            KNNRequest((0.5, 0.5), k=2,
                       budget=QueryBudget(max_node_accesses=1)))
        assert starved.detail.degraded
        assert not cache.admit(full, starved, server.epoch)
        assert len(cache) == 0

    def test_capacity_zero_disables_the_cache(self):
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=0))
        request = KNNRequest((0.5, 0.5), k=1)
        assert not cache.admit(request, server.answer(request), server.epoch)
        assert cache.probe(request, server.epoch) is None
        assert cache.hits == 0 and cache.misses == 0

    def test_snapshot_is_json_serializable_and_consistent(self):
        import json
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=4))
        request = KNNRequest((0.5, 0.5), k=1)
        cache.admit(request, server.answer(request), server.epoch)
        cache.probe(request, server.epoch)
        snap = json.loads(json.dumps(cache.snapshot()))
        assert snap["size"] == 1
        assert snap["hits"] == 1
        assert snap["hit_ratio"] == 1.0


class TestSurgicalInvalidation:
    """The mutation hook drops only entries the mutation can affect."""

    def _server(self, n=200, seed=9):
        rnd = random.Random(seed)
        points = [(rnd.random(), rnd.random()) for _ in range(n)]
        tree = bulk_load_str(points, capacity=8)
        return points, LocationServer(tree, universe=UNIT)

    def test_nonoverlapping_entries_survive_a_mutation(self):
        """Regression for the blunt invalidate-all hook: a mutation on
        the far side of the universe must not evict an unrelated entry,
        and the survivor keeps serving hits with zero node accesses."""
        points, _, _ = _instance(3)
        service = build_service(points, cache=CacheConfig(capacity=64))
        request = KNNRequest((0.2, 0.2), k=2)
        service.answer(request)
        assert len(service.cache) == 1
        service.insert_object(len(points), 0.9, 0.9)  # far away
        assert len(service.cache) == 1, "unrelated entry was evicted"
        assert service.cache.surgical_survivals == 1
        before = service.server.io_stats.total_node_accesses
        response = service.answer(request)  # same key, post-mutation epoch
        assert service.cache.hits == 1
        assert service.server.io_stats.total_node_accesses == before
        assert len(points) not in {e.oid for e in response.result}

    def test_overlapping_insert_still_drops_the_entry(self):
        points, _, _ = _instance(3)
        service = build_service(points, cache=CacheConfig(capacity=64))
        request = KNNRequest((0.5, 0.5), k=2)
        service.answer(request)
        service.insert_object(len(points), 0.5001, 0.5001)
        assert len(service.cache) == 0
        assert service.cache.surgical_drops == 1
        response = service.answer(request)
        assert len(points) in {e.oid for e in response.result}

    def test_delete_only_touches_entries_holding_the_victim(self):
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=8))
        near = KNNRequest((0.3, 0.3), k=2)
        far = KNNRequest((0.8, 0.8), k=2)
        near_response = server.answer(near)
        cache.admit(near, near_response, server.epoch)
        cache.admit(far, server.answer(far), server.epoch)
        victim = near_response.result[0]
        server.delete_object(victim.oid, victim.point[0], victim.point[1])
        cache.invalidate_mutation("delete", victim.oid,
                                  victim.point[0], victim.point[1],
                                  epoch=server.epoch)
        assert cache.probe(near, server.epoch) is None  # held the victim
        assert cache.probe(far, server.epoch) is not None

    def test_insert_beating_a_later_neighbour_drops_the_entry(self):
        """Every neighbour's bisector is tested against every corner of
        the region's MBR: a corner generator shared across neighbours
        once tested only the first and kept this entry, so the probe
        served [79, 115, 141] where the fresh answer is [115, 141, 150]."""
        rnd = random.Random(9)
        points = [(rnd.random(), rnd.random()) for _ in range(150)]
        server = LocationServer.from_points(points)
        cache = ValidityCache(server.universe, CacheConfig(capacity=8))
        request = KNNRequest((0.4, 0.6), k=3)
        cache.admit(request, server.answer(request), server.epoch)
        x, y = 0.37354628137317775, 0.6638649262840761
        server.insert_object(150, x, y)
        assert cache.invalidate_mutation("insert", 150, x, y,
                                         epoch=server.epoch) == 1
        assert cache.probe(request, server.epoch) is None
        assert sorted(e.oid for e in server.answer(request).result) == [
            115, 141, 150]

    def test_rknn_survives_an_insert_it_can_refute(self):
        """A reverse-kNN entry is kept through an insert that shrinks no
        member's k-NN radius and stays a safety radius away from joining
        (it used to be evicted by every mutation); a member's delete
        still evicts it."""
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=8))
        request = RKNNRequest((0.3, 0.3), k=2)
        cached = server.answer(request)
        cache.admit(request, cached, server.epoch)
        server.insert_object(9_001, 0.95, 0.95)
        cache.invalidate_mutation("insert", 9_001, 0.95, 0.95,
                                  epoch=server.epoch)
        hit = cache.probe(request, server.epoch)
        assert hit is cached
        assert ([e.oid for e in hit.result]
                == [e.oid for e in server.answer(request).result])
        victim = cached.result[0]
        server.delete_object(victim.oid, victim.x, victim.y)
        cache.invalidate_mutation("delete", victim.oid, victim.x, victim.y,
                                  epoch=server.epoch)
        assert cache.probe(request, server.epoch) is None

    def test_window_survival_is_zone_overlap(self):
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=8))
        request = WindowRequest((0.3, 0.3), 0.1, 0.1)
        cache.admit(request, server.answer(request), server.epoch)
        # The inserted object's zone misses the cached region's MBR.
        cache.invalidate_mutation("insert", 9_001, 0.9, 0.9,
                                  epoch=server.epoch + 1)
        assert cache.probe(request, server.epoch + 1) is not None
        # A zone overlapping the MBR could flip some focus' answer.
        cache.invalidate_mutation("insert", 9_002, 0.3, 0.3,
                                  epoch=server.epoch + 2)
        assert cache.probe(request, server.epoch + 2) is None

    def test_range_survival_is_mindist(self):
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=8))
        request = RangeRequest((0.3, 0.3), 0.05)
        cache.admit(request, server.answer(request), server.epoch)
        cache.invalidate_mutation("insert", 9_001, 0.9, 0.9,
                                  epoch=server.epoch + 1)
        assert cache.probe(request, server.epoch + 1) is not None
        cache.invalidate_mutation("insert", 9_002, 0.31, 0.3,
                                  epoch=server.epoch + 2)
        assert cache.probe(request, server.epoch + 2) is None

    def test_a_write_past_the_hook_stales_every_entry(self):
        """A write applied to the server alone bumps the epoch without
        certifying anything, so the next probe drops every entry: the
        invalidate-all baseline bench_incremental.py measures against."""
        points, _, _ = _instance(3)
        service = build_service(points, cache=CacheConfig(capacity=64))
        request = KNNRequest((0.2, 0.2), k=2)
        service.answer(request)
        service.server.insert_object(len(points), 0.9, 0.9)  # unrelated
        assert service.cache.probe(request, service.epoch) is None
        assert len(service.cache) == 0
        assert service.cache.surgical_drops == 0

    def test_lagging_entries_are_not_restamped(self):
        """Only entries current as of the pre-mutation epoch may be
        re-stamped; anything older is dropped, never resurrected."""
        _, server = self._server()
        cache = ValidityCache(UNIT, CacheConfig(capacity=8))
        request = KNNRequest((0.3, 0.3), k=2)
        cache.admit(request, server.answer(request), epoch=0)
        # Two mutations elapsed but only the second hook runs (the
        # first was lost, say, to a crashed replica): the entry cannot
        # prove survival across the unobserved epoch.
        cache.invalidate_mutation("insert", 9_001, 0.9, 0.9, epoch=2)
        assert cache.probe(request, epoch=2) is None

    def test_unknown_op_is_rejected(self):
        cache = ValidityCache(UNIT, CacheConfig(capacity=8))
        try:
            cache.invalidate_mutation("upsert", 1, 0.5, 0.5, epoch=1)
        except ValueError:
            pass
        else:
            raise AssertionError("unknown mutation op must raise")

    def test_snapshot_reports_surgical_counters(self):
        import json
        points, _, _ = _instance(3)
        service = build_service(points, cache=CacheConfig(capacity=64))
        service.answer(KNNRequest((0.2, 0.2), k=2))
        service.insert_object(len(points), 0.9, 0.9)
        snap = json.loads(json.dumps(service.cache.snapshot()))
        assert snap["surgical_survivals"] == 1
