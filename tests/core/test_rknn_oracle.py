"""Oracle-backed battery for reverse-kNN validity queries.

A reverse-kNN answer is the set of objects that count the query point
among their own k nearest neighbours.  Unlike kNN, membership is
decided by per-object thresholds (each object's k-th neighbour
distance), so the shipped validity region is an intersection of disks:
one per member (the member keeps the client within its threshold) and
a safety disk excluding every non-member.

These properties check the spatial contract against a quadratic
brute-force oracle — fresh answers, answers served inside the region,
cached answers, stale-served answers under pending mutation streams,
continuous-subscription answers under applied mutation streams, and
a sharded server's thread-pool fan-out.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro import CacheConfig, ContinuousConfig, build_service
from repro.core.rknn import RKNNRequest, compute_rknn_validity
from repro.core.server import LocationServer
from repro.service.staleness import Mutation, shrunk_stale_region

from tests.conftest import UNIT

EPS = 1e-9

seeds = st.integers(min_value=0, max_value=2**31 - 1)
ks = st.integers(min_value=1, max_value=4)


def _instance(seed: int, n: int = 150):
    rnd = random.Random(seed)
    points = [(rnd.random(), rnd.random()) for _ in range(n)]
    query = (0.25 + 0.5 * rnd.random(), 0.25 + 0.5 * rnd.random())
    return points, query, rnd


def _brute_rknn(live, q, k):
    """Tie-aware ``(must, may)`` reverse-kNN id sets over oid->point."""
    items = list(live.items())
    must, may = set(), set()
    for oid, p in items:
        d_others = sorted(math.dist(p, other)
                          for o2, other in items if o2 != oid)
        r = d_others[k - 1] if len(d_others) >= k else math.inf
        d = math.dist(p, q)
        if d < r - EPS:
            must.add(oid)
        if d < r + EPS:
            may.add(oid)
    return must, may


def _rknn_ok(live, q, served, k):
    must, may = _brute_rknn(live, q, k)
    return must <= served <= may


def _mutate(service, live, rnd, next_oid, center, spread=0.08):
    """One random mutation, biased to land near the query."""
    if live and rnd.random() < 0.45:
        oid = rnd.choice(sorted(live))
        x, y = live.pop(oid)
        assert service.delete_object(oid, x, y)
        return next_oid
    x = min(1.0, max(0.0, center[0] + rnd.gauss(0.0, spread)))
    y = min(1.0, max(0.0, center[1] + rnd.gauss(0.0, spread)))
    service.insert_object(next_oid, x, y)
    live[next_oid] = (x, y)
    return next_oid + 1


def _sync(sub, pos):
    """A well-behaved subscriber: drain, honour invalidations, move
    when the patched region no longer covers the position."""
    updates = sub.drain()
    if updates and updates[-1].kind == "invalidate":
        sub.move(pos)
    elif (sub.response is not None
          and not sub.response.region.contains(pos)):
        sub.move(pos)
    return sub.response


class TestRknnOracle:
    @given(seeds, ks)
    @settings(deadline=None, max_examples=25)
    def test_result_matches_brute_force(self, seed, k):
        points, query, rnd = _instance(seed)
        live = dict(enumerate(points))
        server = LocationServer.from_points(points, universe=UNIT)
        resp = server.answer(RKNNRequest(query, k=k))
        served = {e.oid for e in resp.result}
        assert _rknn_ok(live, query, served, k), (
            f"seed={seed} k={k}: reverse-kNN diverged from brute force")
        assert resp.region.contains(query, EPS)
        assert [e.oid for e in resp.result] == sorted(served)

    @given(seeds, ks)
    @settings(deadline=None, max_examples=25)
    def test_result_constant_inside_region(self, seed, k):
        points, query, rnd = _instance(seed)
        live = dict(enumerate(points))
        server = LocationServer.from_points(points, universe=UNIT)
        resp = server.answer(RKNNRequest(query, k=k))
        served = {e.oid for e in resp.result}
        for _ in range(12):
            probe = (query[0] + rnd.gauss(0.0, 0.02),
                     query[1] + rnd.gauss(0.0, 0.02))
            if not resp.region.contains(probe, -EPS):
                continue  # numerically on the boundary: no claim made
            assert _rknn_ok(live, probe, served, k), (
                f"seed={seed} k={k}: region claims {probe} but the "
                f"reverse-kNN set changed there")

    @given(seeds, ks)
    @settings(deadline=None, max_examples=20)
    def test_stale_served_answers_equal_recompute(self, seed, k):
        """A non-None shrunk stale region certifies the pre-mutation
        answer against a brute-force recompute on the mutated set."""
        points, query, rnd = _instance(seed, n=100)
        live = dict(enumerate(points))
        server = LocationServer.from_points(points, universe=UNIT)
        request = RKNNRequest(query, k=k)
        resp = server.answer(request)
        served = {e.oid for e in resp.result}
        pending = []
        for i in range(6):
            x = min(1.0, max(0.0, query[0] + rnd.gauss(0.0, 0.15)))
            y = min(1.0, max(0.0, query[1] + rnd.gauss(0.0, 0.15)))
            pending.append(Mutation("insert", len(points) + i, x, y))
        region = shrunk_stale_region(request, resp, pending, UNIT)
        if region is None:
            return  # refusing to serve stale is always sound
        mutated = dict(live)
        for m in pending:
            mutated[m.oid] = (m.x, m.y)
        assert region.contains(query, EPS)
        assert _rknn_ok(mutated, query, served, k), (
            f"seed={seed} k={k}: stale region certified a wrong answer")
        for _ in range(8):
            probe = (query[0] + rnd.gauss(0.0, 0.02),
                     query[1] + rnd.gauss(0.0, 0.02))
            if not region.contains(probe, -EPS):
                continue
            assert _rknn_ok(mutated, probe, served, k), (
                f"seed={seed} k={k}: stale region claims {probe} but "
                f"the answer changed there")

    @given(seeds, ks)
    @settings(deadline=None, max_examples=10)
    def test_cached_answers_survive_mutation_streams(self, seed, k):
        """Every answer out of the caching service — fresh or served
        from the validity cache — equals brute force over the live set."""
        points, query, rnd = _instance(seed, n=100)
        live = dict(enumerate(points))
        service = build_service(points, cache=CacheConfig(capacity=64))
        try:
            next_oid = len(points)
            pos = query
            for step in range(15):
                for _ in range(2):  # the repeat probes the cache
                    resp = service.answer(RKNNRequest(pos, k=k))
                    assert _rknn_ok(live, pos, {e.oid for e in resp.result},
                                    k), (f"seed={seed} k={k} step={step}: "
                                         f"cached reverse-kNN diverged")
                next_oid = _mutate(service, live, rnd, next_oid, pos)
                if step % 5 == 4:
                    pos = (min(1.0, max(0.0, pos[0] + rnd.gauss(0, 0.02))),
                           min(1.0, max(0.0, pos[1] + rnd.gauss(0, 0.02))))
        finally:
            service.close()

    @given(seeds, ks)
    @settings(deadline=None, max_examples=10)
    def test_subscription_tracks_brute_force(self, seed, k):
        """After every applied mutation, the subscription's state —
        patched in place or refreshed through the escape hatch — equals
        a brute-force recompute."""
        points, query, rnd = _instance(seed, n=100)
        live = dict(enumerate(points))
        service = build_service(points,
                                continuous=ContinuousConfig(margin=6))
        try:
            sub = service.subscribe(RKNNRequest(query, k=k))
            pos, next_oid = query, len(points)
            for step in range(20):
                next_oid = _mutate(service, live, rnd, next_oid, pos)
                if step % 7 == 6:  # the client wanders, too
                    pos = (min(1.0, max(0.0, pos[0] + rnd.gauss(0, 0.02))),
                           min(1.0, max(0.0, pos[1] + rnd.gauss(0, 0.02))))
                    sub.move(pos)
                current = _sync(sub, pos)
                served = {e.oid for e in current.result}
                assert _rknn_ok(live, pos, served, k), (
                    f"seed={seed} k={k} step={step}: subscription "
                    f"diverged from brute force at {pos}")
        finally:
            service.close()


def test_oracle_holds_on_a_sharded_server():
    """Reverse-kNN over a 2x2 sharded server: snapshot answers must
    agree with brute force under mutations."""
    rnd = random.Random(1337)
    points = [(rnd.random(), rnd.random()) for _ in range(200)]
    live = dict(enumerate(points))
    service = build_service(points, shards=2)
    try:
        next_oid = len(points)
        for step in range(6):
            next_oid = _mutate(service, live, rnd, next_oid, (0.5, 0.5),
                               spread=0.12)
            resp = service.answer(RKNNRequest((0.5, 0.5), k=3))
            assert _rknn_ok(live, (0.5, 0.5),
                            {e.oid for e in resp.result}, 3), (
                f"step {step}: sharded reverse-kNN diverged")
    finally:
        service.close()


def test_compute_function_handles_tiny_datasets():
    """Fewer than k+1 objects: everyone has an infinite threshold, so
    every object is a reverse neighbour and the region is unbounded-ish
    (clamped to the universe diagonal)."""
    points = [(0.2, 0.2), (0.8, 0.8)]
    detail = compute_rknn_validity(
        LocationServer.from_points(points, universe=UNIT).tree.points(),
        (0.5, 0.5), k=5, universe=UNIT)
    assert {e.oid for e in detail.members} == {0, 1}
    assert detail.safety_radius > 0.0
