"""The mutation certificate across the full stack, against brute force.

Every mutation-facing path derives from one hook per kind,
:meth:`~repro.core.api.QuerySemantics.certify`, which returns the
answer after the mutations: the validity cache keeps an entry iff it
returns the entry's own answer, a lagging replica serves the region of
a copy that keeps its result (``shrunk_stale_region``), and a
subscription pushes whatever it returns.  These
properties run all five kinds through ``build_service`` with a cache
and two replicas lagging by up to two mutations, and check:

* every answer after a stream of nearby mutations — cache hits and
  bounded-stale replica reads included — equals brute force;
* a subscription whose first answer is a cache hit computed at another
  point equals brute force after every mutation;
* a polling and an incremental (§7 delta) mobile client of every kind
  the delta protocol serves, walking in and out of the data's MBR over
  the default universe of two lagging replicas, with inserts near
  them, answer every update as brute force does;
* ``certify`` and ``shrunk_stale_region`` agree with the per-kind rules
  they replaced wherever those were sound (kNN with k = 1, window,
  fresh probabilistic-kNN answers), and keep every range entry the old
  minimum-distance test kept.  The old rules are kept below as
  references.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CacheConfig,
    ContinuousConfig,
    KNNRequest,
    MobileClient,
    RangeRequest,
    ReplicaConfig,
    WindowRequest,
    build_service,
)
from repro.core.api import Mutation, query_semantics
from repro.core.probknn import ProbKNNRequest
from repro.core.rknn import RKNNRequest
from repro.core.server import LocationServer
from repro.core.validity import CompositeValidityRegion, NNValidityRegion
from repro.geometry import Rect, bisector_halfplane
from repro.geometry.rect import _cut_away
from repro.index.entry import LeafEntry
from repro.service.staleness import shrunk_stale_region

UNIT = Rect(0.0, 0.0, 1.0, 1.0)
KINDS = ("knn", "window", "range", "rknn", "probknn")
MARGIN = ContinuousConfig().margin

seeds = st.integers(min_value=0, max_value=2**31 - 1)
ks = st.integers(min_value=1, max_value=4)


def _instance(seed: int, n: int = 100):
    rnd = random.Random(seed)
    points = [(rnd.random(), rnd.random()) for _ in range(n)]
    center = (0.3 + 0.4 * rnd.random(), 0.3 + 0.4 * rnd.random())
    return points, center, rnd


def _request(kind: str, location, k: int):
    if kind == "knn":
        return KNNRequest(location, k=k)
    if kind == "window":
        return WindowRequest(location, 0.12, 0.08)
    if kind == "range":
        return RangeRequest(location, 0.08)
    if kind == "rknn":
        return RKNNRequest(location, k=k)
    return ProbKNNRequest(location, uncertainty=0.01, k=k)


def _service(points):
    return build_service(
        points, universe=UNIT, cache=CacheConfig(capacity=64), replicas=2,
        replica=ReplicaConfig(replication_lag=2, default_max_stale=2))


def _clamp(v: float) -> float:
    return min(1.0, max(0.0, v))


def _near(center, rnd, sigma):
    return (_clamp(center[0] + rnd.gauss(0.0, sigma)),
            _clamp(center[1] + rnd.gauss(0.0, sigma)))


def _mutate(service, live, rnd, next_oid, center):
    """Delete one of the objects nearest ``center``, or insert near it."""
    if live and rnd.random() < 0.4:
        near = sorted(live, key=lambda i: math.dist(live[i], center))[:8]
        oid = rnd.choice(near)
        x, y = live.pop(oid)
        assert service.delete_object(oid, x, y)
        return next_oid
    x, y = _near(center, rnd, 0.05)
    service.insert_object(next_oid, x, y)
    live[next_oid] = (x, y)
    return next_oid + 1


def _assert_brute_force(live, request, result, where: str):
    entries = [LeafEntry(oid, x, y) for oid, (x, y) in live.items()]
    must, may = query_semantics(request).oracle(entries, request)
    ids = {e.oid for e in result}
    assert must <= ids <= may, (
        f"{request.kind} {where}: missing {sorted(must - ids)}, "
        f"extra {sorted(ids - may)}")


def _inside(region, center, rnd):
    """A point of ``region`` other than ``center`` (``center`` if none
    turns up)."""
    for _ in range(200):
        p = _near(center, rnd, 0.01)
        if p != center and region.contains(p):
            return p
    return center


def _assert_region(live, kind, k, response, rnd, where: str, probes=4):
    """Brute force agrees at random points of the response's region —
    every position a client holding it answers from its cache."""
    box = response.region.mbr()
    box = UNIT if box is None else box.intersection(UNIT) or UNIT
    found = 0
    for _ in range(50):
        p = (box.xmin + rnd.random() * (box.xmax - box.xmin),
             box.ymin + rnd.random() * (box.ymax - box.ymin))
        if response.region.contains(p):
            _assert_brute_force(live, _request(kind, p, k), response.result,
                                f"{where}, at {p} in its region")
            found += 1
            if found == probes:
                return


# ----------------------------------------------------------------------
# the full stack against brute force
# ----------------------------------------------------------------------
@given(seeds, ks, st.sampled_from(KINDS))
@settings(max_examples=25, deadline=None)
def test_answers_after_a_mutation_stream_equal_brute_force(seed, k, kind):
    points, center, rnd = _instance(seed)
    service = _service(points)
    live = dict(enumerate(points))
    next_oid = len(points)
    try:
        for step in range(10):
            for _ in range(3):
                request = _request(kind, _near(center, rnd, 0.02), k)
                hits = service.cache.hits
                response = service.answer(request)
                how = "cache hit" if service.cache.hits > hits else "answer"
                _assert_brute_force(live, request, response.result,
                                    f"{how} after {step} mutations")
                _assert_region(live, kind, k, response, rnd,
                               f"{how} after {step} mutations")
            next_oid = _mutate(service, live, rnd, next_oid, center)
    finally:
        service.close()


def _sync(sub, at):
    """What a client holds after draining: an invalidate, or a region
    that no longer covers it, sends it through the escape hatch."""
    updates = sub.drain()
    if ((updates and updates[-1].kind == "invalidate")
            or not sub.response.region.contains(at)):
        sub.move(at)
    return sub.response


@given(seeds, ks, st.sampled_from(KINDS))
@settings(max_examples=25, deadline=None)
def test_subscription_from_a_cache_hit_tracks_brute_force(seed, k, kind):
    points, center, rnd = _instance(seed)
    service = _service(points)
    live = dict(enumerate(points))
    next_oid = len(points)
    try:
        # The subscription's own fetch (k + margin for kNN) is what the
        # cache must hold for the first answer to be a hit.
        fetch_k = k + MARGIN if kind == "knn" else k
        cached = service.answer(_request(kind, center, fetch_k))
        at = _inside(cached.region, center, rnd)
        hits = service.cache.hits
        sub = service.subscribe(_request(kind, at, k))
        assert service.cache.hits == hits + 1
        _assert_brute_force(live, _request(kind, at, k),
                            sub.response.result, "subscribed from a cache hit")
        for step in range(10):
            next_oid = _mutate(service, live, rnd, next_oid, center)
            held = _sync(sub, at)
            where = f"subscription after {step + 1} mutations"
            _assert_brute_force(live, _request(kind, at, k), held.result,
                                where)
            _assert_region(live, kind, k, held, rnd, where)
    finally:
        service.close()


# ----------------------------------------------------------------------
# mobile clients of a lagging replica, in and out of the data's MBR
# ----------------------------------------------------------------------
#: The data fill the middle of the unit square the clients walk, so the
#: service universe — the data's MBR — leaves a border of it uncovered.
DATA_LO, DATA_HI = 0.2, 0.8
WALK_SEEDS, WALK_UPDATES, INSERT_EVERY = 2, 200, 10


def _ask(client, request):
    """``request`` as the mobile client's own call."""
    if request.kind == "knn":
        return client.knn(request.location, k=request.k)
    if request.kind == "window":
        return client.window(request.focus, request.width, request.height)
    return client.range(request.location, request.radius)


@pytest.mark.parametrize("kind", ["knn", "window", "range"])
def test_clients_of_a_lagging_replica_equal_brute_force(kind):
    """The follower lags two inserts behind and serves up to two stale,
    so every answer it gives rests on a certified shrink, and a client
    caches the shrunk region — the incremental one too, whose answer
    is a delta.  Outside the data's MBR a kNN region must still hold
    the query point, or ``certify`` tests inserts against a box without
    it."""
    outside = 0
    for seed in range(WALK_SEEDS):
        rnd = random.Random(seed)
        points = [(DATA_LO + (DATA_HI - DATA_LO) * rnd.random(),
                   DATA_LO + (DATA_HI - DATA_LO) * rnd.random())
                  for _ in range(300)]
        live = dict(enumerate(points))
        next_oid = len(points)
        with build_service(points, replicas=2, replica=ReplicaConfig(
                replication_lag=2, default_max_stale=2)) as service:
            clients = {"polling": MobileClient(service),
                       "incremental": MobileClient(service,
                                                   incremental=True)}
            at = (rnd.random(), rnd.random())
            for step in range(WALK_UPDATES):
                at = (_clamp(at[0] + rnd.uniform(-0.02, 0.02)),
                      _clamp(at[1] + rnd.uniform(-0.02, 0.02)))
                outside += not service.universe.contains_point(at)
                if step % INSERT_EVERY == 0:
                    x = at[0] + rnd.uniform(-0.1, 0.1)
                    y = at[1] + rnd.uniform(-0.1, 0.1)
                    service.insert_object(next_oid, x, y)
                    live[next_oid] = (x, y)
                    next_oid += 1
                request = _request(kind, at, 2)
                for name, client in clients.items():
                    _assert_brute_force(
                        live, request, _ask(client, request),
                        f"{name} client, seed {seed}, update {step}")
            assert service.server.stale_served > 0
    assert outside > 0


# ----------------------------------------------------------------------
# the rules certify replaced, as references
# ----------------------------------------------------------------------
def _old_cache_survives(kind, request, response, m) -> bool:
    """``cache_survives`` of the builtin kinds before v3.0."""
    if m.op == "delete" and kind != "probknn":
        return all(e.oid != m.oid for e in response.result)
    mbr = response.region.mbr()
    if kind == "knn":
        if len(response.result) < request.k:
            return False
        corners = mbr.corners()
        for neighbor in response.result:
            if neighbor.x == m.x and neighbor.y == m.y:
                return False
            halfplane = bisector_halfplane(neighbor.point, (m.x, m.y))
            if not all(halfplane.contains(c) for c in corners):
                return False
        return True
    if kind == "window":
        zone = Rect(m.x - request.width / 2.0, m.y - request.height / 2.0,
                    m.x + request.width / 2.0, m.y + request.height / 2.0)
        return not zone.intersects(mbr)
    if kind == "range":
        return mbr.mindist((m.x, m.y)) > request.radius
    slack = _old_probknn_slack(response, m)
    return (slack is not None
            and slack / 2.0 >= response.detail.safety_radius)


def _old_probknn_slack(response, m):
    detail = response.detail
    if m.op == "delete" and m.oid in {e.oid for e in response.result}:
        return None
    cx, cy = detail.query
    d_m = math.hypot(m.x - cx, m.y - cy)
    slack = d_m - (detail.kth_distance + 2.0 * detail.uncertainty)
    for d_o in detail.distances:
        slack = min(slack, d_m - (d_o + 2.0 * detail.uncertainty))
    return slack if slack > 0.0 else None


def _old_stale_region(kind, request, response, pending):
    """``stale_region`` of kNN, window and probabilistic kNN before
    v3.0."""
    if kind == "probknn":
        rho = response.detail.safety_radius
        for m in pending:
            slack = _old_probknn_slack(response, m)
            if slack is None:
                return None
            rho = min(rho, slack / 2.0)
        return rho
    ids = {e.oid for e in response.result}
    if any(m.op == "delete" and m.oid in ids for m in pending):
        return None
    inserts = [m for m in pending if m.op == "insert"]
    if kind == "knn":
        if not inserts:
            return response.region
        pairs = [(n, m.entry) for m in inserts for n in response.result]
        fence = NNValidityRegion(pairs, UNIT)
        if not fence.contains(request.location):
            return None
        return CompositeValidityRegion([response.region, fence])
    hw, hh = request.width / 2.0, request.height / 2.0
    rect = response.region.rect
    for m in inserts:
        zone = Rect(m.x - hw, m.y - hh, m.x + hw, m.y + hh)
        if zone.contains_point(request.focus):
            return None
        if zone.intersects(rect):
            rect = _cut_away(rect, zone, request.focus)
    return rect


def _mutations(points, response, center, rnd, count):
    out = []
    for i in range(count):
        if rnd.random() < 0.3:
            victim = (rnd.choice(response.result) if response.result
                      and rnd.random() < 0.5 else None)
            if victim is None:
                oid = rnd.randrange(len(points))
                victim = LeafEntry(oid, *points[oid])
            out.append(Mutation("delete", victim.oid, victim.x, victim.y))
        else:
            x, y = _near(center, rnd, 0.05)
            out.append(Mutation("insert", len(points) + i, x, y))
    return out


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_certify_agrees_with_the_rules_it_replaced(seed):
    points, center, rnd = _instance(seed)
    server = LocationServer.from_points(points, universe=UNIT)
    for kind in ("knn", "window", "range", "probknn"):
        request = _request(kind, _near(center, rnd, 0.02), 1)
        response = server.answer(request)
        sem = query_semantics(request)
        for m in _mutations(points, response, center, rnd, 12):
            kept = sem.certify(request, response, (m,), UNIT) is response
            old = _old_cache_survives(kind, request, response, m)
            if kind == "range":
                assert kept or not old, (kind, m)  # the disk keeps more
            else:
                assert kept == old, (kind, m)
        if kind == "range":
            continue
        for _ in range(4):
            pending = _mutations(points, response, center, rnd,
                                 rnd.randint(1, 3))
            new = shrunk_stale_region(request, response, pending, UNIT)
            old = _old_stale_region(kind, request, response, pending)
            assert (new is None) == (old is None), (kind, pending)
            if new is None:
                continue
            if kind == "window":
                assert new.mbr() == old, (kind, pending)
            elif kind == "probknn":
                assert new.outer == old, (kind, pending)
            else:
                box = response.region.mbr()
                for _ in range(20):
                    p = (box.xmin + rnd.random() * (box.xmax - box.xmin),
                         box.ymin + rnd.random() * (box.ymax - box.ymin))
                    assert new.contains(p) == old.contains(p), (p, pending)
