"""The reach pre-test keeps exactly the entries the full scan keeps.

``ValidityCache.invalidate_mutation`` re-stamps an entry without a
``certify`` call when the mutation point lies outside the kind's
``reach`` box.  That must be a pure speed-up: ``_FullScanCache`` below
keeps the previous scan — one ``certify`` call per entry — and
Hypothesis drives twin caches through the same admits, probes, raw
epoch bumps and mutations, asserting after every step the same
surviving entries, the same surgical counters and the same probe
results.

The responses are every shape tests/service/test_cache_probe_parity.py
draws: plain, sharded composite, replica-served, stale-shrunk, an empty
kNN clip and an infinite range.  Mutation points sit on and 1e-12 to
1e-3 outside each side of an admitted entry's reach box, far away,
at NaN, at a member (deleted) and on a lattice.  An end-to-end twin
runs the same traffic through a sharded, replicated service and checks
every cache hit against the brute-force oracle.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core.api import (
    KNNRequest,
    Mutation,
    RangeRequest,
    WindowRequest,
    query_semantics,
)
from repro.core.server import LocationServer
from repro.index.entry import LeafEntry
from repro.service import CacheConfig, ValidityCache, build_service
from repro.service.shard import ShardedServer

from tests.service.test_cache_probe_parity import (
    UNIT,
    _SHAPES,
    _anchors,
    _lattice,
    _request,
    _response,
    datasets,
)


class _FullScanCache(ValidityCache):
    """The mutation scan before reach boxes: ``certify`` on every entry
    (reference)."""

    def invalidate_mutation(self, op, oid, x, y, epoch):
        mutations = (Mutation(op, oid, float(x), float(y)),)
        universe = self.universe
        dropped = survived = 0
        with self._lock:
            for entry in list(self._entries.values()):
                response = entry.response
                if (entry.epoch == epoch - 1
                        and query_semantics(entry.request).certify(
                            entry.request, response, mutations, universe)
                        is response):
                    entry.epoch = epoch
                    survived += 1
                else:
                    self._remove(entry)
                    dropped += 1
            self.surgical_drops += dropped
            self.surgical_survivals += survived
            if dropped:
                self.invalidations += 1
        return dropped


# ----------------------------------------------------------------------
# mutation points around an entry's reach box
# ----------------------------------------------------------------------
_OUTSIDE = (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
_FAR = ((1e3, 0.5), (-1e3, 0.5), (0.5, 1e3), (0.5, -1e3), (1e6, -1e6))


def _near_reach(draw, request, response):
    """A point on or just outside one side of the entry's reach box,
    or near its region when it has no bounded box."""
    box = query_semantics(request).reach(request, response)
    if box is None or not all(map(math.isfinite, box)):
        anchors = _anchors(response.region) or [(0.5, 0.5)]
        ax, ay = draw(st.sampled_from(anchors))
        d = draw(st.sampled_from(_OUTSIDE))
        return ax + d * draw(st.sampled_from([-1, 1])), ay
    t = draw(st.sampled_from([0.0, 0.5, 1.0])
             | st.floats(0.0, 1.0, allow_nan=False))
    d = draw(st.sampled_from(_OUTSIDE))
    x = box.xmin + t * (box.xmax - box.xmin)
    y = box.ymin + t * (box.ymax - box.ymin)
    side = draw(st.sampled_from(["left", "right", "bottom", "top"]))
    if side == "left":
        return box.xmin - d, y
    if side == "right":
        return box.xmax + d, y
    if side == "bottom":
        return x, box.ymin - d
    return x, box.ymax + d


def _mutation(draw, points, admitted, step):
    """``(op, oid, x, y)`` of one mutation aimed at the admitted entries."""
    how = draw(st.sampled_from(
        ["reach", "reach", "reach", "member", "far", "nan", "lattice"]))
    if how == "member" and admitted:
        _r, response = draw(st.sampled_from(admitted))
        members = list(response.result) or [LeafEntry(0, *points[0])]
        victim = draw(st.sampled_from(members))
        return "delete", victim.oid, victim.x, victim.y
    if how == "reach" and admitted:
        request, response = draw(st.sampled_from(admitted))
        x, y = _near_reach(draw, request, response)
    elif how == "far":
        x, y = draw(st.sampled_from(_FAR))
    elif how == "nan":
        x, y = draw(st.sampled_from([(math.nan, 0.5), (0.5, math.nan)]))
    else:
        x, y = draw(st.tuples(_lattice(40), _lattice(40)))
    # A delete of a non-member: certify keeps every answer for it.
    op = draw(st.sampled_from(["insert", "delete"]))
    return op, 30_000 + step, x, y


def _assert_twins(cache, reference):
    assert list(cache._entries) == list(reference._entries)
    assert ([e.epoch for e in cache._entries.values()]
            == [e.epoch for e in reference._entries.values()])
    for counter in ("surgical_drops", "surgical_survivals", "invalidations",
                    "hits", "misses", "evictions"):
        assert getattr(cache, counter) == getattr(reference, counter), counter


@settings(max_examples=150, deadline=None)
@given(points=datasets(), data=st.data())
def test_reach_scan_keeps_what_the_full_scan_keeps(points, data):
    server = LocationServer.from_points(points, universe=UNIT)
    sharded = ShardedServer.from_points(points, grid=2, universe=UNIT)
    config = CacheConfig(capacity=data.draw(st.integers(1, 12)),
                         grid=data.draw(st.sampled_from([1, 4, 16])))
    cache, reference = (ValidityCache(UNIT, config),
                        _FullScanCache(UNIT, config))
    epoch = 0
    admitted = []
    for step in range(data.draw(st.integers(4, 30))):
        op = data.draw(st.sampled_from(
            ["admit", "admit", "probe", "mutate", "mutate", "mutate",
             "bump"]))
        if op == "admit":
            shape = data.draw(st.sampled_from(_SHAPES))
            location = data.draw(st.tuples(_lattice(40), _lattice(40)))
            request = _request(shape, location)
            response = _response(data.draw, (server, sharded), points,
                                 shape, location, request)
            assert (cache.admit(request, response, epoch)
                    == reference.admit(request, response, epoch))
            admitted.append((request, response))
        elif op == "probe" and admitted:
            request, response = data.draw(st.sampled_from(admitted))
            for p in [query_semantics(request).location(request)] + _anchors(
                    response.region)[:4]:
                probe = query_semantics(request).refetch_request(request, p)
                assert cache.probe(probe, epoch) is reference.probe(
                    probe, epoch)
        elif op == "mutate":
            epoch += 1
            args = _mutation(data.draw, points, admitted, step)
            assert (cache.invalidate_mutation(*args, epoch=epoch)
                    == reference.invalidate_mutation(*args, epoch=epoch))
        elif op == "bump":
            epoch += 1
        _assert_twins(cache, reference)
    sharded.close()


# ----------------------------------------------------------------------
# end to end: a sharded, replicated stack under writes
# ----------------------------------------------------------------------
def _oracle_ok(request, response, live):
    entries = [LeafEntry(oid, x, y) for oid, (x, y) in live.items()]
    must, may = query_semantics(request).oracle(entries, request)
    ids = {e.oid for e in response.result}
    return must <= ids <= may


def test_cache_under_writes_matches_the_full_scan_end_to_end():
    """Answers interleaved with inserts and deletes near the cached
    regions: both caches keep the same entries, and every hit is the
    brute-force answer at the probing point."""
    rng = random.Random(28)
    points = [(rng.random(), rng.random()) for _ in range(600)]
    config = CacheConfig(capacity=256, grid=8)
    stacks = []
    for cache_type in (ValidityCache, _FullScanCache):
        service = build_service(points, universe=UNIT, shards=2, replicas=2,
                                cache=config)
        service.cache = cache_type(service.cache.universe, config)
        stacks.append(service)
    live = {i: p for i, p in enumerate(points)}
    # Six clients walking in small steps around their own spots.
    walkers = [[rng.random(), rng.random()] for _ in range(6)]
    hits = 0
    try:
        for step in range(400):
            walker = rng.choice(walkers)
            for axis in (0, 1):
                walker[axis] = min(1.0, max(0.0, walker[axis]
                                            + rng.gauss(0.0, 0.004)))
            x, y = walker
            roll = rng.random()
            if roll < 0.15:
                oid = 10_000 + step
                x += rng.gauss(0.0, 0.05)
                y += rng.gauss(0.0, 0.05)
                for service in stacks:
                    service.insert_object(oid, x, y)
                live[oid] = (x, y)
            elif roll < 0.25:
                oid = min(live, key=lambda o: math.dist(live[o], (x, y)))
                for service in stacks:
                    assert service.delete_object(oid, *live[oid])
                del live[oid]
            else:
                request = rng.choice([
                    KNNRequest((x, y), k=rng.randint(1, 4)),
                    WindowRequest((x, y), 0.1, 0.08),
                    RangeRequest((x, y), 0.06)])
                before = stacks[0].cache.hits
                answers = [service.answer(request) for service in stacks]
                assert ({e.oid for e in answers[0].result}
                        == {e.oid for e in answers[1].result})
                if stacks[0].cache.hits > before:
                    hits += 1
                    assert _oracle_ok(request, answers[0], live)
            cache, reference = (s.cache for s in stacks)
            assert list(cache._entries) == list(reference._entries)
            assert (cache.snapshot()["surgical_drops"],
                    cache.snapshot()["surgical_survivals"]) == (
                reference.surgical_drops, reference.surgical_survivals)
        assert hits > 20
        assert stacks[0].cache.surgical_survivals > 0
        assert stacks[0].cache.surgical_drops > 0
    finally:
        for service in stacks:
            service.close()
