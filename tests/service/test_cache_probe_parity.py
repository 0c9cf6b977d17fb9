"""The shape-keyed probe returns exactly what the cell scan returned.

:class:`ValidityCache` files each entry under ``(cell, cache key)`` and
tests the entry's slack-widened MBR before the exact
``region.contains``.  Both are pure speed-ups: the probe must still hit
the newest same-shape entry whose region holds the point, and miss
whenever the old scan missed.  ``_ReferenceCache`` below keeps the
previous implementation — one bucket per cell holding every shape,
``contains`` on each same-shape entry — and Hypothesis drives twin
caches through the same admits, probes, surgical mutations, raw epoch
bumps and LRU evictions.

The regions cover every shape the service admits: kNN regions (k up to
3, and empty clips whose polygon vanished while ``contains`` still
accepts the bisector line), window regions, range regions (including
the infinite radius whose ``mbr()`` is ``None``), sharded
``CompositeValidityRegion``s and replica ``ServedResponse`` wrappers.
Probes sit at region vertices, on edges, and just outside them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.core.api import (
    KNNRequest,
    QueryResponse,
    RangeRequest,
    WindowRequest,
)
from repro.core.range_validity import RangeValidityRegion
from repro.core.server import KNNResponse, LocationServer, RangeResponse
from repro.core.validity import CompositeValidityRegion, NNValidityRegion
from repro.geometry import Point, Rect
from repro.index.entry import LeafEntry
from repro.service import CacheConfig, ValidityCache
from repro.service.cache import _Entry, request_key, request_location
from repro.service.shard import ShardedServer
from repro.service.staleness import Mutation, ServedResponse, shrunk_stale_region

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


class _ReferenceCache(ValidityCache):
    """The cell-keyed cache the shape-keyed one replaced (reference)."""

    def probe(self, request, epoch: int) -> Optional[QueryResponse]:
        key = request_key(request)
        if key is None or self.config.capacity == 0:
            return None
        location = request_location(request)
        cell = self.universe.grid_index(location, self.config.grid,
                                        self.config.grid)
        with self._lock:
            bucket = self._grid.get(cell)
            if bucket:
                stale = []
                hit: Optional[_Entry] = None
                # Newest entries first: fresher regions, hotter answers.
                for entry in reversed(bucket.values()):
                    if entry.epoch != epoch:
                        stale.append(entry)
                        continue
                    if (entry.key == key
                            and entry.response.region.contains(location)):
                        hit = entry
                        break
                for entry in stale:
                    self._remove(entry)
                if hit is not None:
                    self._entries.move_to_end(hit.uid)
                    self.hits += 1
                    return hit.response
            self.misses += 1
            return None

    def admit(self, request, response, epoch: int) -> bool:
        key = request_key(request)
        if key is None or self.config.capacity == 0:
            return False
        if (not self.config.admit_degraded
                and bool(getattr(response.detail, "degraded", False))):
            return False
        mbr_of = getattr(response.region, "mbr", None)
        mbr = mbr_of() if mbr_of is not None else None
        if mbr is None:  # unbounded region: clamp to the universe
            mbr = self.universe
        n = self.config.grid
        ix0, iy0, ix1, iy1 = self.universe.grid_range(mbr, n, n)
        cells = tuple((ix, iy)
                      for ix in range(ix0, ix1 + 1)
                      for iy in range(iy0, iy1 + 1))
        with self._lock:
            self._uids += 1
            entry = _Entry(self._uids, key, response, epoch, cells, mbr,
                           None)
            self._entries[entry.uid] = entry
            for cell in cells:
                self._grid.setdefault(cell, {})[entry.uid] = entry
            self.insertions += 1
            while len(self._entries) > self.config.capacity:
                _, oldest = self._entries.popitem(last=False)
                self._unlink(oldest)
                self.evictions += 1
        return True

    def _unlink(self, entry: _Entry) -> None:
        for cell in entry.cells:
            bucket = self._grid.get(cell)
            if bucket is not None:
                bucket.pop(entry.uid, None)
                if not bucket:
                    del self._grid[cell]


# ----------------------------------------------------------------------
# regions and the points that probe them
# ----------------------------------------------------------------------
def _lattice(steps: int):
    return st.integers(0, steps).map(lambda v: v / steps)


@st.composite
def datasets(draw):
    # A coarse lattice makes ties, collinear triples and shared
    # bisectors common; a fine one makes thin slivers.
    steps = draw(st.sampled_from([8, 20, 200]))
    pts = draw(st.lists(st.tuples(_lattice(steps), _lattice(steps)),
                        min_size=6, max_size=30, unique=True))
    return pts


_SHAPES = (("knn", 1), ("knn", 2), ("knn", 3),
           ("window", 0.2, 0.1), ("window", 0.05, 0.3),
           ("range", 0.1), ("range", 0.25), ("range", 5.0))


def _request(shape, location):
    if shape[0] == "knn":
        return KNNRequest(location, k=shape[1])
    if shape[0] == "window":
        return WindowRequest(location, shape[1], shape[2])
    return RangeRequest(location, shape[1])


def _empty_clip(points):
    """A kNN response whose region is two opposite bisector half-planes:
    the clipped polygon is empty, yet ``contains`` accepts points on the
    shared bisector line."""
    a, b = (LeafEntry(i, *points[i]) for i in range(2))
    region = NNValidityRegion([(a, b), (b, a)], UNIT)
    return KNNResponse(neighbors=[a], region=region, detail=None)


def _unbounded(location):
    """A range response valid everywhere (an empty dataset's answer)."""
    region = RangeValidityRegion(Point(*location), math.inf)
    return RangeResponse(result=[], region=region, detail=None)


def _response(draw, servers, points, shape, location, request):
    server, sharded = servers
    how = draw(st.sampled_from(
        ["plain", "sharded", "served", "stale", "empty"]))
    if how == "empty" and shape == ("knn", 1):
        return _empty_clip(points)
    if how == "empty" and shape[0] == "range":
        return _unbounded(location)
    if how == "sharded":
        return sharded.answer(request)
    response = server.answer(request)
    if how == "served":
        return ServedResponse(response, replica_id=1)
    if how == "stale":
        x, y = draw(st.tuples(_lattice(40), _lattice(40)).filter(
            lambda xy: xy not in points))
        pending = [Mutation("insert", 10_000, x, y)]
        region = shrunk_stale_region(request, response, pending, UNIT)
        if region is not None:
            return ServedResponse(response, region=region, replica_id=1,
                                  staleness=1)
    return response


def _anchors(region):
    """Vertices and edge midpoints of ``region`` (and its parts)."""
    if isinstance(region, CompositeValidityRegion):
        out = []
        for component in region.components:
            out.extend(_anchors(component))
        return out
    out = []
    if isinstance(region, NNValidityRegion):
        verts = list(region.polygon().vertices)
        out.extend(verts)
        out.extend(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
                   for a, b in zip(verts, verts[1:] + verts[:1]))
        # Midpoints of the pairs lie on the bisectors themselves — the
        # only points an empty clip's ``contains`` accepts.
        out.extend(((r.x + o.x) / 2.0, (r.y + o.y) / 2.0)
                   for r, o in region.pairs)
    box = region.mbr() if hasattr(region, "mbr") else None
    if box is not None:
        corners = [(box.xmin, box.ymin), (box.xmax, box.ymin),
                   (box.xmax, box.ymax), (box.xmin, box.ymax)]
        out.extend(corners)
        out.extend(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
                   for a, b in zip(corners, corners[1:] + corners[:1]))
    return out


_NUDGES = (0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 3e-6)


def _probe_points(draw, region, location):
    anchors = [location] + _anchors(region)
    out = []
    for _ in range(draw(st.integers(1, 6))):
        ax, ay = draw(st.sampled_from(anchors))
        if draw(st.booleans()):  # on the anchor itself
            out.append((ax, ay))
            continue
        dx = draw(st.sampled_from(_NUDGES)) * draw(st.sampled_from([-1, 1]))
        dy = draw(st.sampled_from(_NUDGES)) * draw(st.sampled_from([-1, 1]))
        out.append((ax + dx, ay + dy))
    return out


def _stale(cache: ValidityCache, epoch: int) -> bool:
    return any(e.epoch != epoch for e in cache._entries.values())


@settings(max_examples=150, deadline=None)
@given(points=datasets(), data=st.data())
def test_probe_matches_reference_scan(points, data):
    server = LocationServer.from_points(points, universe=UNIT)
    sharded = ShardedServer.from_points(points, grid=2, universe=UNIT)
    config = CacheConfig(capacity=data.draw(st.integers(1, 8)),
                         grid=data.draw(st.sampled_from([1, 2, 4, 16])),
                         admit_degraded=data.draw(st.booleans()))
    cache, reference = ValidityCache(UNIT, config), _ReferenceCache(UNIT,
                                                                    config)
    epoch = 0
    admitted = []
    # Raw epoch bumps leave stale entries; the two caches drop them on
    # different probes, and evict differently while they linger, so
    # sizes and eviction counts are compared only before the first.
    ever_stale = False
    for _ in range(data.draw(st.integers(4, 30))):
        op = data.draw(st.sampled_from(
            ["admit", "admit", "probe", "probe", "probe", "mutate", "bump"]))
        if op == "admit":
            if admitted and data.draw(st.booleans()):
                # The same query again: overlapping same-shape regions,
                # so the newest-first order decides the hit.
                shape, location, _r = data.draw(st.sampled_from(admitted))
            else:
                shape = data.draw(st.sampled_from(_SHAPES))
                location = data.draw(st.tuples(_lattice(40), _lattice(40)))
            request = _request(shape, location)
            response = _response(data.draw, (server, sharded), points,
                                 shape, location, request)
            assert (cache.admit(request, response, epoch)
                    == reference.admit(request, response, epoch))
            admitted.append((shape, location, response))
        elif op == "probe" and admitted:
            shape, location, response = data.draw(st.sampled_from(admitted))
            if data.draw(st.booleans()):  # another shape at the same spot
                shape = data.draw(st.sampled_from(_SHAPES))
            for p in _probe_points(data.draw, response.region, location):
                request = _request(shape, p)
                assert cache.probe(request, epoch) is reference.probe(
                    request, epoch)
        elif op == "mutate":
            epoch += 1
            if admitted and data.draw(st.booleans()):
                _s, _l, response = data.draw(st.sampled_from(admitted))
                members = list(response.result) or [LeafEntry(0, *points[0])]
                victim = data.draw(st.sampled_from(members))
                args = ("delete", victim.oid, victim.x, victim.y)
            else:
                x, y = data.draw(st.tuples(_lattice(40), _lattice(40)))
                args = ("insert", 20_000 + epoch, x, y)
            dropped = (cache.invalidate_mutation(*args, epoch=epoch),
                       reference.invalidate_mutation(*args, epoch=epoch))
            assert ever_stale or dropped[0] == dropped[1]
        elif op == "bump":
            epoch += 1
            ever_stale = ever_stale or len(cache) > 0
        assert (cache.hits, cache.misses) == (reference.hits,
                                              reference.misses)
        if not ever_stale:
            assert not _stale(cache, epoch) and not _stale(reference, epoch)
            assert len(cache) == len(reference)
            assert cache.evictions == reference.evictions
    sharded.close()


def _crossing(h1, h2):
    """The exact intersection of two half-plane boundary lines."""
    a1, b1, c1 = (Fraction(v) for v in h1)
    a2, b2, c2 = (Fraction(v) for v in h2)
    det = a1 * b2 - a2 * b1
    return (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det


def test_pretest_never_rejects_what_contains_accepts_on_needles():
    """Two bisectors meeting at a shallow angle bound a needle whose
    clipped tip vertex rounding moves along the needle, ~1 ulp / angle.
    Every point between that vertex and the exact tip that ``contains``
    accepts must still pass the widened MBR."""
    cache = ValidityCache(UNIT, CacheConfig(capacity=64, grid=4))
    r = LeafEntry(0, 0.2, 0.5)
    checked = 0
    for e in range(2, 17):
        # a above r and b below it: the two bisectors meet at angle
        # ~2h near x = 0.7, closing a needle of the region.
        h = 10.0 ** (-e / 2.0)
        a = LeafEntry(1, r.x, r.y + h)
        b = LeafEntry(2, r.x + 2.0 * h * h, r.y - h)
        region = NNValidityRegion([(r, a), (r, b)], UNIT)
        cache.admit(KNNRequest((r.x, r.y), k=1),
                    KNNResponse(neighbors=[r], region=region, detail=None), 0)
        box = next(reversed(cache._entries.values())).box
        tx, ty = _crossing(*region.halfplanes)
        for vx, vy in region.polygon().vertices:
            if abs(vx - float(tx)) > 1e-3:
                continue  # not the needle's tip
            for i in range(0, 65):
                t = Fraction(i, 64)
                p = (float(vx + t * (tx - Fraction(vx))),
                     float(vy + t * (ty - Fraction(vy))))
                if region.contains(p):
                    checked += 1
                    assert box[0] <= p[0] <= box[2]
                    assert box[1] <= p[1] <= box[3]
    assert checked > 100


def test_unbounded_and_degenerate_regions_skip_the_pretest():
    points = [(0.0, 0.0), (0.25, 0.0)]  # bisector x = 0.125, exactly
    cache = ValidityCache(UNIT, CacheConfig(capacity=8, grid=4))
    everything = RangeRequest((0.5, 0.5), 5.0)
    cache.admit(everything, _unbounded((0.5, 0.5)), 0)
    empty = _empty_clip(points)
    assert empty.region.polygon().is_empty
    cache.admit(KNNRequest((0.0, 0.0), k=1), empty, 0)
    assert [e.box for e in cache._entries.values()] == [None, None]
    # The infinite disk answers from outside the universe too.
    assert cache.probe(RangeRequest((7.0, -3.0), 5.0), 0) is not None
    # The empty clip still answers on its bisector line.
    on_line = (0.125, 0.1)
    assert empty.region.contains(on_line)
    assert cache.probe(KNNRequest(on_line, k=1), 0) is empty
