"""Soundness of stale-served validity regions (:mod:`repro.service.staleness`).

The property under test is the replicated tier's correctness contract:
for any dataset, any pending-mutation backlog and any query, the region
returned by :func:`shrunk_stale_region` is contained in the *fresh*
oracle's validity region — every probe point inside the shrunk region
must yield, against the fresh dataset (stale + backlog applied), exactly
the stale result that was served.  Hypothesis drives datasets, backlogs
and queries; probe points are sampled from the shrunk region itself.
``None`` (unserveable) is always a sound answer, so only returned
regions are checked.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.api import KNNRequest, RangeRequest, Response, WindowRequest
from repro.core.server import LocationServer
from repro.core.validity import NNValidityRegion
from repro.geometry import Rect
from repro.index.entry import LeafEntry
from repro.service.staleness import Mutation, ServedResponse, shrunk_stale_region

UNIT = Rect(0.0, 0.0, 1.0, 1.0)
EPS = 1e-9


# ----------------------------------------------------------------------
# strategies: a stale dataset plus a pending backlog over it
# ----------------------------------------------------------------------
def _coord():
    # A lattice keeps coordinates exact and collisions detectable.
    return st.integers(1, 199).map(lambda v: v / 200.0)


@st.composite
def stale_worlds(draw):
    """(stale_points, pending) — oids 0..n-1 stale, 1000+ for inserts."""
    n = draw(st.integers(8, 24))
    coords = draw(st.lists(st.tuples(_coord(), _coord()),
                           min_size=n, max_size=n, unique=True))
    stale = {i: xy for i, xy in enumerate(coords)}
    pending = []
    used = set(coords)
    for j in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            xy = draw(st.tuples(_coord(), _coord()))
            if xy in used:
                continue
            used.add(xy)
            pending.append(Mutation("insert", 1000 + j, xy[0], xy[1]))
        else:
            oid = draw(st.integers(0, n - 1))
            if any(m.oid == oid for m in pending):
                continue
            x, y = stale[oid]
            pending.append(Mutation("delete", oid, x, y))
    assume(pending)
    return stale, pending


def _fresh(stale, pending):
    fresh = dict(stale)
    for m in pending:
        if m.op == "insert":
            fresh[m.oid] = (m.x, m.y)
        else:
            fresh.pop(m.oid, None)
    return fresh


def _probes(region, q):
    """The query point plus a grid sample of the region's MBR."""
    out = [q]
    try:
        box = region.mbr()
    except ValueError:
        return out
    for i in range(1, 4):
        for j in range(1, 4):
            p = (box.xmin + i * (box.xmax - box.xmin) / 4.0,
                 box.ymin + j * (box.ymax - box.ymin) / 4.0)
            if region.contains(p):
                out.append(p)
    return out


def _knn_at(fresh, p, k):
    ranked = sorted((math.dist(xy, p), oid) for oid, xy in fresh.items())
    if len(ranked) > k and ranked[k][0] - ranked[k - 1][0] < EPS:
        return None  # tie at the boundary: oracle undefined
    return {oid for _, oid in ranked[:k]}


# ----------------------------------------------------------------------
# the containment property, per query type
# ----------------------------------------------------------------------
#: q = (0.925, 0.365) is tied between result 7 and non-result 5 (their
#: squared distances differ by 2e-17); the region once held a point
#: whose 2-NN is {5, 7} (see tests/core/test_nn_validity.py).
_TIED_WORLD = ({i: xy for i, xy in enumerate([
    (0.005, 0.005), (0.005, 0.01), (0.005, 0.015), (0.005, 0.44),
    (0.01, 0.005), (0.715, 0.31), (0.73, 0.32), (0.79, 0.535)])},
    [Mutation("delete", 3, 0.005, 0.44)])


@settings(max_examples=60, deadline=None)
@given(world=stale_worlds(), qx=_coord(), qy=_coord(),
       k=st.integers(1, 4))
@example(world=_TIED_WORLD, qx=0.925, qy=0.365, k=2)
def test_stale_knn_region_contained_in_fresh_oracle(world, qx, qy, k):
    stale, pending = world
    server = LocationServer.from_points(
        [stale[i] for i in range(len(stale))], universe=UNIT)
    request = KNNRequest((qx, qy), k=k)
    response = server.answer(request)
    region = shrunk_stale_region(request, response, pending, UNIT)
    if region is None:
        return  # unserveable is always sound
    served = {e.oid for e in response.result}
    fresh = _fresh(stale, pending)
    for p in _probes(region, (qx, qy)):
        oracle = _knn_at(fresh, p, k)
        if oracle is not None:
            assert oracle == served, f"probe {p}: {oracle} != {served}"


@settings(max_examples=60, deadline=None)
@given(world=stale_worlds(), fx=_coord(), fy=_coord(),
       w=st.integers(2, 40).map(lambda v: v / 100.0),
       h=st.integers(2, 40).map(lambda v: v / 100.0))
def test_stale_window_region_contained_in_fresh_oracle(world, fx, fy, w, h):
    stale, pending = world
    server = LocationServer.from_points(
        [stale[i] for i in range(len(stale))], universe=UNIT)
    request = WindowRequest((fx, fy), w, h)
    response = server.answer(request)
    region = shrunk_stale_region(request, response, pending, UNIT)
    if region is None:
        return
    served = {e.oid for e in response.result}
    fresh = _fresh(stale, pending)
    for p in _probes(region, (fx, fy)):
        win = Rect(p[0] - w / 2, p[1] - h / 2, p[0] + w / 2, p[1] + h / 2)
        if any(abs(abs(x - p[0]) - w / 2) < EPS
               or abs(abs(y - p[1]) - h / 2) < EPS
               for x, y in fresh.values()):
            continue  # a fresh point sits on the window edge: undefined
        oracle = {oid for oid, xy in fresh.items() if win.contains_point(xy)}
        assert oracle == served, f"probe {p}: {oracle} != {served}"


@settings(max_examples=60, deadline=None)
@given(world=stale_worlds(), qx=_coord(), qy=_coord(),
       r=st.integers(2, 30).map(lambda v: v / 100.0))
def test_stale_range_region_contained_in_fresh_oracle(world, qx, qy, r):
    stale, pending = world
    server = LocationServer.from_points(
        [stale[i] for i in range(len(stale))], universe=UNIT)
    request = RangeRequest((qx, qy), r)
    response = server.answer(request)
    region = shrunk_stale_region(request, response, pending, UNIT)
    if region is None:
        return
    served = {e.oid for e in response.result}
    fresh = _fresh(stale, pending)
    for p in _probes(region, (qx, qy)):
        if any(abs(math.dist(xy, p) - r) < EPS for xy in fresh.values()):
            continue  # a fresh point sits on the range boundary
        oracle = {oid for oid, xy in fresh.items()
                  if math.dist(xy, p) <= r}
        assert oracle == served, f"probe {p}: {oracle} != {served}"


# ----------------------------------------------------------------------
# deterministic unserveable / passthrough cases
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_server():
    pts = [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8), (0.3, 0.6)]
    return LocationServer.from_points(pts, universe=UNIT)


def test_empty_backlog_returns_region_unchanged(small_server):
    request = KNNRequest((0.5, 0.5), k=1)
    response = small_server.answer(request)
    assert shrunk_stale_region(request, response, [], UNIT) is response.region


def test_pending_delete_of_knn_member_is_unserveable(small_server):
    request = KNNRequest((0.31, 0.61), k=1)
    response = small_server.answer(request)
    victim = response.result[0]
    pending = [Mutation("delete", victim.oid, victim.x, victim.y)]
    assert shrunk_stale_region(request, response, pending, UNIT) is None


def test_pending_insert_at_query_point_is_unserveable(small_server):
    request = KNNRequest((0.5, 0.5), k=1)
    response = small_server.answer(request)
    pending = [Mutation("insert", 99, 0.5, 0.5)]
    assert shrunk_stale_region(request, response, pending, UNIT) is None


def test_pending_insert_inside_window_is_unserveable(small_server):
    request = WindowRequest((0.5, 0.5), 0.4, 0.4)
    response = small_server.answer(request)
    pending = [Mutation("insert", 99, 0.55, 0.45)]
    assert shrunk_stale_region(request, response, pending, UNIT) is None


def test_pending_insert_in_range_is_unserveable(small_server):
    request = RangeRequest((0.5, 0.5), 0.2)
    response = small_server.answer(request)
    pending = [Mutation("insert", 99, 0.6, 0.5)]
    assert shrunk_stale_region(request, response, pending, UNIT) is None


def test_underfull_knn_answer_with_a_pending_insert_is_unserveable():
    """Fewer than k objects means every insert joins the answer: the
    third neighbour of the fresh dataset is the pending insert, however
    far it lands."""
    server = LocationServer.from_points([(0.2, 0.2), (0.3, 0.25)],
                                        universe=UNIT)
    request = KNNRequest((0.25, 0.22), k=3)
    response = server.answer(request)
    assert len(response.result) == 2
    pending = [Mutation("insert", 99, 0.9, 0.9)]
    assert shrunk_stale_region(request, response, pending, UNIT) is None


def test_insert_near_an_empty_clip_knn_region_is_unserveable():
    """An empty clip parks its MBR at the universe corner, yet its
    ``contains`` accepts the bisector line: the corner test proves
    nothing about it, so a pending insert beside the query point must
    still be caught."""
    a, b = LeafEntry(0, 0.4, 0.5), LeafEntry(1, 0.6, 0.5)
    region = NNValidityRegion([(a, b), (b, a)], UNIT)  # the line x = 0.5
    request = KNNRequest((0.5, 0.9), k=1)
    response = Response([a], region, None)
    assert region.contains(request.location)
    pending = [Mutation("insert", 2, 0.5, 0.88)]
    assert shrunk_stale_region(request, response, pending, UNIT) is None


def test_far_insert_shrinks_range_validity(small_server):
    request = RangeRequest((0.2, 0.2), 0.1)
    response = small_server.answer(request)
    pending = [Mutation("insert", 99, 0.9, 0.9)]
    region = shrunk_stale_region(request, response, pending, UNIT)
    assert region is not None
    assert region.radius <= response.region.radius
    d = math.dist((0.9, 0.9), (0.2, 0.2))
    assert region.radius <= d - 0.1 + 1e-12


def test_mutation_validates_op():
    with pytest.raises(ValueError):
        Mutation("upsert", 1, 0.5, 0.5)


def test_served_response_proxies_inner(small_server):
    """A replica's answer is the response it computed, annotated; a
    ``replace`` (the cache's kNN re-ranking) keeps the annotation."""
    request = KNNRequest((0.5, 0.5), k=2)
    response = small_server.answer(request)
    served = ServedResponse(**vars(response), replica_id=1, epoch=3,
                            staleness=2, valid_for_epoch=5, failovers=1)
    assert isinstance(served, Response)
    assert served.result == response.result
    assert served.detail is response.detail
    assert served.region is response.region
    assert served.transfer_bytes() == response.transfer_bytes()
    assert served.entry_bytes == response.entry_bytes
    copy = replace(served, result=served.result[::-1])
    assert type(copy) is ServedResponse
    assert copy.staleness == 2 and copy.replica_id == 1
