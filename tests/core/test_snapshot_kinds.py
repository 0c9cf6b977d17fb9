"""The snapshot kinds (reverse-kNN, probabilistic kNN) over numpy.

``compute_rknn_validity`` and ``compute_probknn_validity`` answer in a
few numpy passes over a :class:`~repro.kernel.columns.PointColumns`
snapshot.  The reference below is the per-entry loop they replaced:
the vectorized versions must return the same member, candidate and
result lists and the same bands, with every value equal up to last-ulp
rounding.  Distances and radii may differ in the last ulp (numpy
squares by multiplication where Python's ``** 2`` goes through libm
``pow``, and ``math.hypot`` rounds once where ``sqrt(dx*dx + dy*dy)``
rounds three times), so they agree to 1e-12 relative; a safety radius
or a probability is a difference of two such distances, so it agrees to
a few ulps of the distances it was taken from.

The lifecycle tests pin the snapshot itself: one object per dataset
epoch on both server types, fresh after every update, and never built
by the tree-answered kinds on the scalar kernel.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random

import pytest

from repro import ExecutionConfig
from repro.core.probknn import ProbKNNRequest, compute_probknn_validity
from repro.core.rknn import RKNNRequest, compute_rknn_validity
from repro.core.api import KNNRequest, RangeRequest, WindowRequest
from repro.core.server import LocationServer
from repro.geometry import Rect
from repro.index.entry import LeafEntry
from repro.kernel.columns import PointColumns
from repro.service.shard import ShardedServer

REL = 1e-12
#: A few ulps, as a fraction of the distances a difference comes from.
ULPS = 1e-15


# ----------------------------------------------------------------------
# the reference: the per-entry loops the numpy passes replaced
# ----------------------------------------------------------------------
def _reference_rknn(entries, location, k, universe):
    q = (float(location[0]), float(location[1]))
    diag = math.hypot(universe.width, universe.height)
    sectors = [[] for _ in range(6)]
    dist_q = {}
    for e in entries:
        d = math.hypot(e.x - q[0], e.y - q[1])
        dist_q[e.oid] = d
        angle = math.atan2(e.y - q[1], e.x - q[0]) % (2.0 * math.pi)
        sectors[min(int(angle / (math.pi / 3.0)), 5)].append((d, e.oid, e))
    candidates = []
    for bucket in sectors:
        bucket.sort()
        candidates.extend(e for _d, _o, e in bucket[:k])
    candidates.sort(key=lambda e: e.oid)
    candidate_ids = {c.oid for c in candidates}

    members, member_knn, candidate_radii = [], {}, {}
    for c in candidates:
        knn = [math.sqrt(v) for v in heapq.nsmallest(
            k, ((e.x - c.x) ** 2 + (e.y - c.y) ** 2
                for e in entries if e.oid != c.oid))]
        radius = knn[k - 1] if len(knn) >= k else math.inf
        candidate_radii[c.oid] = radius
        if dist_q[c.oid] < radius:
            members.append(c)
            member_knn[c.oid] = tuple(knn)

    slacks = [dist_q[c.oid] - candidate_radii[c.oid]
              for c in candidates if c.oid not in member_knn]
    for e in entries:
        if e.oid in candidate_ids:
            continue
        m_o = heapq.nsmallest(
            k, ((e.x - c.x) ** 2 + (e.y - c.y) ** 2 for c in candidates))
        slacks.append(dist_q[e.oid] - math.sqrt(m_o[k - 1]))
    rho = min(slacks) if slacks else diag
    rho = max(0.0, min(rho, diag))
    return members, member_knn, candidates, candidate_radii, rho


def _reference_probknn(entries, location, u, k, universe):
    center = (float(location[0]), float(location[1]))
    diag = math.hypot(universe.width, universe.height)
    dist = [math.hypot(e.x - center[0], e.y - center[1]) for e in entries]
    if not entries:
        return [], math.inf, (), (), (), diag
    order = sorted(range(len(entries)),
                   key=lambda i: (dist[i], entries[i].oid))
    sorted_d = sorted(dist)
    d_k = sorted_d[min(k, len(entries)) - 1]
    horizon = d_k + 2.0 * u
    result, distances, probabilities, bands, slacks = [], [], [], [], []
    for i in order:
        d_o = dist[i]
        if d_o > horizon:
            slacks.append(d_o - horizon)
            continue
        result.append(entries[i])
        distances.append(d_o)
        slacks.append(horizon - d_o)
        rivals = bisect.bisect_left(sorted_d, d_o + 2.0 * u) - 1
        if rivals <= k - 1:
            bands.append("certain")
        elif d_o <= d_k + u:
            bands.append("likely")
        else:
            bands.append("possible")
        probabilities.append(min(1.0, max(0.0,
                                          (horizon - d_o) / (2.0 * u))))
        t = d_o + 2.0 * u
        j = bisect.bisect_left(sorted_d, t)
        if j < len(sorted_d):
            slacks.append(sorted_d[j] - t)
        if j > 0:
            slacks.append(t - sorted_d[j - 1])
        slacks.append(abs(d_o - (d_k + u)))
    for a, b in zip(distances, distances[1:]):
        slacks.append(b - a)
    rho = min(slacks) / 2.0 if slacks else diag
    rho = max(0.0, min(rho, diag))
    return (result, d_k, tuple(distances), tuple(probabilities),
            tuple(bands), rho)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _entries(points):
    return [LeafEntry(oid, float(x), float(y))
            for oid, (x, y) in enumerate(points)]


def _grid_cases():
    """Tie-heavy: an exactly representable 7x7 lattice (every distance
    tie is a tie in floating point too), queried on lattice points,
    half-steps and quarter-steps."""
    step = 0.125
    entries = _entries([(i * step, j * step)
                        for i in range(7) for j in range(7)])
    universe = Rect(0.0, 0.0, 6 * step, 6 * step)
    queries = [(a * step / 4, b * step / 4)
               for a in range(0, 25, 3) for b in range(0, 25, 5)]
    return [(entries, universe, q) for q in queries]


def _boundary_cases(rnd):
    """Points placed on the six 60-degree sector edges around the query,
    at several radii, among random filler."""
    cases = []
    for _ in range(6):
        q = (0.3 + 0.4 * rnd.random(), 0.3 + 0.4 * rnd.random())
        points = []
        for edge in range(6):
            theta = edge * math.pi / 3.0
            for r in (0.05, 0.1, 0.1, 0.2):
                points.append((q[0] + r * math.cos(theta),
                               q[1] + r * math.sin(theta)))
        points += [(rnd.random(), rnd.random()) for _ in range(12)]
        rnd.shuffle(points)
        cases.append((_entries(points), Rect(-0.5, -0.5, 1.5, 1.5), q))
    return cases


def _random_cases(rnd, k):
    cases = []
    for n in sorted({0, 1, 2, k, k + 1, 150}):
        for _ in range(3):
            points = [(rnd.random(), rnd.random()) for _ in range(n)]
            q = (rnd.random(), rnd.random())
            cases.append((_entries(points), Rect(0.0, 0.0, 1.0, 1.0), q))
    return cases


def _all_cases(k):
    rnd = random.Random(1000 + k)
    return _grid_cases() + _boundary_cases(rnd) + _random_cases(rnd, k)


def _close(a, b, scale=0.0):
    return a == b or math.isclose(a, b, rel_tol=REL, abs_tol=ULPS * scale)


def _ids(entries):
    return [e.oid for e in entries]


# ----------------------------------------------------------------------
# reference parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rknn_matches_the_per_entry_reference(k):
    for entries, universe, q in _all_cases(k):
        members, member_knn, candidates, radii, rho = _reference_rknn(
            entries, q, k, universe)
        detail = compute_rknn_validity(PointColumns(entries), q, k,
                                       universe=universe)
        where = f"k={k} n={len(entries)} q={q}"
        assert _ids(detail.candidates) == _ids(candidates), where
        assert _ids(detail.members) == _ids(members), where
        assert list(detail.member_knn) == list(member_knn), where
        for oid, knn in member_knn.items():
            got = detail.member_knn[oid]
            assert len(got) == len(knn), where
            assert all(map(_close, got, knn)), where
        assert list(detail.candidate_radii) == list(radii), where
        assert all(_close(detail.candidate_radii[o], r)
                   for o, r in radii.items()), where
        diag = math.hypot(universe.width, universe.height)
        assert _close(detail.safety_radius, rho, diag), (
            where, detail.safety_radius, rho)
        assert detail.num_points == len(entries)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_probknn_matches_the_per_entry_reference(k):
    for entries, universe, q in _all_cases(k):
        # 0.0625 makes d + 2u land exactly on lattice distances.
        for u in (0.0625, 0.01 + random.Random(k).random() * 0.1):
            result, d_k, dists, probs, bands, rho = _reference_probknn(
                entries, q, u, k, universe)
            got, detail = compute_probknn_validity(
                iter(entries), q, u, k, universe=universe)
            where = f"k={k} u={u} n={len(entries)} q={q}"
            diag = math.hypot(universe.width, universe.height)
            assert _ids(got) == _ids(result), where
            assert detail.bands == bands, where
            assert _close(detail.kth_distance, d_k), where
            assert len(detail.distances) == len(dists), where
            assert all(map(_close, detail.distances, dists)), where
            assert all(_close(a, b, diag / u) for a, b in zip(
                detail.probabilities, probs)), where
            assert _close(detail.safety_radius, rho, diag), (
                where, detail.safety_radius, rho)


# ----------------------------------------------------------------------
# snapshot lifecycle
# ----------------------------------------------------------------------
UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def _points(n=120, seed=3):
    rnd = random.Random(seed)
    return [(rnd.random(), rnd.random()) for _ in range(n)]


@pytest.fixture(params=["location", "sharded-thread"])
def server(request):
    if request.param == "location":
        yield LocationServer.from_points(_points(), universe=UNIT)
        return
    with ShardedServer.from_points(
            _points(), grid=2, universe=UNIT,
            execution=ExecutionConfig(backend="thread",
                                      kernel="scalar")) as sharded:
        yield sharded


def test_one_snapshot_per_epoch(server):
    first = server.dataset_columns()
    assert server.dataset_columns() is first
    assert len(first) == server.num_points
    server.insert_object(1000, 0.5, 0.5)
    inserted = server.dataset_columns()
    assert inserted is not first
    assert server.dataset_columns() is inserted
    assert 1000 in inserted.oids
    assert server.delete_object(1000, 0.5, 0.5)
    deleted = server.dataset_columns()
    assert deleted is not inserted
    assert 1000 not in deleted.oids
    assert sorted(e.oid for e in server.dataset_entries()) == sorted(
        deleted.oids)


def test_snapshot_kinds_see_an_insert_at_once(server):
    q = (0.42, 0.61)
    server.answer(RKNNRequest(q, k=1))
    server.answer(ProbKNNRequest(q, uncertainty=0.01, k=1))
    # 1e-4 from q: q is nearer to it than any data object is (a
    # reverse neighbour), and it is q's nearest object (a candidate).
    server.insert_object(1000, q[0] + 1e-4, q[1])
    rknn = server.answer(RKNNRequest(q, k=1))
    probknn = server.answer(ProbKNNRequest(q, uncertainty=0.01, k=1))
    assert 1000 in {e.oid for e in rknn.result}
    assert 1000 in {e.oid for e in probknn.result}


def test_tree_kinds_on_the_scalar_kernel_leave_it_unbuilt(server,
                                                          monkeypatch):
    builds = []
    original = PointColumns.from_tree.__func__
    monkeypatch.setattr(PointColumns, "from_tree", classmethod(
        lambda cls, tree: builds.append(tree) or original(cls, tree)))
    q = (0.42, 0.61)
    server.answer(KNNRequest(q, k=3))
    server.answer(WindowRequest(q, 0.1, 0.1))
    server.answer(RangeRequest(q, 0.1))
    assert builds == []
    server.answer(RKNNRequest(q, k=1))
    assert builds
