"""Oracle property tests: the paper's validity-region guarantee itself.

The central claim of the paper is a *spatial contract*: anywhere inside
the validity region shipped with a result, that result is still the
correct answer.  These properties check the contract directly against
brute-force oracles — random probe points are drawn inside the returned
region (convex combinations of its polygon vertices for NN regions,
uniform samples for window rectangles), and at every probe the
linear-scan answer must match the cached one.

Ties are handled the way the contract means them: at a probe point the
cached kNN set is "unchanged" iff its farthest member is no farther
than the nearest excluded point (up to float slack) — on a tie either
set is a correct answer.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core import compute_nn_validity, compute_window_validity
from repro.core.api import KNNRequest, QueryBudget
from repro.core.server import LocationServer
from repro.geometry import Rect
from repro.index import bulk_load_str

from tests.conftest import UNIT, brute_window

EPS = 1e-9

seeds = st.integers(min_value=0, max_value=2**31 - 1)
ks = st.integers(min_value=1, max_value=6)


def _instance(seed: int, n: int = 150):
    rnd = random.Random(seed)
    points = [(rnd.random(), rnd.random()) for _ in range(n)]
    query = (rnd.random(), rnd.random())
    return points, query, rnd


def _interior_probes(polygon, rnd: random.Random, num: int = 12):
    """Random strict convex combinations of the polygon's vertices.

    A convex combination of vertices with positive weights lies in the
    polygon (convexity); shrinking towards the centroid keeps probes
    off the boundary, where the answer legitimately changes.
    """
    verts = polygon.vertices
    if len(verts) < 3:
        return []
    cx, cy = polygon.centroid()
    probes = []
    for _ in range(num):
        weights = [rnd.random() + 1e-6 for _ in verts]
        total = sum(weights)
        px = sum(w * v[0] for w, v in zip(weights, verts)) / total
        py = sum(w * v[1] for w, v in zip(weights, verts)) / total
        probes.append((0.999 * px + 0.001 * cx, 0.999 * py + 0.001 * cy))
    return probes


def _knn_set_unchanged(points, probe, cached_ids, eps=EPS) -> bool:
    """Is ``cached_ids`` a correct kNN answer at ``probe`` (tie-aware)?"""
    dist = [math.dist(p, probe) for p in points]
    farthest_cached = max(dist[i] for i in cached_ids)
    nearest_excluded = min(
        (dist[i] for i in range(len(points)) if i not in cached_ids),
        default=math.inf)
    return farthest_cached <= nearest_excluded + eps


class TestNNRegionOracle:
    @given(seeds, ks)
    @settings(deadline=None, max_examples=25)
    def test_knn_set_constant_inside_region(self, seed, k):
        points, query, rnd = _instance(seed)
        tree = bulk_load_str(points, capacity=8)
        detail = compute_nn_validity(tree, query, k=k, universe=UNIT)
        cached = {e.oid for e in detail.neighbors}
        assert len(cached) == k
        region = detail.validity_region(UNIT)
        assert region.contains(query, eps=EPS)
        for probe in _interior_probes(region.polygon(), rnd):
            if not region.contains(probe, eps=-EPS):
                continue  # numerically on the boundary: no claim made
            assert _knn_set_unchanged(points, probe, cached), (
                f"kNN set changed inside the validity region at {probe} "
                f"(seed={seed}, k={k})")

    @given(seeds, ks)
    @settings(deadline=None, max_examples=25)
    def test_degraded_safe_disk_honours_the_same_contract(self, seed, k):
        """The budget-exhausted safe disk is a *subset* guarantee — the
        identical oracle must hold inside it."""
        points, query, rnd = _instance(seed, n=120)
        server = LocationServer(bulk_load_str(points, capacity=8),
                                universe=UNIT)
        resp = server.answer(KNNRequest(
            query, k=k, budget=QueryBudget(max_node_accesses=1)))
        assert resp.detail.degraded
        cached = {e.oid for e in resp.result}
        radius = resp.region.radius
        for i in range(10):
            angle = rnd.uniform(0.0, 2.0 * math.pi)
            rho = radius * math.sqrt(rnd.random()) * 0.99
            probe = (query[0] + rho * math.cos(angle),
                     query[1] + rho * math.sin(angle))
            assert _knn_set_unchanged(points, probe, cached), (
                f"kNN set changed inside the degraded safe disk at {probe} "
                f"(seed={seed}, k={k})")


class TestWindowRegionOracle:
    @given(seeds,
           st.floats(min_value=0.05, max_value=0.4),
           st.floats(min_value=0.05, max_value=0.4))
    @settings(deadline=None, max_examples=25)
    def test_window_result_constant_inside_minkowski_rect(self, seed, w, h):
        points, focus, rnd = _instance(seed)
        tree = bulk_load_str(points, capacity=8)
        detail = compute_window_validity(tree, focus, w, h, universe=UNIT)
        cached = sorted(e.oid for e in detail.result)
        rect = detail.conservative_region
        assert rect.contains_point(focus)
        for _ in range(12):
            # Uniform probes strictly inside the conservative rectangle.
            probe = (rnd.uniform(rect.xmin, rect.xmax),
                     rnd.uniform(rect.ymin, rect.ymax))
            if (min(probe[0] - rect.xmin, rect.xmax - probe[0]) < EPS
                    or min(probe[1] - rect.ymin, rect.ymax - probe[1]) < EPS):
                continue
            moved = Rect(probe[0] - w / 2.0, probe[1] - h / 2.0,
                         probe[0] + w / 2.0, probe[1] + h / 2.0)
            assert brute_window(points, moved) == cached, (
                f"window result changed inside the validity rect at {probe} "
                f"(seed={seed}, w={w}, h={h})")

    @given(seeds)
    @settings(deadline=None, max_examples=15)
    def test_exact_region_membership_matches_brute_force(self, seed):
        """The exact (rectilinear) region agrees with re-running the
        query: inside → same result; outside (but in the inner rect,
        i.e. inside a hole) → different result."""
        points, focus, rnd = _instance(seed)
        w = h = 0.25
        tree = bulk_load_str(points, capacity=8)
        detail = compute_window_validity(tree, focus, w, h, universe=UNIT)
        if detail.exact_region_is_lower_bound:
            return  # downgraded: only the conservative guarantee holds
        cached = sorted(e.oid for e in detail.result)
        inner = detail.inner_region
        for _ in range(20):
            probe = (rnd.uniform(inner.xmin, inner.xmax),
                     rnd.uniform(inner.ymin, inner.ymax))
            moved = Rect(probe[0] - w / 2.0, probe[1] - h / 2.0,
                         probe[0] + w / 2.0, probe[1] + h / 2.0)
            same = brute_window(points, moved) == cached
            # Skip probes within float slack of a hole edge: hole
            # boundaries are where the answer legitimately flips.
            near_edge = any(
                h.contains_point(probe, eps=EPS)
                and not h.contains_point_open(probe, eps=EPS)
                for h in detail.exact_region.holes)
            if near_edge:
                continue
            assert detail.exact_region.contains(probe) == same, (
                f"exact-region membership disagrees with the oracle at "
                f"{probe} (seed={seed})")
