"""Equivalence of geometry kernels, and sound sharded regions.

The :class:`~repro.kernel.ExecutionConfig` contract is that *how* a
query executes never changes *what* it answers: the ``scalar`` and
``numpy`` kernels return the same neighbour lists, and each kernel's
validity region is *sound* — at random probe points inside it, the
brute-force answer equals the cached one (the oracle style of
tests/core/test_validity_oracle.py).  The same oracle checks a window
region merged across a thread-pool shard fleet.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.server import LocationServer
from repro.geometry import Rect
from repro.kernel import ExecutionConfig, resolve_kernel_name
from repro.service.shard import ShardedServer
from repro.core.api import KNNRequest, RangeRequest, WindowRequest

from tests.conftest import UNIT, brute_knn_set, brute_window

seeds = st.integers(min_value=0, max_value=2**31 - 1)
coords = st.floats(min_value=0.02, max_value=0.98)
ks = st.integers(min_value=1, max_value=6)

N = 300


def _points(seed: int, n: int = N):
    rnd = random.Random(seed)
    return [(rnd.random(), rnd.random()) for _ in range(n)]


# ----------------------------------------------------------------------
# kernels: scalar vs numpy on a single-tree server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kernel_servers():
    points = _points(101)
    return points, {
        name: LocationServer.from_points(
            points, universe=UNIT, execution=ExecutionConfig(kernel=name))
        for name in ("scalar", "numpy")
    }


class TestKernelEquivalence:
    @given(qx=coords, qy=coords, k=ks)
    @settings(deadline=None, max_examples=25)
    def test_knn_results_and_sound_regions(self, kernel_servers,
                                           qx, qy, k):
        points, servers = kernel_servers
        responses = {name: server.answer(KNNRequest((qx, qy), k=k))
                     for name, server in servers.items()}
        baseline = responses["scalar"]
        expected = [e.oid for e in baseline.result]
        rnd = random.Random(int(qx * 1e6) ^ int(qy * 1e6) ^ k)
        for name, resp in responses.items():
            assert [e.oid for e in resp.result] == expected, name
            region = resp.region
            assert region.contains((qx, qy)), name
            # Soundness oracle: anywhere inside the shipped region the
            # brute-force kNN set must equal the cached one.
            cached = set(expected)
            for _ in range(8):
                angle = rnd.uniform(0.0, 2.0 * math.pi)
                # Walk outward until we exit the region; probe inside.
                step = 0.02
                probe = (qx + step * math.cos(angle),
                         qy + step * math.sin(angle))
                while not region.contains(probe) and step > 1e-5:
                    step /= 2.0
                    probe = (qx + step * math.cos(angle),
                             qy + step * math.sin(angle))
                if not region.contains(probe):
                    continue
                got = brute_knn_set(points, probe, k)
                if got != cached:
                    # Tolerate exact distance ties at the k-boundary.
                    dists = sorted(math.dist(p, probe) for p in points)
                    assert math.isclose(dists[k - 1], dists[k],
                                        rel_tol=1e-9, abs_tol=1e-12), (
                        f"{name}: result changed inside region at {probe}")

    @given(qx=coords, qy=coords)
    @settings(deadline=None, max_examples=15)
    def test_window_and_range_match_scalar(self, kernel_servers, qx, qy):
        points, servers = kernel_servers
        baseline = servers["scalar"]
        w = baseline.answer(WindowRequest((qx, qy), 0.2, 0.15))
        r = baseline.answer(RangeRequest((qx, qy), 0.1))
        for name, server in servers.items():
            if name == "scalar":
                continue
            w2 = server.answer(WindowRequest((qx, qy), 0.2, 0.15))
            r2 = server.answer(RangeRequest((qx, qy), 0.1))
            assert [e.oid for e in w2.result] == [e.oid for e in w.result]
            assert [e.oid for e in r2.result] == [e.oid for e in r.result]
            assert (w2.detail.conservative_region
                    == w.detail.conservative_region)
            assert r2.detail.validity_radius == pytest.approx(
                r.detail.validity_radius)


@pytest.mark.parametrize("execution, charged", [
    (None, True),
    (ExecutionConfig(), True),
    (ExecutionConfig(kernel="numpy"), False),
    (ExecutionConfig(kernel="auto"), False),
])
def test_the_execution_config_picks_the_knn_path(execution, charged):
    """A single-tree server answers kNN on the tree (charging node
    accesses) unless its ``execution`` picks the numpy kernel."""
    server = LocationServer.from_points(_points(303), universe=UNIT,
                                        execution=execution)
    server.answer(KNNRequest((0.5, 0.5), k=3))
    assert (server.io_stats.total_node_accesses > 0) == charged


# ----------------------------------------------------------------------
# a window region merged across a thread-pool shard fleet
# ----------------------------------------------------------------------
def test_sharded_window_region_soundness():
    points = _points(202, n=600)
    rnd = random.Random(7)
    with ShardedServer.from_points(
            points, grid=3, universe=UNIT,
            execution=ExecutionConfig(kernel="auto", workers=2)) as server:
        # One focus inside a cell, one on a corner where four meet.
        responses = [server.answer(WindowRequest(focus, 0.25, 0.2))
                     for focus in ((0.5, 0.5), (0.34, 0.34))]
    assert responses[1].detail.shards_queried == 4
    for response in responses:
        rect = response.detail.conservative_region
        cached = sorted(e.oid for e in response.result)
        for _ in range(15):
            probe = (rnd.uniform(rect.xmin, rect.xmax),
                     rnd.uniform(rect.ymin, rect.ymax))
            if (min(probe[0] - rect.xmin, rect.xmax - probe[0]) < 1e-9
                    or min(probe[1] - rect.ymin, rect.ymax - probe[1])
                    < 1e-9):
                continue
            moved = Rect(probe[0] - 0.125, probe[1] - 0.1,
                         probe[0] + 0.125, probe[1] + 0.1)
            assert brute_window(points, moved) == cached


# ----------------------------------------------------------------------
# auto-kernel resolution
# ----------------------------------------------------------------------
class TestKernelResolution:
    def test_auto_resolves_by_availability(self):
        assert resolve_kernel_name("auto") == "numpy"
        assert ExecutionConfig(kernel="auto").resolved_kernel() == "numpy"
