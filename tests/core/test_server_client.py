"""Tests for the server/client protocol layer."""

import math
import random

import pytest

from repro.geometry import Rect
from repro.index import bulk_load_str
from repro.core import LocationServer, MobileClient
from repro.core.api import KNNRequest, WindowRequest
from repro.core.validity import NNValidityRegion, WindowValidityRegion
from tests.conftest import brute_knn_set, brute_window

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


class TestLocationServer:
    def test_from_points_builds_tree(self, uniform_1k):
        server = LocationServer.from_points(uniform_1k, universe=UNIT)
        assert len(server.tree) == len(uniform_1k)

    def test_from_points_with_buffer(self, uniform_1k):
        server = LocationServer.from_points(uniform_1k, universe=UNIT,
                                            buffer_fraction=0.1)
        assert server.tree.disk.buffer is not None

    def test_knn_query_response(self, small_tree, uniform_1k):
        server = LocationServer(small_tree, UNIT)
        resp = server.answer(KNNRequest((0.5, 0.5), k=3))
        assert {e.oid for e in resp.result} == brute_knn_set(
            uniform_1k, (0.5, 0.5), 3)
        assert resp.region.contains((0.5, 0.5))
        assert resp.transfer_bytes() > 0
        assert server.queries_processed == 1

    def test_window_query_response(self, small_tree, uniform_1k):
        server = LocationServer(small_tree, UNIT)
        resp = server.answer(WindowRequest((0.5, 0.5), 0.1, 0.1))
        assert sorted(e.oid for e in resp.result) == brute_window(
            uniform_1k, Rect.around((0.5, 0.5), 0.1, 0.1))
        assert resp.region.contains((0.5, 0.5))
        assert resp.transfer_bytes() >= 32

    def test_io_stats_accumulate(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        server.reset_io_stats()
        server.answer(KNNRequest((0.3, 0.3)))
        assert server.io_stats.total_node_accesses > 0
        server.reset_io_stats()
        assert server.io_stats.total_node_accesses == 0

    def test_universe_defaults_to_data_mbr(self, small_tree):
        server = LocationServer(small_tree)
        assert server.universe == small_tree.root.mbr


class TestMobileClient:
    def test_cache_hit_inside_region(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        first = client.knn((0.5, 0.5), k=1)
        # A micro-step almost surely stays inside the validity region.
        second = client.knn((0.5 + 1e-7, 0.5), k=1)
        assert [e.oid for e in first] == [e.oid for e in second]
        assert client.stats.server_queries == 1
        assert client.stats.cache_answers == 1

    def test_cache_miss_on_far_jump(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        client.knn((0.1, 0.1), k=1)
        client.knn((0.9, 0.9), k=1)
        assert client.stats.server_queries == 2

    def test_cache_invalidated_on_k_change(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        client.knn((0.5, 0.5), k=1)
        client.knn((0.5, 0.5), k=2)
        assert client.stats.server_queries == 2

    def test_answers_always_correct(self, small_tree, uniform_1k, rng):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        pos = [0.5, 0.5]
        for _ in range(60):
            pos[0] = min(max(pos[0] + rng.uniform(-0.02, 0.02), 0.0), 1.0)
            pos[1] = min(max(pos[1] + rng.uniform(-0.02, 0.02), 0.0), 1.0)
            got = client.knn(tuple(pos), k=2)
            assert {e.oid for e in got} == brute_knn_set(uniform_1k,
                                                         tuple(pos), 2)
            # Returned order must match current distances.
            d = [math.dist((e.x, e.y), pos) for e in got]
            assert d == sorted(d)
        assert client.stats.cache_answers > 0  # caching actually happened

    def test_window_answers_always_correct(self, small_tree, uniform_1k, rng):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        pos = [0.5, 0.5]
        for _ in range(50):
            pos[0] = min(max(pos[0] + rng.uniform(-0.01, 0.01), 0.0), 1.0)
            pos[1] = min(max(pos[1] + rng.uniform(-0.01, 0.01), 0.0), 1.0)
            got = client.window(tuple(pos), 0.1, 0.1)
            want = brute_window(uniform_1k, Rect.around(tuple(pos), 0.1, 0.1))
            assert sorted(e.oid for e in got) == want
        assert client.stats.cache_answers > 0

    def test_window_cache_invalidated_on_resize(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        client.window((0.5, 0.5), 0.1, 0.1)
        client.window((0.5, 0.5), 0.2, 0.2)
        assert client.stats.server_queries == 2

    def test_invalidate_cache(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        client.knn((0.5, 0.5))
        client.invalidate_cache()
        client.knn((0.5, 0.5))
        assert client.stats.server_queries == 2

    def test_query_saving_stat(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        client.knn((0.5, 0.5))
        client.knn((0.5 + 1e-9, 0.5))
        assert client.stats.query_saving == 0.5

    def test_bytes_accounted_only_on_server_queries(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        client = MobileClient(server)
        client.knn((0.5, 0.5))
        first_bytes = client.stats.bytes_received
        client.knn((0.5 + 1e-9, 0.5))
        assert client.stats.bytes_received == first_bytes


class TestValidityRegionObjects:
    def test_nn_region_empty_pairs_covers_universe(self):
        region = NNValidityRegion([], UNIT)
        assert region.contains((0.3, 0.9))
        assert not region.contains((1.5, 0.5))
        assert region.transfer_bytes() == 0

    def test_window_region(self):
        region = WindowValidityRegion(Rect(0.2, 0.2, 0.6, 0.6))
        assert region.contains((0.4, 0.4))
        assert not region.contains((0.7, 0.4))
        assert math.isclose(region.area(), 0.16)
        assert region.transfer_bytes() == 32
