"""Tests for dataset updates and epoch-based cache invalidation."""

import math

import pytest

from repro.geometry import Rect
from repro.index import bulk_load_str
from repro.core import LocationServer, MobileClient
from repro.core.api import KNNRequest

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture()
def server():
    tree = bulk_load_str([(0.2, 0.2), (0.8, 0.8), (0.5, 0.9)], capacity=4)
    return LocationServer(tree, UNIT)


class TestServerUpdates:
    def test_insert_bumps_epoch(self, server):
        before = server.epoch
        server.insert_object(100, 0.51, 0.49)
        assert server.epoch == before + 1
        assert len(server.tree) == 4

    def test_delete_bumps_epoch(self, server):
        server.delete_object(0, 0.2, 0.2)
        assert server.epoch == 1
        assert len(server.tree) == 2

    def test_failed_delete_keeps_epoch(self, server):
        assert not server.delete_object(99, 0.1, 0.1)
        assert server.epoch == 0

    def test_queries_reflect_updates(self, server):
        nearest = lambda: server.answer(
            KNNRequest((0.5, 0.5))).result[0].oid
        assert nearest() in {0, 1, 2}
        server.insert_object(100, 0.5, 0.5)
        assert nearest() == 100
        server.delete_object(100, 0.5, 0.5)
        assert nearest() != 100


class TestClientInvalidation:
    def test_knn_cache_dropped_after_insert(self, server):
        client = MobileClient(server)
        first = client.knn((0.45, 0.45))
        assert first[0].oid == 0
        # A new point appears right under the client: the cached region
        # (computed before the update) must not serve a stale answer.
        server.insert_object(100, 0.45, 0.46)
        second = client.knn((0.45, 0.45))
        assert second[0].oid == 100
        assert client.stats.server_queries == 2
        assert client.stats.cache_answers == 0

    def test_window_cache_dropped_after_delete(self, server):
        client = MobileClient(server)
        first = client.window((0.2, 0.2), 0.2, 0.2)
        assert [e.oid for e in first] == [0]
        server.delete_object(0, 0.2, 0.2)
        second = client.window((0.2, 0.2), 0.2, 0.2)
        assert second == []

    def test_range_cache_dropped_after_insert(self, server):
        client = MobileClient(server)
        assert client.range((0.5, 0.5), 0.1) == []
        server.insert_object(100, 0.52, 0.5)
        assert [e.oid for e in client.range((0.5, 0.5), 0.1)] == [100]

    def test_cache_still_used_without_updates(self, server):
        client = MobileClient(server)
        client.knn((0.45, 0.45))
        client.knn((0.45 + 1e-9, 0.45))
        assert client.stats.cache_answers == 1

    def test_incremental_client_survives_updates(self, server):
        client = MobileClient(server, incremental=True)
        client.window((0.5, 0.5), 0.4, 0.4)
        server.insert_object(100, 0.5, 0.5)
        got = client.window((0.5, 0.5), 0.4, 0.4)
        assert 100 in {e.oid for e in got}

    def test_many_updates_many_epochs(self, server):
        client = MobileClient(server)
        for i in range(10):
            server.insert_object(200 + i, 0.1 + i * 0.05, 0.9)
            client.knn((0.45, 0.45))
        assert server.epoch == 10
        assert client.stats.server_queries == 10  # no stale cache hits
