"""Tests for the incremental (delta) re-query extension (paper §7)."""

import pytest

from repro.geometry import Rect
from repro.core import LocationServer, MobileClient
from repro.core.api import KNNRequest, WindowRequest
from tests.conftest import brute_knn_set, brute_window

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


class TestServerDelta:
    def test_knn_delta_contents(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        first = server.answer(KNNRequest((0.2, 0.2), k=5))
        prev = {e.oid for e in first.result}
        delta = server.answer(KNNRequest((0.6, 0.6), k=5,
                                         previous_ids=tuple(prev)))
        current = {e.oid for e in delta.result}
        assert {e.oid for e in delta.added} == current - prev
        assert set(delta.removed_ids) == prev - current

    def test_window_delta_contents(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        first = server.answer(WindowRequest((0.4, 0.4), 0.2, 0.2))
        prev = {e.oid for e in first.result}
        delta = server.answer(WindowRequest((0.45, 0.4), 0.2, 0.2,
                                            previous_ids=tuple(prev)))
        current = {e.oid for e in delta.result}
        assert {e.oid for e in delta.added} == current - prev
        assert set(delta.removed_ids) == prev - current

    def test_no_change_delta_is_small(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        first = server.answer(WindowRequest((0.4, 0.4), 0.2, 0.2))
        prev = {e.oid for e in first.result}
        delta = server.answer(WindowRequest((0.4, 0.4), 0.2, 0.2,
                                            previous_ids=tuple(prev)))
        assert delta.added == [] and delta.removed_ids == []
        assert delta.transfer_bytes() < first.transfer_bytes()

    def test_delta_bytes_smaller_for_small_moves(self, small_tree):
        """The whole point: overlapping results make deltas cheap."""
        server = LocationServer(small_tree, UNIT)
        first = server.answer(WindowRequest((0.4, 0.4), 0.3, 0.3))
        prev = {e.oid for e in first.result}
        delta = server.answer(WindowRequest((0.41, 0.4), 0.3, 0.3,
                                            previous_ids=tuple(prev)))
        full = server.answer(WindowRequest((0.41, 0.4), 0.3, 0.3))
        assert delta.transfer_bytes() < full.transfer_bytes()


class TestIncrementalClient:
    def test_same_answers_as_plain_client(self, small_tree, uniform_1k, rng):
        server = LocationServer(small_tree, UNIT)
        plain = MobileClient(server)
        inc = MobileClient(server, incremental=True)
        pos = [0.3, 0.3]
        for _ in range(50):
            pos[0] = min(max(pos[0] + rng.uniform(-0.02, 0.02), 0), 1)
            pos[1] = min(max(pos[1] + rng.uniform(-0.02, 0.02), 0), 1)
            a = plain.knn(tuple(pos), k=3)
            b = inc.knn(tuple(pos), k=3)
            assert [e.oid for e in a] == [e.oid for e in b]
            assert {e.oid for e in b} == brute_knn_set(uniform_1k,
                                                       tuple(pos), 3)

    def test_incremental_window_correct(self, small_tree, uniform_1k, rng):
        server = LocationServer(small_tree, UNIT)
        inc = MobileClient(server, incremental=True)
        pos = [0.5, 0.5]
        for _ in range(40):
            pos[0] = min(max(pos[0] + rng.uniform(-0.02, 0.02), 0), 1)
            got = sorted(e.oid for e in inc.window(tuple(pos), 0.15, 0.15))
            assert got == brute_window(
                uniform_1k, Rect.around(tuple(pos), 0.15, 0.15))

    def test_incremental_saves_bytes(self, small_tree, rng):
        server = LocationServer(small_tree, UNIT)
        plain = MobileClient(server)
        inc = MobileClient(server, incremental=True)
        pos = [0.5, 0.5]
        for _ in range(60):
            pos[0] = min(max(pos[0] + rng.uniform(-0.01, 0.01), 0), 1)
            pos[1] = min(max(pos[1] + rng.uniform(-0.01, 0.01), 0), 1)
            plain.window(tuple(pos), 0.25, 0.25)
            inc.window(tuple(pos), 0.25, 0.25)
        assert inc.stats.bytes_received < plain.stats.bytes_received
        assert inc.stats.server_queries == plain.stats.server_queries

    def test_first_query_is_full(self, small_tree):
        server = LocationServer(small_tree, UNIT)
        inc = MobileClient(server, incremental=True)
        result = inc.window((0.5, 0.5), 0.2, 0.2)
        assert result  # nothing cached yet: a full response served it

    def test_window_resize_falls_back_to_full(self, small_tree, uniform_1k):
        server = LocationServer(small_tree, UNIT)
        inc = MobileClient(server, incremental=True)
        inc.window((0.5, 0.5), 0.1, 0.1)
        got = sorted(e.oid for e in inc.window((0.5, 0.5), 0.3, 0.3))
        assert got == brute_window(uniform_1k,
                                   Rect.around((0.5, 0.5), 0.3, 0.3))
