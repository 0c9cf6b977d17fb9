"""Tests for the unified request/response surface (repro.core.api)."""

import pytest

from repro.geometry import Rect
from repro.core import (
    CacheEntry,
    KNNRequest,
    LocationServer,
    RangeRequest,
    Response,
    WindowRequest,
    compute_nn_validity,
    compute_range_validity,
    compute_window_validity,
)

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture()
def server(small_tree):
    return LocationServer(small_tree, UNIT)


class TestRequests:
    def test_kinds(self):
        assert KNNRequest((0.5, 0.5)).kind == "knn"
        assert WindowRequest((0.5, 0.5), 0.1, 0.1).kind == "window"
        assert RangeRequest((0.5, 0.5), 0.1).kind == "range"

    def test_validation(self):
        with pytest.raises(ValueError):
            KNNRequest((0.5, 0.5), k=0)
        with pytest.raises(ValueError):
            WindowRequest((0.5, 0.5), 0.0, 0.1)
        with pytest.raises(ValueError):
            RangeRequest((0.5, 0.5), -1.0)

    def test_requests_are_frozen_and_hashable(self):
        r = KNNRequest((0.5, 0.5), k=3)
        with pytest.raises(AttributeError):
            r.k = 4
        assert hash(r) == hash(KNNRequest((0.5, 0.5), k=3))

    def test_previous_ids_normalized_to_tuple(self):
        r = KNNRequest((0.5, 0.5), k=2, previous_ids=iter([3, 1, 2]))
        assert r.previous_ids == (3, 1, 2)

    def test_as_delta_round_trip(self):
        base = WindowRequest((0.5, 0.5), 0.1, 0.2)
        delta = base.as_delta({4, 5})
        assert delta.kind == "window"
        assert sorted(delta.previous_ids) == [4, 5]
        assert base.previous_ids is None  # original untouched


class TestAnswerDispatch:
    def test_knn_answer_matches_validity_computation(self, server):
        unified = server.answer(KNNRequest((0.4, 0.6), k=4))
        direct = compute_nn_validity(server.tree, (0.4, 0.6), k=4)
        assert [e.oid for e in unified.result] == [
            e.oid for e in direct.neighbors]
        assert unified.transfer_bytes() > 0

    def test_window_answer_matches_validity_computation(self, server):
        unified = server.answer(WindowRequest((0.5, 0.5), 0.2, 0.1))
        direct = compute_window_validity(server.tree, (0.5, 0.5), 0.2, 0.1,
                                         universe=server.universe)
        assert ({e.oid for e in unified.result}
                == {e.oid for e in direct.result})

    def test_range_answer_matches_validity_computation(self, server):
        unified = server.answer(RangeRequest((0.5, 0.5), 0.08))
        direct = compute_range_validity(server.tree, (0.5, 0.5), 0.08)
        assert ({e.oid for e in unified.result}
                == {e.oid for e in direct.result})

    def test_delta_dispatch_from_previous_ids(self, server):
        first = server.answer(KNNRequest((0.3, 0.3), k=5))
        prev = tuple(e.oid for e in first.result)
        delta = server.answer(KNNRequest((0.32, 0.3), k=5,
                                         previous_ids=prev))
        assert hasattr(delta, "added") and hasattr(delta, "removed_ids")
        current = {e.oid for e in delta.result}
        assert {e.oid for e in delta.added} == current - set(prev)

    def test_unknown_request_rejected(self, server):
        with pytest.raises(TypeError):
            server.answer("knn at (0.5, 0.5)")


class TestQueryResponseProtocol:
    def test_every_response_satisfies_protocol(self, server):
        responses = [
            server.answer(KNNRequest((0.5, 0.5), k=2)),
            server.answer(WindowRequest((0.5, 0.5), 0.1, 0.1)),
            server.answer(RangeRequest((0.5, 0.5), 0.1)),
        ]
        responses.append(server.answer(KNNRequest(
            (0.51, 0.5), k=2,
            previous_ids=[e.oid for e in responses[0].result])))
        for resp in responses:
            assert type(resp) is Response
            assert isinstance(resp.result, list)
            assert resp.transfer_bytes() > 0
            assert resp.detail is not None
            # Every region supports the client-side validity check.
            assert isinstance(resp.region.contains((0.5, 0.5)), bool)

    def test_knn_result_aliases_neighbors(self, server):
        resp = server.answer(KNNRequest((0.7, 0.2), k=3))
        assert resp.result is resp.detail.neighbors

    def test_delta_response_delegates_to_full(self, server):
        """A delta is the full answer plus the two delta fields."""
        request = WindowRequest((0.5, 0.5), 0.2, 0.2)
        first = server.answer(request)
        delta = server.answer(
            request.as_delta(e.oid for e in first.result))
        assert first.added is None and first.removed_ids is None
        assert delta.added == [] and delta.removed_ids == []
        assert delta.result == first.result
        assert delta.region.rect == first.region.rect
        assert delta.detail.result == first.detail.result


class TestCacheEntry:
    def test_answers_checks_key_and_region(self, server):
        resp = server.answer(KNNRequest((0.5, 0.5), k=2))
        entry = CacheEntry(key=(2,), response=resp,
                           entries=list(resp.result), epoch=server.epoch)
        assert entry.answers((2,), (0.5, 0.5))
        assert not entry.answers((3,), (0.5, 0.5))  # different k

    def test_client_exposes_typed_cache_entries(self, server):
        from repro.core import MobileClient
        client = MobileClient(server)
        assert client.cache_entry("knn") is None
        client.knn((0.5, 0.5), k=2)
        entry = client.cache_entry("knn")
        assert entry is not None
        assert entry.key == (2,)
        assert entry.epoch == server.epoch
        assert len(entry.entries) == 2
