"""Unit tests for the continuous-query tier (repro.service.continuous).

The deterministic half of the continuous-query battery (the randomised
mutation oracle lives in tests/service/test_incremental_oracle.py):
patch mechanics per query kind, the anchor/horizon margin accounting,
the margin-exhaustion escape hatch, broken-subscription semantics and
— the contract that makes server push deployable at all — bounded
backpressure: a slow subscriber's queue never grows past its capacity,
overflow coalesces latest-wins, and the final queued state always
equals a fresh recompute.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro import (
    CacheConfig,
    ContinuousConfig,
    KNNRequest,
    MobileClient,
    RangeRequest,
    RKNNRequest,
    WindowRequest,
    build_service,
)
from repro.geometry import Rect
from repro.service.continuous import INVALIDATE_BYTES

from tests.conftest import brute_window

EPS = 1e-9


def _dataset(seed: int = 11, n: int = 120):
    rnd = random.Random(seed)
    return [(rnd.random(), rnd.random()) for _ in range(n)]


def _live(points):
    """oid -> point for the brute-force oracles (mutable under churn)."""
    return {i: p for i, p in enumerate(points)}


def _brute_knn_ok(live, q, answer_ids, k):
    """Tie-aware: served set is a valid top-k of the live objects."""
    if len(answer_ids) != min(k, len(live)):
        return False
    if not answer_ids:
        return True
    farthest = max(math.dist(live[i], q) for i in answer_ids)
    nearest_out = min((math.dist(p, q) for i, p in live.items()
                       if i not in answer_ids), default=math.inf)
    return farthest <= nearest_out + EPS


def _window_rect(focus, w, h):
    return Rect(focus[0] - w / 2, focus[1] - h / 2,
                focus[0] + w / 2, focus[1] + h / 2)


class TestSubscribeBasics:
    def test_knn_subscription_answers_the_request(self):
        points = _dataset()
        service = build_service(points)
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        assert sub.response is not None
        assert _brute_knn_ok(_live(points), (0.5, 0.5),
                             {e.oid for e in sub.response.result}, 3)
        assert sub.response.detail.origin == "subscribe"
        assert sub.pending == 0
        service.close()

    def test_window_and_range_subscriptions_answer(self):
        points = _dataset()
        service = build_service(points)
        w = service.subscribe(WindowRequest((0.5, 0.5), 0.2, 0.2))
        r = service.subscribe(RangeRequest((0.4, 0.4), 0.15))
        assert sorted(e.oid for e in w.response.result) == brute_window(
            points, _window_rect((0.5, 0.5), 0.2, 0.2))
        assert sorted(e.oid for e in r.response.result) == sorted(
            i for i, p in enumerate(points)
            if math.dist(p, (0.4, 0.4)) <= 0.15)
        assert len(service.hub) == 2
        service.close()

    def test_close_unregisters_and_marks_closed(self):
        service = build_service(_dataset())
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=2))
        sub.close()
        assert sub.closed
        assert len(service.hub) == 0
        with pytest.raises(RuntimeError):
            sub.move((0.6, 0.6))
        service.close()

    def test_snapshot_surfaces_in_service_stats(self):
        service = build_service(_dataset())
        assert service.stats_snapshot()["continuous"] is None
        service.subscribe(KNNRequest((0.5, 0.5), k=2))
        snap = service.stats_snapshot()["continuous"]
        assert snap["subscriptions"] == 1
        assert snap["broken"] == 0
        service.close()


class TestKnnPatches:
    def test_insert_inside_horizon_is_patched(self):
        points = _dataset()
        live = _live(points)
        service = build_service(points)
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        service.insert_object(len(points), 0.5001, 0.5001)
        live[len(points)] = (0.5001, 0.5001)
        updates = sub.drain()
        assert [u.kind for u in updates] == ["patch"]
        assert updates[0].reason == "insert"
        assert _brute_knn_ok(live, (0.5, 0.5),
                             {e.oid for e in updates[0].response.result}, 3)
        # The patch was repaired from cached state: the update models
        # only the delta on the wire (one added point + the region).
        assert updates[0].transfer_bytes < sub.response.transfer_bytes()
        service.close()

    def test_insert_beyond_horizon_is_skipped(self):
        points = [(0.5 + 0.01 * i, 0.5) for i in range(30)]
        service = build_service(points)
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=2))
        horizon = sub.answer.detail.horizon
        assert math.isfinite(horizon)
        service.insert_object(len(points), 0.95, 0.95)  # far outside
        assert math.dist((0.95, 0.95), (0.5, 0.5)) > horizon
        assert sub.pending == 0  # invariant untouched: no push needed
        service.close()

    def test_delete_of_nonmember_candidate_is_silent_but_tracked(self):
        points = [(0.5 + 0.01 * i, 0.5) for i in range(30)]
        service = build_service(points)
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=2))
        # oid 5 is a margin candidate (rank 6) but not a member.
        assert 5 in sub.answer.detail.candidates
        service.delete_object(5, points[5][0], points[5][1])
        assert sub.pending == 0  # shipped answer still sound
        assert 5 not in sub.answer.detail.candidates  # but the state moved on
        service.close()

    def test_delete_of_member_is_patched(self):
        points = _dataset()
        live = _live(points)
        service = build_service(points)
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        victim = sub.response.result[0]
        service.delete_object(victim.oid, victim.point[0], victim.point[1])
        del live[victim.oid]
        updates = sub.drain()
        assert [u.kind for u in updates] == ["patch"]
        served = {e.oid for e in updates[0].response.result}
        assert victim.oid not in served
        assert _brute_knn_ok(live, (0.5, 0.5), served, 3)
        service.close()

    def test_margin_exhaustion_invalidates_then_move_recovers(self):
        points = _dataset()
        live = _live(points)
        service = build_service(points, continuous=ContinuousConfig(margin=2))
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        # Delete every candidate: the margin cannot absorb that.
        for entry in list(sub.answer.detail.candidates.values()):
            service.delete_object(entry.oid, entry.point[0], entry.point[1])
            del live[entry.oid]
            if sub.answer is None:  # invalidated
                break
        updates = sub.drain()
        assert updates, "exhausting the margin must push something"
        assert updates[-1].kind == "invalidate"
        assert updates[-1].reason in ("margin_exhausted", "stale")
        # Further mutations keep the client informed, never silent.
        service.insert_object(len(points) + 7, 0.5, 0.5)
        live[len(points) + 7] = (0.5, 0.5)
        assert sub.poll().reason == "stale"
        # move() takes the escape hatch and re-arms the subscription.
        response = sub.move((0.5, 0.5))
        assert sub.moves_refetched >= 1
        assert _brute_knn_ok(live, (0.5, 0.5),
                             {e.oid for e in response.result}, 3)
        assert sub.answer is not None
        service.close()

    def test_move_within_margin_costs_zero_node_accesses(self):
        points = _dataset(n=400)
        service = build_service(points, continuous=ContinuousConfig(margin=16))
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        before = service.stats_snapshot()["disk"]["total_node_accesses"]
        response = sub.move((0.501, 0.501))  # a tiny step: margin holds
        assert sub.moves_patched == 1
        assert sub.moves_refetched == 0
        after = service.stats_snapshot()["disk"]["total_node_accesses"]
        assert after == before, "a patched move must not touch the tree"
        assert _brute_knn_ok(_live(points), (0.501, 0.501),
                             {e.oid for e in response.result}, 3)
        service.close()


class TestWindowAndRangePatches:
    def test_window_insert_inside_joins_result(self):
        points = _dataset()
        live = _live(points)
        service = build_service(points)
        sub = service.subscribe(WindowRequest((0.5, 0.5), 0.2, 0.2))
        service.insert_object(len(points), 0.52, 0.48)
        live[len(points)] = (0.52, 0.48)
        updates = sub.drain()
        assert [u.kind for u in updates] == ["patch"]
        served = sorted(e.oid for e in updates[0].response.result)
        assert served == brute_window(list(live.values()), _window_rect(
            (0.5, 0.5), 0.2, 0.2)) or served == sorted(
            i for i, p in live.items()
            if _window_rect((0.5, 0.5), 0.2, 0.2).contains_point(p))
        assert len(points) in set(served)
        service.close()

    def test_window_member_delete_keeps_region(self):
        points = _dataset()
        service = build_service(points)
        sub = service.subscribe(WindowRequest((0.5, 0.5), 0.2, 0.2))
        region_before = sub.response.region
        victim = sub.response.result[0]
        service.delete_object(victim.oid, victim.point[0], victim.point[1])
        update = sub.poll()
        assert update.kind == "patch"
        assert victim.oid not in {e.oid for e in update.response.result}
        # A member was inside the window for every focus in the region:
        # the delete cannot change the answer anywhere in it.
        assert update.response.region.rect == region_before.rect
        service.close()

    def test_range_insert_outside_only_caps_validity(self):
        points = _dataset()
        service = build_service(points)
        sub = service.subscribe(RangeRequest((0.5, 0.5), 0.1))
        ids_before = {e.oid for e in sub.response.result}
        # Insert close enough to threaten the validity radius, but
        # outside the query circle: membership must not change.
        service.insert_object(len(points), 0.5, 0.5 + 0.1 + 1e-4)
        updates = sub.drain()
        if updates:  # a patch only when the validity cap actually bites
            assert {e.oid for e in updates[-1].response.result} == ids_before
        assert {e.oid for e in sub.response.result} == ids_before
        service.close()

    def test_range_insert_inside_joins_result(self):
        points = _dataset()
        service = build_service(points)
        sub = service.subscribe(RangeRequest((0.5, 0.5), 0.12))
        service.insert_object(len(points), 0.51, 0.5)
        update = sub.poll()
        assert update.kind == "patch"
        assert len(points) in {e.oid for e in update.response.result}
        service.close()


    def test_range_patch_keeps_the_cached_disk_centre(self):
        """A subscription whose first answer is a cache hit computed at
        another point keeps that disk's own centre in every patch; a
        disk re-centred on the subscriber overhangs the side of the
        object that bounds it, where the answer is wrong."""
        rnd = random.Random(3)
        points = [(rnd.random(), rnd.random()) for _ in range(400)]
        radius = 0.1
        service = build_service(points, cache=CacheConfig(capacity=64))
        cached = service.answer(RangeRequest((0.5, 0.5), radius))
        disk, detail = cached.region, cached.detail
        center = (disk.center[0], disk.center[1])
        # Step 0.9 of the disk radius towards the object that bounds it
        # (away from it when it is inside the range).
        slacks = [(radius - math.dist(e.point, center), e, -1.0)
                  for e in [detail.inner_influence] if e is not None]
        slacks += [(math.dist(e.point, center) - radius, e, 1.0)
                   for e in [detail.outer_influence] if e is not None]
        _slack, bound, sign = min(slacks, key=lambda t: t[0])
        step = sign * 0.9 * disk.radius / math.dist(bound.point, center)
        at = (center[0] + step * (bound.x - center[0]),
              center[1] + step * (bound.y - center[1]))
        hits = service.cache.hits
        sub = service.subscribe(RangeRequest(at, radius))
        assert service.cache.hits == hits + 1  # the first answer is cached
        live = _live(points)
        victim = sub.response.result[0]
        service.delete_object(victim.oid, victim.x, victim.y)
        del live[victim.oid]
        update = sub.drain()[-1]
        region = update.response.region
        assert (region.center[0], region.center[1]) == center
        served = {e.oid for e in update.response.result}
        probes = random.Random(0)
        for _ in range(500):
            angle = 2.0 * math.pi * probes.random()
            rho = region.radius * math.sqrt(probes.random())
            p = (center[0] + rho * math.cos(angle),
                 center[1] + rho * math.sin(angle))
            assert served == {i for i, q in live.items()
                              if math.dist(q, p) <= radius}, p
        service.close()


class TestSnapshotKindSubscriptions:
    def test_a_subscribed_probknn_answer_costs_what_a_polled_one_does(self):
        """The hub ships the held answer's entries at its own price: 29
        bytes per probabilistic kNN entry, as a polled answer pays."""
        service = build_service(_dataset())
        polled = MobileClient(service)
        subscribed = MobileClient(service, subscribe=True)
        for client in (polled, subscribed):
            client.probknn((0.5, 0.5), 0.02, k=3)
        assert subscribed.stats.bytes_received \
            == polled.stats.bytes_received > 0
        service.close()

    def test_an_rknn_insert_that_changes_nothing_pushes_nothing(self):
        points = _dataset()
        service = build_service(points)
        sub = service.subscribe(RKNNRequest((0.5, 0.5), k=2))
        shipped = sub.response
        # Far corners: no member's radius shrinks, and neither insert
        # comes near joining the answer.
        service.insert_object(len(points), 0.001, 0.999)
        service.insert_object(len(points) + 1, 0.999, 0.001)
        assert sub.pending == 0
        assert sub.response is shipped
        service.close()


class TestBackpressure:
    """Satellite contract: deterministic slow-subscriber semantics."""

    def test_slow_subscriber_queue_is_bounded_and_coalesces(self):
        points = _dataset(n=60)
        live = _live(points)
        capacity = 3
        service = build_service(points, continuous=ContinuousConfig(
            margin=8, queue_capacity=capacity))
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        # A burst of overlapping mutations with the subscriber asleep:
        # every insert lands next to the anchor, so every one patches.
        rnd = random.Random(7)
        burst = 25
        for i in range(burst):
            oid = len(points) + i
            x = 0.5 + rnd.uniform(-0.02, 0.02)
            y = 0.5 + rnd.uniform(-0.02, 0.02)
            service.insert_object(oid, x, y)
            live[oid] = (x, y)
            assert sub.pending <= capacity  # never unbounded, ever
        assert sub.pushes == burst
        assert sub.coalesced == burst - capacity
        updates = sub.drain()
        assert len(updates) == capacity
        # Oldest updates survive untouched; the tail absorbed the burst.
        assert updates[-1].coalesced == burst - capacity
        # Latest wins and nothing final was lost: the last queued update
        # carries the full current state, equal to a fresh recompute.
        last = updates[-1]
        assert last.kind == "patch"
        assert last.response is sub.response
        served = {e.oid for e in last.response.result}
        assert _brute_knn_ok(live, (0.5, 0.5), served, 3)
        fresh = service.answer(KNNRequest((0.5, 0.5), k=3))
        assert served == {e.oid for e in fresh.result}
        service.close()

    def test_coalescing_replaces_tail_not_head(self):
        points = _dataset(n=40)
        service = build_service(points, continuous=ContinuousConfig(
            margin=8, queue_capacity=2))
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=2))
        seqs = []
        for i in range(6):
            service.insert_object(len(points) + i, 0.5 + 1e-4 * (i + 1), 0.5)
            seqs.append(sub._queue[0].seq if sub._queue else None)
        # The head seq froze after the queue filled: old updates are
        # delivered in order, only the newest slot churns.
        assert seqs[1:] == [seqs[1]] * 5
        updates = sub.drain()
        assert [u.seq for u in updates] == sorted(u.seq for u in updates)
        assert updates[-1].seq == sub.pushes  # the newest push survived
        service.close()

    def test_invalidate_pushes_coalesce_too(self):
        points = _dataset(n=50)
        live = _live(points)
        service = build_service(points, continuous=ContinuousConfig(
            margin=1, queue_capacity=2))
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        for entry in list(sub.answer.detail.candidates.values()):
            service.delete_object(entry.oid, entry.point[0], entry.point[1])
            del live[entry.oid]
        for i in range(5):  # stale reminders while exhausted
            service.insert_object(len(points) + i, 0.5, 0.5)
            live[len(points) + i] = (0.5, 0.5)
            assert sub.pending <= 2
        updates = sub.drain()
        assert updates[-1].kind == "invalidate"
        assert updates[-1].transfer_bytes == INVALIDATE_BYTES
        service.close()


class TestBrokenSubscriptions:
    def test_patch_failure_breaks_loudly_with_final_invalidate(self):
        points = _dataset()
        service = build_service(points)
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        # Simulate corrupted server state.
        sub.answer = replace(sub.answer, detail=replace(
            sub.answer.detail, candidates=None))
        service.insert_object(len(points), 0.5, 0.5)  # patch will raise
        assert sub.broken
        assert "TypeError" in sub.broken_reason
        updates = sub.drain()
        assert updates[-1].kind == "invalidate"
        assert updates[-1].reason == "broken"
        # Broken subscriptions are inert: no further pushes, move fails.
        service.insert_object(len(points) + 1, 0.5, 0.5)
        assert sub.pending == 0
        with pytest.raises(RuntimeError, match="broken"):
            sub.move((0.5, 0.5))
        snap = service.stats_snapshot()["continuous"]
        assert snap["broken"] == 1
        service.close()

    def test_one_broken_subscription_does_not_poison_neighbours(self):
        points = _dataset()
        live = _live(points)
        service = build_service(points)
        bad = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        good = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        bad.answer = replace(bad.answer, detail=replace(
            bad.answer.detail, candidates=None))
        service.insert_object(len(points), 0.5001, 0.5)
        live[len(points)] = (0.5001, 0.5)
        assert bad.broken and not good.broken
        assert _brute_knn_ok(live, (0.5, 0.5),
                             {e.oid for e in good.response.result}, 3)
        service.close()


class TestReplicaSetSubscriptions:
    def test_replicated_tier_pushes_patches(self):
        points = _dataset()
        live = _live(points)
        service = build_service(points, replicas=3)
        sub = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        service.insert_object(len(points), 0.5001, 0.5001)
        live[len(points)] = (0.5001, 0.5001)
        updates = sub.drain()
        assert [u.kind for u in updates] == ["patch"]
        assert _brute_knn_ok(live, (0.5, 0.5),
                             {e.oid for e in updates[0].response.result}, 3)
        assert service.stats_snapshot()["continuous"]["subscriptions"] == 1
        service.close()
