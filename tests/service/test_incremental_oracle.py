"""Oracle-backed mutation battery for incremental validity maintenance.

The continuous-query tier answers from cached per-subscription state —
a re-ranked influence set, a locally rebuilt order-k cell — instead of
re-querying.  These properties are the proof obligation: after *every*
mutation of a random stream, the subscription's authoritative state
(drain, honouring invalidate pushes exactly like a real client) must

* equal a fresh brute-force recompute at the subscription point, and
* stay constant across its shipped validity region: at every sampled
  probe the region claims, the brute-force answer equals the served
  result (region containment in the fresh recompute).

The deterministic tail runs the same battery over a sharded server,
where patches must agree with scatter-gather answers.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro import (
    ContinuousConfig,
    KNNRequest,
    RangeRequest,
    WindowRequest,
    build_service,
)
from repro.geometry import Rect

from tests.conftest import brute_window

EPS = 1e-9
seeds = st.integers(min_value=0, max_value=2**31 - 1)
ks = st.integers(min_value=1, max_value=4)


def _instance(seed: int, n: int = 150):
    rnd = random.Random(seed)
    points = [(rnd.random(), rnd.random()) for _ in range(n)]
    query = (0.25 + 0.5 * rnd.random(), 0.25 + 0.5 * rnd.random())
    return points, query, rnd


def _mutate(service, live, rnd, next_oid, center, spread=0.08):
    """One random mutation, biased to overlap the subscription."""
    if live and rnd.random() < 0.45:
        oid = rnd.choice(sorted(live))
        x, y = live.pop(oid)
        assert service.delete_object(oid, x, y)
        return next_oid
    x = min(1.0, max(0.0, center[0] + rnd.gauss(0.0, spread)))
    y = min(1.0, max(0.0, center[1] + rnd.gauss(0.0, spread)))
    service.insert_object(next_oid, x, y)
    live[next_oid] = (x, y)
    return next_oid + 1


def _sync(sub, pos):
    """What a well-behaved client holds after draining: the last queued
    update wins; an invalidate — or a patched region that no longer
    covers the client's position — forces a move (escape hatch)."""
    updates = sub.drain()
    if updates and updates[-1].kind == "invalidate":
        sub.move(pos)
    elif (sub.response is not None
          and not sub.response.region.contains(pos)):
        sub.move(pos)
    return sub.response


def _probes(region, around, rnd, num=8, sigma=0.03):
    for _ in range(num):
        p = (min(1.0, max(0.0, around[0] + rnd.gauss(0.0, sigma))),
             min(1.0, max(0.0, around[1] + rnd.gauss(0.0, sigma))))
        if region.contains(p):
            yield p


def _knn_ok(live, q, served, k):
    if len(served) != min(k, len(live)):
        return False
    if not served:
        return True
    farthest = max(math.dist(live[i], q) for i in served)
    nearest_out = min((math.dist(p, q) for i, p in live.items()
                       if i not in served), default=math.inf)
    return farthest <= nearest_out + EPS


def _window_ids(live, focus, w, h):
    rect = Rect(focus[0] - w / 2, focus[1] - h / 2,
                focus[0] + w / 2, focus[1] + h / 2)
    return sorted(i for i, p in live.items() if rect.contains_point(p))


def _range_ids(live, center, radius):
    return sorted(i for i, p in live.items()
                  if math.dist(p, center) <= radius)


class TestIncrementalOracle:
    @given(seeds, ks)
    @settings(deadline=None, max_examples=15)
    def test_patched_knn_equals_fresh_recompute(self, seed, k):
        points, query, rnd = _instance(seed)
        live = dict(enumerate(points))
        service = build_service(points, continuous=ContinuousConfig(margin=6))
        try:
            sub = service.subscribe(KNNRequest(query, k=k))
            pos, next_oid = query, len(points)
            for step in range(30):
                next_oid = _mutate(service, live, rnd, next_oid, pos)
                if step % 7 == 6:  # the client wanders, too
                    pos = (min(1.0, max(0.0, pos[0] + rnd.gauss(0, 0.02))),
                           min(1.0, max(0.0, pos[1] + rnd.gauss(0, 0.02))))
                    sub.move(pos)
                current = _sync(sub, pos)
                served = {e.oid for e in current.result}
                assert _knn_ok(live, pos, served, k), (
                    f"seed={seed} k={k} step={step}: patched result "
                    f"diverged from brute force at {pos}")
                for probe in _probes(current.region, pos, rnd):
                    assert _knn_ok(live, probe, served, k), (
                        f"seed={seed} k={k} step={step}: region claims "
                        f"{probe} but the kNN set changed there")
        finally:
            service.close()

    @given(seeds, st.floats(min_value=0.08, max_value=0.25))
    @settings(deadline=None, max_examples=15)
    def test_patched_window_equals_fresh_recompute(self, seed, w):
        points, query, rnd = _instance(seed)
        live = dict(enumerate(points))
        service = build_service(points)
        try:
            sub = service.subscribe(WindowRequest(query, w, w))
            pos, next_oid = query, len(points)
            for step in range(30):
                next_oid = _mutate(service, live, rnd, next_oid, pos)
                if step % 9 == 8:
                    pos = (min(1.0, max(0.0, pos[0] + rnd.gauss(0, 0.02))),
                           min(1.0, max(0.0, pos[1] + rnd.gauss(0, 0.02))))
                    sub.move(pos)
                current = _sync(sub, pos)
                served = sorted(e.oid for e in current.result)
                assert served == _window_ids(live, pos, w, w), (
                    f"seed={seed} w={w} step={step}: patched window "
                    f"diverged from brute force at {pos}")
                for probe in _probes(current.region, pos, rnd):
                    assert served == _window_ids(live, probe, w, w), (
                        f"seed={seed} w={w} step={step}: region claims "
                        f"{probe} but the window result changed there")
        finally:
            service.close()

    @given(seeds, st.floats(min_value=0.05, max_value=0.2))
    @settings(deadline=None, max_examples=15)
    def test_patched_range_equals_fresh_recompute(self, seed, radius):
        points, query, rnd = _instance(seed)
        live = dict(enumerate(points))
        service = build_service(points)
        try:
            sub = service.subscribe(RangeRequest(query, radius))
            pos, next_oid = query, len(points)
            for step in range(30):
                next_oid = _mutate(service, live, rnd, next_oid, pos)
                if step % 9 == 8:
                    pos = (min(1.0, max(0.0, pos[0] + rnd.gauss(0, 0.02))),
                           min(1.0, max(0.0, pos[1] + rnd.gauss(0, 0.02))))
                    sub.move(pos)
                current = _sync(sub, pos)
                served = sorted(e.oid for e in current.result)
                assert served == _range_ids(live, pos, radius), (
                    f"seed={seed} r={radius} step={step}: patched range "
                    f"diverged from brute force at {pos}")
                for probe in _probes(current.region, pos, rnd):
                    assert served == _range_ids(live, probe, radius), (
                        f"seed={seed} r={radius} step={step}: region "
                        f"claims {probe} but the result changed there")
        finally:
            service.close()

    @given(seeds)
    @settings(deadline=None, max_examples=10)
    def test_subscribed_client_tracks_brute_force(self, seed):
        """End to end: a subscribed MobileClient's every answer — pushed,
        cached or re-queried — equals the brute-force kNN."""
        from repro import MobileClient

        points, query, rnd = _instance(seed, n=120)
        live = dict(enumerate(points))
        service = build_service(points, continuous=ContinuousConfig(margin=6))
        try:
            client = MobileClient(service, subscribe=True)
            pos, next_oid, k = query, len(points), 3
            for _ in range(25):
                if rnd.random() < 0.4:
                    next_oid = _mutate(service, live, rnd, next_oid, pos)
                pos = (min(1.0, max(0.0, pos[0] + rnd.gauss(0, 0.015))),
                       min(1.0, max(0.0, pos[1] + rnd.gauss(0, 0.015))))
                answer = client.knn(pos, k=k)
                assert _knn_ok(live, pos, {e.oid for e in answer}, k), (
                    f"seed={seed}: subscribed client served a wrong kNN "
                    f"set at {pos}")
            client.close()
        finally:
            service.close()


def test_oracle_holds_on_a_sharded_server():
    """The same battery over a 2x2 sharded server: subscription
    patches must agree with scatter-gather."""
    rnd = random.Random(4242)
    points = [(rnd.random(), rnd.random()) for _ in range(200)]
    live = dict(enumerate(points))
    service = build_service(points, shards=2,
                            continuous=ContinuousConfig(margin=6))
    try:
        knn = service.subscribe(KNNRequest((0.5, 0.5), k=3))
        win = service.subscribe(WindowRequest((0.45, 0.55), 0.2, 0.2))
        rng_ = service.subscribe(RangeRequest((0.55, 0.45), 0.12))
        next_oid = len(points)
        for step in range(8):
            next_oid = _mutate(service, live, rnd, next_oid, (0.5, 0.5),
                               spread=0.12)
            assert _knn_ok(live, (0.5, 0.5),
                           {e.oid for e in _sync(knn, (0.5, 0.5)).result},
                           3), f"step {step}: knn diverged"
            assert (sorted(e.oid for e in
                           _sync(win, (0.45, 0.55)).result)
                    == _window_ids(live, (0.45, 0.55), 0.2, 0.2)), (
                f"step {step}: window diverged")
            assert (sorted(e.oid for e in
                           _sync(rng_, (0.55, 0.45)).result)
                    == _range_ids(live, (0.55, 0.45), 0.12)), (
                f"step {step}: range diverged")
    finally:
        service.close()
