"""Subscriptions of every kind under a stateful walk, against brute force.

One ``build_service`` stack — a validity cache in front of two replicas
that lag by two mutations and serve reads up to two mutations stale —
holds a subscription of each of the five kinds.  A Hypothesis state
machine inserts points near the subscribers, deletes members of their
answers, moves them inside and outside their regions and drains their
queues, in any order.  After every step each subscription that is not
invalidated must answer correctly: its ``sub.response`` satisfies the
kind's brute-force ``oracle`` (``must ⊆ ids ⊆ may``) at the
subscriber's location and at random probes inside its region.

A subscriber learns of an invalidation only as a client does: from an
``invalidate`` update it drains, until its next ``move``.  Until it
drains, a subscription with queued updates is not judged, since one of
them may be the invalidation.
"""

from __future__ import annotations

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import (
    CacheConfig,
    KNNRequest,
    ProbKNNRequest,
    RangeRequest,
    ReplicaConfig,
    RKNNRequest,
    WindowRequest,
    build_service,
)
from repro.core.api import query_semantics
from repro.geometry import Rect
from repro.index.entry import LeafEntry

UNIT = Rect(0.0, 0.0, 1.0, 1.0)
N_POINTS = 120
#: Probes per judged region, beside the subscriber's own location.
PROBES = 3

unit = st.floats(0.0, 1.0)
step = st.floats(-0.2, 0.2)


def _requests(location):
    return [KNNRequest(location, k=3),
            WindowRequest(location, 0.2, 0.16),
            RangeRequest(location, 0.09),
            RKNNRequest(location, k=2),
            ProbKNNRequest(location, 0.01, k=2)]


def _clamp(v: float) -> float:
    return min(max(v, 0.0), 1.0)


class SubscriptionMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16), x=unit, y=unit)
    def start(self, seed, x, y):
        rng = random.Random(seed)
        self.rng = rng
        points = [(rng.random(), rng.random()) for _ in range(N_POINTS)]
        self.live = dict(enumerate(points))
        self.next_oid = N_POINTS
        self.service = build_service(
            points, universe=UNIT, cache=CacheConfig(), replicas=2,
            replica=ReplicaConfig(replication_lag=2, default_max_stale=2))
        self.subs = [self.service.subscribe(r) for r in _requests((x, y))]
        self.where = {sub.sid: (x, y) for sub in self.subs}
        self.invalidated = set()

    def teardown(self):
        service = getattr(self, "service", None)
        if service is not None:
            service.close()

    # -- rules -----------------------------------------------------------
    @rule(i=st.integers(0, 4), dx=step, dy=step)
    def insert_near_a_subscriber(self, i, dx, dy):
        sx, sy = self.where[self.subs[i].sid]
        x, y = _clamp(sx + dx), _clamp(sy + dy)
        self.service.insert_object(self.next_oid, x, y)
        self.live[self.next_oid] = (x, y)
        self.next_oid += 1

    @rule(i=st.integers(0, 4), j=st.integers(0, 63))
    def delete_a_member(self, i, j):
        result = self.subs[i].response.result
        live = [e.oid for e in result if e.oid in self.live]
        if not live:
            return
        oid = live[j % len(live)]
        x, y = self.live.pop(oid)
        self.service.delete_object(oid, x, y)

    @rule(i=st.integers(0, 4), u=unit, v=unit)
    def move_inside_the_region(self, i, u, v):
        sub = self.subs[i]
        box = sub.response.region.mbr()
        p = (box.xmin + u * (box.xmax - box.xmin),
             box.ymin + v * (box.ymax - box.ymin))
        if sub.response.region.contains(p):
            self._move(sub, p)

    @rule(i=st.integers(0, 4), x=unit, y=unit)
    def move_anywhere(self, i, x, y):
        self._move(self.subs[i], (x, y))

    @rule()
    def drain(self):
        for sub in self.subs:
            self._drain(sub)

    def _drain(self, sub):
        updates = sub.drain()
        if updates and updates[-1].kind == "invalidate":
            self.invalidated.add(sub.sid)

    def _move(self, sub, location):
        self._drain(sub)  # the client protocol: drain, then move
        response = sub.move(location)
        assert response is sub.response
        self.where[sub.sid] = location
        self.invalidated.discard(sub.sid)

    # -- the invariant ---------------------------------------------------
    @invariant()
    def every_live_subscription_answers_correctly(self):
        if not hasattr(self, "subs"):
            return
        entries = [LeafEntry(oid, x, y) for oid, (x, y) in self.live.items()]
        for sub in self.subs:
            if sub.sid in self.invalidated or sub.pending:
                continue
            response = sub.response
            region = response.region
            ids = {e.oid for e in response.result}
            probes = [self.where[sub.sid]]
            box = region.mbr()
            for _ in range(PROBES):
                probes.append((
                    box.xmin + self.rng.random() * (box.xmax - box.xmin),
                    box.ymin + self.rng.random() * (box.ymax - box.ymin)))
            sem = query_semantics(sub.request)
            for p in probes:
                if not region.contains(p):
                    continue
                must, may = sem.oracle(entries,
                                       sem.refetch_request(sub.request, p))
                assert must <= ids <= may, (
                    f"{sub.kind} subscription at {self.where[sub.sid]} "
                    f"answers {sorted(ids)} at {p}: missing "
                    f"{sorted(must - ids)}, impossible {sorted(ids - may)}")


SubscriptionMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None)
test_subscriptions_answer_as_brute_force_does = SubscriptionMachine.TestCase
