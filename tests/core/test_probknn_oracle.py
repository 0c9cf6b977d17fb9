"""Oracle-backed battery for probabilistic kNN under location uncertainty.

The query models a client that only knows its position to within a
disk of radius ``u``.  The contract has three layers, each checked
against brute force here:

* the **candidate horizon** is exact: precisely the objects within
  ``D_k + 2u`` of the reported centre (tie-aware at the boundary);
* the **certain band** is a worst-case guarantee: a certain candidate
  is in the top-k at *every* sampled position of the uncertainty disk;
* the **validity annulus** freezes the discrete answer: anywhere the
  region claims, a full recompute returns the same candidates in the
  same order with the same band labels.

The battery then drives the same answer through the validity cache,
the stale-serving path, continuous subscriptions under mutation
streams, and a sharded server's thread-pool fan-out.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro import CacheConfig, ContinuousConfig, build_service
from repro.core.probknn import ProbKNNRequest, compute_probknn_validity
from repro.core.server import LocationServer
from repro.service.staleness import Mutation, shrunk_stale_region

from tests.conftest import UNIT

EPS = 1e-9

seeds = st.integers(min_value=0, max_value=2**31 - 1)
ks = st.integers(min_value=1, max_value=4)
us = st.floats(min_value=0.005, max_value=0.05)


def _instance(seed: int, n: int = 150):
    rnd = random.Random(seed)
    points = [(rnd.random(), rnd.random()) for _ in range(n)]
    query = (0.25 + 0.5 * rnd.random(), 0.25 + 0.5 * rnd.random())
    return points, query, rnd


def _brute_sets(live, q, u, k):
    """Tie-aware ``(must, may)`` candidate-horizon id sets."""
    ds = sorted(math.dist(p, q) for p in live.values())
    if not ds:
        return set(), set()
    d_k = ds[min(k, len(ds)) - 1]
    horizon = d_k + 2.0 * u
    must = {oid for oid, p in live.items()
            if math.dist(p, q) < horizon - EPS}
    may = {oid for oid, p in live.items()
          if math.dist(p, q) <= horizon + EPS}
    return must, may


def _prob_ok(live, q, u, served, k):
    must, may = _brute_sets(live, q, u, k)
    return must <= served <= may


def _mutate(service, live, rnd, next_oid, center, spread=0.08):
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
    updates = sub.drain()
    if updates and updates[-1].kind == "invalidate":
        sub.move(pos)
    elif (sub.response is not None
          and not sub.response.region.contains(pos)):
        sub.move(pos)
    return sub.response


class TestProbKnnOracle:
    @given(seeds, ks, us)
    @settings(deadline=None, max_examples=25)
    def test_candidates_match_brute_force(self, seed, k, u):
        points, query, rnd = _instance(seed)
        live = dict(enumerate(points))
        server = LocationServer.from_points(points, universe=UNIT)
        resp = server.answer(ProbKNNRequest(query, uncertainty=u, k=k))
        served = {e.oid for e in resp.result}
        assert _prob_ok(live, query, u, served, k), (
            f"seed={seed} k={k} u={u}: candidate horizon diverged")
        # Candidates arrive closest-first with aligned annotations.
        detail = resp.detail
        assert list(detail.distances) == sorted(detail.distances)
        assert len(detail.bands) == len(resp.result)
        assert len(detail.probabilities) == len(resp.result)
        assert all(0.0 <= p <= 1.0 for p in detail.probabilities)

    @given(seeds, ks, us)
    @settings(deadline=None, max_examples=25)
    def test_certain_band_is_a_worst_case_guarantee(self, seed, k, u):
        """A certain candidate is top-k at every position of the disk."""
        points, query, rnd = _instance(seed)
        server = LocationServer.from_points(points, universe=UNIT)
        resp = server.answer(ProbKNNRequest(query, uncertainty=u, k=k))
        certain = [e for e, band in zip(resp.result, resp.detail.bands)
                   if band == "certain"]
        for _ in range(10):
            angle = rnd.uniform(0.0, 2.0 * math.pi)
            rho = u * math.sqrt(rnd.random())
            s = (query[0] + rho * math.cos(angle),
                 query[1] + rho * math.sin(angle))
            for e in certain:
                d_e = math.dist((e.x, e.y), s)
                rivals = sum(1 for p in points
                             if math.dist(p, s) < d_e - EPS)
                assert rivals <= k - 1, (
                    f"seed={seed} k={k} u={u}: certain candidate "
                    f"{e.oid} loses top-k at disk position {s}")

    @given(seeds, ks, us)
    @settings(deadline=None, max_examples=25)
    def test_discrete_answer_constant_inside_annulus(self, seed, k, u):
        """Anywhere the annulus claims: same candidates, same order,
        same bands as a full recompute."""
        points, query, rnd = _instance(seed)
        server = LocationServer.from_points(points, universe=UNIT)
        entries = list(server.tree.points())
        resp = server.answer(ProbKNNRequest(query, uncertainty=u, k=k))
        rho = resp.region.outer
        if rho <= 0.0:
            return
        served = [e.oid for e in resp.result]
        for _ in range(10):
            angle = rnd.uniform(0.0, 2.0 * math.pi)
            r = rho * math.sqrt(rnd.random()) * 0.9
            probe = (query[0] + r * math.cos(angle),
                     query[1] + r * math.sin(angle))
            fresh, detail = compute_probknn_validity(
                entries, probe, u, k, universe=UNIT)
            assert [e.oid for e in fresh] == served, (
                f"seed={seed} k={k} u={u}: candidates changed at {probe} "
                f"inside the annulus")
            assert detail.bands == resp.detail.bands, (
                f"seed={seed} k={k} u={u}: bands flipped at {probe} "
                f"inside the annulus")

    @given(seeds, ks, us)
    @settings(deadline=None, max_examples=20)
    def test_stale_served_answers_equal_recompute(self, seed, k, u):
        points, query, rnd = _instance(seed, n=100)
        live = dict(enumerate(points))
        server = LocationServer.from_points(points, universe=UNIT)
        request = ProbKNNRequest(query, uncertainty=u, k=k)
        resp = server.answer(request)
        served = {e.oid for e in resp.result}
        pending = []
        for i in range(6):
            x = min(1.0, max(0.0, query[0] + rnd.gauss(0.0, 0.2)))
            y = min(1.0, max(0.0, query[1] + rnd.gauss(0.0, 0.2)))
            pending.append(Mutation("insert", len(points) + i, x, y))
        region = shrunk_stale_region(request, resp, pending, UNIT)
        if region is None:
            return  # refusing to serve stale is always sound
        mutated = dict(live)
        for m in pending:
            mutated[m.oid] = (m.x, m.y)
        assert region.contains(query, EPS)
        assert _prob_ok(mutated, query, u, served, k), (
            f"seed={seed} k={k} u={u}: stale region certified a wrong "
            f"candidate horizon")

    @given(seeds, ks, us)
    @settings(deadline=None, max_examples=10)
    def test_cached_answers_survive_mutation_streams(self, seed, k, u):
        points, query, rnd = _instance(seed, n=100)
        live = dict(enumerate(points))
        service = build_service(points, cache=CacheConfig(capacity=64))
        try:
            next_oid = len(points)
            pos = query
            for step in range(15):
                for _ in range(2):  # the repeat probes the cache
                    resp = service.answer(
                        ProbKNNRequest(pos, uncertainty=u, k=k))
                    assert _prob_ok(live, pos, u,
                                    {e.oid for e in resp.result}, k), (
                        f"seed={seed} k={k} u={u} step={step}: cached "
                        f"probabilistic kNN diverged")
                next_oid = _mutate(service, live, rnd, next_oid, pos)
                if step % 5 == 4:
                    pos = (min(1.0, max(0.0, pos[0] + rnd.gauss(0, 0.02))),
                           min(1.0, max(0.0, pos[1] + rnd.gauss(0, 0.02))))
        finally:
            service.close()

    @given(seeds, ks, us)
    @settings(deadline=None, max_examples=10)
    def test_subscription_tracks_brute_force(self, seed, k, u):
        points, query, rnd = _instance(seed, n=100)
        live = dict(enumerate(points))
        service = build_service(points,
                                continuous=ContinuousConfig(margin=6))
        try:
            sub = service.subscribe(ProbKNNRequest(query, uncertainty=u,
                                                   k=k))
            pos, next_oid = query, len(points)
            for step in range(20):
                next_oid = _mutate(service, live, rnd, next_oid, pos)
                if step % 7 == 6:
                    pos = (min(1.0, max(0.0, pos[0] + rnd.gauss(0, 0.02))),
                           min(1.0, max(0.0, pos[1] + rnd.gauss(0, 0.02))))
                    sub.move(pos)
                current = _sync(sub, pos)
                served = {e.oid for e in current.result}
                assert _prob_ok(live, pos, u, served, k), (
                    f"seed={seed} k={k} u={u} step={step}: subscription "
                    f"diverged from brute force at {pos}")
        finally:
            service.close()


def test_oracle_holds_on_a_sharded_server():
    rnd = random.Random(2718)
    points = [(rnd.random(), rnd.random()) for _ in range(200)]
    live = dict(enumerate(points))
    service = build_service(points, shards=2)
    try:
        next_oid = len(points)
        for step in range(6):
            next_oid = _mutate(service, live, rnd, next_oid, (0.5, 0.5),
                               spread=0.12)
            resp = service.answer(
                ProbKNNRequest((0.5, 0.5), uncertainty=0.02, k=3))
            assert _prob_ok(live, (0.5, 0.5), 0.02,
                            {e.oid for e in resp.result}, 3), (
                f"step {step}: sharded probabilistic kNN diverged")
    finally:
        service.close()


def test_empty_dataset_gives_empty_answer_and_wide_region():
    server = LocationServer.from_points([(0.5, 0.5)], universe=UNIT)
    server.delete_object(0, 0.5, 0.5)
    resp = server.answer(ProbKNNRequest((0.5, 0.5), uncertainty=0.01, k=2))
    assert resp.result == []
    assert resp.region.outer > 1.0  # the universe diagonal
