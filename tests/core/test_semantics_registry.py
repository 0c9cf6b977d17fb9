"""The pluggable query-type registry and its conformance contract.

Every query type the service tiers can see — builtin or third-party —
is a :class:`~repro.core.api.QuerySemantics` registered by kind.  This
battery pins the registry mechanics (lookup by kind, by request type,
by duck-typed ``kind`` attribute), runs the reusable conformance suite
over all five builtin kinds, registers a brand-new toy query type end
to end (service answer, validity cache, conformance — with zero
changes to any service module), shows every server shape and the
conformance suite refusing an answer that is not a ``Response``, the
conformance suite catching unsound mutation certificates and the
registry refusing removed hooks,
checks delta-protocol parity for kNN, window and range requests on
every server shape, and enforces the refactor invariant itself: no
``isinstance(request, ...)`` dispatch ladder anywhere in
``repro.service``.
"""

from __future__ import annotations

import collections
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap
from dataclasses import dataclass, replace
from typing import ClassVar, List, Optional, Tuple

import pytest

import repro
import repro.service as service_pkg
from repro import (
    AdmissionConfig,
    CacheConfig,
    LocationServer,
    QueryBudget,
    ResilienceConfig,
    build_service,
)
from repro.core import api as api_module
from repro.core.api import (
    KNNRequest,
    QueryDetail,
    QueryRequest,
    QuerySemantics,
    RangeRequest,
    Response,
    WindowRequest,
    query_semantics,
    register_query_type,
    registered_query_kinds,
)
from repro.core.conformance import check_semantics
from repro.core.probknn import ProbKNNRequest
from repro.core.rknn import RKNNRequest, RKNNSemantics
from repro.core.semantics import KNNSemantics, RangeSemantics, WindowSemantics
from repro.service.admission import LEVEL_REDUCED
from repro.core.validity import AnnulusValidityRegion, POINT_BYTES
from repro.geometry import bisector_halfplane


def _points(seed: int = 9, n: int = 150):
    rnd = random.Random(seed)
    return [(rnd.random(), rnd.random()) for _ in range(n)]


#: ``build_service`` keywords of the three server shapes.
STACKS = {
    "single": {},
    "sharded": {"shards": 2},
    "replicated": {"replicas": 2},
}

#: The three shapes, plus a single tree with a default budget: the
#: service applies that budget inside the trace, after the lookup.
REFUSING_STACKS = {
    **STACKS,
    "budgeted": {"resilience": ResilienceConfig(
        default_budget=QueryBudget(deadline_ms=50))},
}

#: A fresh interpreter whose eight threads make their first registry
#: lookups at once; prints how many of them found no semantics.
_FIRST_LOOKUP_RACE = textwrap.dedent("""
    import sys
    import threading

    from repro.core.api import KNNRequest, query_semantics

    sys.setswitchinterval(1e-6)
    barrier = threading.Barrier(8)
    errors = []

    def first_lookup():
        barrier.wait()
        try:
            query_semantics(KNNRequest((0.5, 0.5)))
        except TypeError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=first_lookup) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    print(len(errors))
""")


class TestRegistryLookup:
    def test_all_builtin_kinds_are_registered(self):
        assert set(registered_query_kinds()) >= {
            "knn", "window", "range", "rknn", "probknn"}

    def test_lookup_by_kind_request_type_and_duck_typing(self):
        sem = query_semantics("rknn")
        assert query_semantics(RKNNRequest((0.5, 0.5), k=1)) is sem

        class _Duck:
            kind = "rknn"
        assert query_semantics(_Duck()) is sem

    def test_requests_satisfy_the_open_protocol(self):
        for request in (KNNRequest((0.1, 0.2), k=1),
                        WindowRequest((0.1, 0.2), 0.1, 0.1),
                        RangeRequest((0.1, 0.2), 0.1),
                        RKNNRequest((0.1, 0.2), k=1),
                        ProbKNNRequest((0.1, 0.2), uncertainty=0.01)):
            assert isinstance(request, QueryRequest)

    def test_unknown_kind_and_non_request_raise(self):
        with pytest.raises(TypeError):
            query_semantics("no-such-kind")
        with pytest.raises(TypeError):
            query_semantics(object())

    def test_racing_first_lookups_all_find_the_builtins(self):
        """The builtins load on the first lookup; a thread arriving
        while another loads them waits instead of seeing an empty
        registry.  This process loaded it long ago, so the race runs in
        a fresh interpreter."""
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _FIRST_LOOKUP_RACE],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "0"

    @pytest.mark.parametrize("stack", sorted(REFUSING_STACKS))
    def test_every_stack_refuses_an_unregistered_request(self, stack):
        """Inside its trace, before any default budget is applied."""
        service = build_service(_points(), **REFUSING_STACKS[stack])
        message = "no query type registered for kind 'bogus'"
        try:
            with pytest.raises(TypeError, match=message):
                service.answer("bogus")
            (trace,) = service.recent_traces()
            assert message in trace.error
            assert service.metrics.snapshot()["counters"][
                "service.errors"] == 1
        finally:
            service.close()

    def test_a_plain_class_request_of_a_registered_kind_fails_traced(self):
        """Only dataclass requests reach the brownout budget clamp."""
        class DuckKNN:
            kind = "knn"
            trace_id = None
            budget = None

        service = build_service(_points(), resilience=ResilienceConfig(
            admission=AdmissionConfig()))
        service.admission.forced_level = LEVEL_REDUCED
        with pytest.raises(TypeError, match="not a request dataclass"):
            service.answer(DuckKNN())
        (trace,) = service.recent_traces()
        assert "not a request dataclass" in trace.error
        assert service.metrics.snapshot()["counters"]["service.errors"] == 1

    def test_registration_refuses_a_plain_class_request_type(self):
        class PlainRequest:
            kind = "plain"

        plain = type("PlainSemantics", (NearCountSemantics,), {
            "kind": "plain", "request_type": PlainRequest})
        with pytest.raises(TypeError, match="must be a dataclass"):
            register_query_type(plain())
        assert "plain" not in registered_query_kinds()


class TestBuiltinConformance:
    @pytest.mark.parametrize("kind,requests", [
        ("knn", [KNNRequest((0.4, 0.6), k=3), KNNRequest((0.9, 0.1), k=1)]),
        ("window", [WindowRequest((0.5, 0.5), 0.2, 0.1)]),
        ("range", [RangeRequest((0.3, 0.3), 0.15)]),
        ("rknn", [RKNNRequest((0.4, 0.6), k=2), RKNNRequest((0.7, 0.2), k=4)]),
        ("probknn", [ProbKNNRequest((0.4, 0.6), uncertainty=0.03, k=3),
                     ProbKNNRequest((0.6, 0.4), uncertainty=0.01, k=1)]),
    ])
    def test_check_semantics_passes(self, kind, requests):
        check_semantics(kind, _points(), requests)


# --- a third-party query type, registered without touching the service ----

@dataclass(frozen=True)
class NearCountRequest:
    """Toy type: the ids within a fixed disk, plus how many there are."""

    kind: ClassVar[str] = "nearcount"

    location: Tuple[float, float]
    radius: float = 0.1
    trace_id: Optional[str] = None
    budget: Optional[object] = None
    max_stale: Optional[int] = None


@dataclass
class NearCountDetail(QueryDetail):
    kind = "nearcount"
    query: Tuple[float, float]
    radius: float
    safety_radius: float
    degraded: bool = False


class NearCountSemantics(QuerySemantics):
    kind = "nearcount"
    request_type = NearCountRequest

    def execute(self, server, request):
        cx, cy = request.location
        hits, slack = [], math.hypot(server.universe.width,
                                     server.universe.height)
        for e in server.dataset_columns().entries:
            d = math.hypot(e.x - cx, e.y - cy)
            slack = min(slack, abs(d - request.radius))
            if d <= request.radius:
                hits.append(e)
        hits.sort(key=lambda e: e.oid)
        server.queries_processed += 1
        detail = NearCountDetail(query=(cx, cy), radius=request.radius,
                                 safety_radius=slack)
        return Response(hits, AnnulusValidityRegion((cx, cy), 0.0, slack),
                        detail)

    def cache_key(self, request):
        return ("nearcount", request.radius)

    def certify(self, request, response, mutations, universe):
        region = response.region
        rho = region.outer
        ids = {e.oid for e in response.result}
        for m in mutations:
            if m.op == "delete":
                if m.oid in ids:
                    return None  # a member vanishes
                continue  # a non-member is out of range all over
            d = math.hypot(m.x - region.center[0], m.y - region.center[1])
            if d <= request.radius:
                return None  # the insert joins the count
            rho = min(rho, d - request.radius)
        if rho >= region.outer:
            return response
        shrunk = AnnulusValidityRegion(region.center, 0.0, rho)
        return (replace(response, region=shrunk)
                if shrunk.contains(request.location) else None)

    def refetch_request(self, request, location):
        return replace(request, location=(float(location[0]),
                                          float(location[1])))

    def oracle(self, points, request):
        eps = 1e-9
        cx, cy = request.location
        must, may = set(), set()
        for e in points:
            d = math.hypot(e.x - cx, e.y - cy)
            if d < request.radius - eps:
                must.add(e.oid)
            if d <= request.radius + eps:
                may.add(e.oid)
        return must, may


register_query_type(NearCountSemantics())


@dataclass
class NearCountResponse:
    """A plugin-defined response class, which v8.0 no longer serves."""

    result: List
    region: AnnulusValidityRegion
    detail: NearCountDetail

    def transfer_bytes(self) -> int:
        return POINT_BYTES * len(self.result) + self.region.transfer_bytes()


class OwnResponseClass(NearCountSemantics):
    def execute(self, server, request):
        full = super().execute(server, request)
        return NearCountResponse(full.result, full.region, full.detail)


def _swap(monkeypatch, sem):
    """Register ``sem`` for the length of one test."""
    monkeypatch.setitem(api_module._REGISTRY, sem.kind, sem)
    monkeypatch.setitem(api_module._BY_TYPE, sem.request_type, sem)


class TestThirdPartyType:
    def test_conformance(self):
        check_semantics("nearcount", _points(),
                        [NearCountRequest((0.5, 0.5), radius=0.12),
                         NearCountRequest((0.2, 0.8), radius=0.05)])

    def test_answers_through_the_full_service_with_caching(self):
        points = _points()
        service = build_service(points, cache=CacheConfig(capacity=32))
        try:
            request = NearCountRequest((0.5, 0.5), radius=0.1)
            first = service.answer(request)
            second = service.answer(request)
            expected = sorted(
                i for i, p in enumerate(points)
                if math.dist(p, (0.5, 0.5)) <= 0.1)
            assert [e.oid for e in first.result] == expected
            assert [e.oid for e in second.result] == expected
            stats = service.stats_snapshot()["cache"]
            assert stats["hits"] >= 1
        finally:
            service.close()

    def test_subscribe_rejects_types_without_subscription_support(self):
        service = build_service(_points())
        try:
            with pytest.raises(ValueError):
                service.subscribe(NearCountRequest((0.5, 0.5)))
        finally:
            service.close()

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_every_stack_refuses_a_response_of_another_class(
            self, stack, monkeypatch):
        """An answer is a ``Response`` itself: a kind shipping its own
        response class, as before v8.0, fails naming the kind."""
        _swap(monkeypatch, OwnResponseClass())
        with build_service(_points(), **STACKS[stack]) as service:
            with pytest.raises(TypeError,
                               match="'nearcount' kind's execute returned "
                                     "a NearCountResponse"):
                service.answer(NearCountRequest((0.5, 0.5)))

    def test_conformance_refuses_a_response_of_another_class(
            self, monkeypatch):
        _swap(monkeypatch, OwnResponseClass())
        with pytest.raises(AssertionError,
                           match="execute returned a NearCountResponse"):
            check_semantics("nearcount", _points(),
                            [NearCountRequest((0.5, 0.5), radius=0.12)])

    def test_answer_many_rejects_unregistered_requests(self):
        service = build_service(_points())
        try:
            with pytest.raises(TypeError):
                service.answer_many([KNNRequest((0.5, 0.5), k=1), object()])
        finally:
            service.close()


class TestMutationCertificate:
    """``certify`` is the one mutation hook; the conformance suite aims
    mutations at decision boundaries, so it catches the rules that the
    uniform mutations of earlier versions let through."""

    @pytest.mark.parametrize("hook,replacement", [
        ("cache_survives", "certify"),
        ("stale_region", "certify"),
        ("shard_execute", "execute"),
        ("continuous_apply", "certify"),
        ("continuous_move", "serve_cached"),
    ], ids=["cache_survives", "stale_region", "shard_execute",
            "continuous_apply", "continuous_move"])
    def test_registering_a_removed_hook_raises(self, hook, replacement):
        legacy = type("LegacyNearCount", (NearCountSemantics,), {
            "kind": "nearcount-legacy",
            hook: lambda self, *args: None})
        with pytest.raises(TypeError, match=rf"{hook}, .*\b{replacement}\("):
            register_query_type(legacy())
        assert "nearcount-legacy" not in registered_query_kinds()

    def test_suite_catches_a_certified_in_radius_insert(self, monkeypatch):
        class InRadius(NearCountSemantics):
            """The rule before v3.0: an insert anywhere caps the radius
            at its distance from the circle, inside it too."""

            def certify(self, request, response, mutations, universe):
                region = response.region
                rho = region.outer
                ids = {e.oid for e in response.result}
                for m in mutations:
                    if m.op == "delete" and m.oid in ids:
                        return None
                    rho = min(rho, abs(math.dist((m.x, m.y), region.center)
                                       - request.radius))
                return (response if rho >= region.outer else
                        replace(response, region=AnnulusValidityRegion(
                            region.center, 0.0, rho)))

        _swap(monkeypatch, InRadius())
        with pytest.raises(AssertionError, match="invalidates"):
            check_semantics("nearcount", _points(),
                            [NearCountRequest((0.5, 0.5), radius=0.12)])

    def test_suite_catches_a_corner_test_of_the_first_neighbour(
            self, monkeypatch):
        class FirstNeighbour(KNNSemantics):
            """A corner generator shared by every neighbour: only the
            first neighbour's bisector sees the corners."""

            def certify(self, request, response, mutations, universe):
                (m,) = mutations or (None,)
                if m is None or m.op == "delete":
                    return super().certify(request, response, mutations,
                                           universe)
                corners = response.region.mbr().corners()
                for n in response.result:
                    halfplane = bisector_halfplane(n.point, (m.x, m.y))
                    if not all(halfplane.contains(c) for c in corners):
                        return None
                return response

        _swap(monkeypatch, FirstNeighbour())
        with pytest.raises(AssertionError, match="invalidates"):
            check_semantics("knn", _points(), [KNNRequest((0.4, 0.6), k=3)])

    def test_suite_refuses_a_certify_returning_a_region(self, monkeypatch):
        class Regions(RangeSemantics):
            """The rule before v10.0: a shrunk region, not an answer."""

            def certify(self, request, response, mutations, universe):
                after = super().certify(request, response, mutations,
                                        universe)
                if after is None or after is response:
                    return after
                return after.region

        _swap(monkeypatch, Regions())
        with pytest.raises(AssertionError, match=(
                r"^range: certify returned a ValidityDisk, "
                r"not None or a repro\.Response")):
            check_semantics("range", _points(),
                            [RangeRequest((0.3, 0.3), 0.15)])

    def test_suite_refuses_a_region_only_copy_with_a_new_result_list(
            self, monkeypatch):
        class NewList(KNNSemantics):
            def certify(self, request, response, mutations, universe):
                after = super().certify(request, response, mutations,
                                        universe)
                if after is None or after is response:
                    return after
                return replace(after, result=list(after.result))

        _swap(monkeypatch, NewList())
        with pytest.raises(AssertionError,
                           match="keeps the result list itself"):
            check_semantics("knn", _points(), [KNNRequest((0.4, 0.6), k=3)])

    def test_suite_folds_mutations_through_the_carried_detail(
            self, monkeypatch):
        class Forgets(RKNNSemantics):
            """Right for one mutation, but each copy carries the
            competitor lists it was given, not the folded ones."""

            def certify(self, request, response, mutations, universe):
                after = super().certify(request, response, mutations,
                                        universe)
                if after is None or after is response:
                    return after
                return replace(after, detail=response.detail)

        _swap(monkeypatch, Forgets())
        with pytest.raises(AssertionError, match="invalidates"):
            check_semantics("rknn", _points(),
                            [RKNNRequest((0.4, 0.6), k=2),
                             RKNNRequest((0.7, 0.2), k=4)])

    @pytest.mark.parametrize("base,requests", [
        (RangeSemantics, [RangeRequest((0.3, 0.3), 0.15)]),
        (NearCountSemantics, [NearCountRequest((0.5, 0.5), radius=0.12),
                              NearCountRequest((0.2, 0.8), radius=0.05)]),
    ], ids=["range", "nearcount"])
    def test_suite_reaches_shrunk_copies_of_disks_and_annuli(
            self, monkeypatch, base, requests):
        """The rings placed from the region's radius give certify an
        insert outside the query that shrinks the region, so the fold
        and probe checks see shrunk copies, not only kept and dropped
        answers."""
        outcomes = collections.Counter()

        class Counted(base):
            def certify(self, request, response, mutations, universe):
                after = super().certify(request, response, mutations,
                                        universe)
                if mutations:
                    outcomes["same" if after is response else
                             "none" if after is None else
                             "shrunk" if after.result is response.result
                             else "patched"] += 1
                return after

        _swap(monkeypatch, Counted())
        check_semantics(base.kind, _points(), requests)
        assert outcomes["shrunk"] >= 1, dict(outcomes)

    def test_suite_catches_a_forgotten_shrink(self, monkeypatch):
        class Forgets(NearCountSemantics):
            """Keeps the whole annulus where it should shrink it."""

            def certify(self, request, response, mutations, universe):
                after = super().certify(request, response, mutations,
                                        universe)
                return None if after is None else response

        _swap(monkeypatch, Forgets())
        with pytest.raises(AssertionError, match="kept a region .* "
                                                 "invalidates"):
            check_semantics("nearcount", _points(),
                            [NearCountRequest((0.5, 0.5), radius=0.12)])


class TestReachBox:
    """A kind's ``reach`` box is checked by the conformance suite: its
    members inside, ``certify`` keeping the region outside it."""

    def test_builtin_boxes_hold_their_members_and_the_none_kinds(self):
        points = _points()
        server = LocationServer.from_points(points)
        for request in (KNNRequest((0.4, 0.6), k=3),
                        WindowRequest((0.5, 0.5), 0.2, 0.1),
                        RangeRequest((0.3, 0.3), 0.15)):
            sem = query_semantics(request)
            response = server.answer(request)
            box = sem.reach(request, response)
            assert box is not None
            assert box.contains_rect(response.region.mbr())
            assert all(box.contains_point(e.point) for e in response.result)
        for request in (RKNNRequest((0.4, 0.6), k=2),
                        ProbKNNRequest((0.4, 0.6), uncertainty=0.03, k=3)):
            assert query_semantics(request).reach(
                request, server.answer(request)) is None

    def test_suite_catches_a_window_reach_without_the_half_window(
            self, monkeypatch):
        class BareRect(WindowSemantics):
            """The validity rectangle alone: an insert just outside it
            still has a window reaching into it."""

            def reach(self, request, response):
                return response.region.rect

        _swap(monkeypatch, BareRect())
        with pytest.raises(AssertionError, match="outside the reach box"):
            check_semantics("window", _points(),
                            [WindowRequest((0.5, 0.5), 0.2, 0.1)])

    def test_suite_catches_a_knn_reach_from_the_nearest_member(
            self, monkeypatch):
        class Nearest(KNNSemantics):
            """The region's MBR widened by the nearest member's distance
            instead of the farthest's."""

            def reach(self, request, response):
                box = response.region.mbr()
                near = min(math.hypot(cx - n.x, cy - n.y)
                           for cx, cy in box.corners()
                           for n in response.result)
                return box.inflated(near, near)

        _swap(monkeypatch, Nearest())
        with pytest.raises(AssertionError, match="outside the reach box"):
            check_semantics("knn", _points(), [KNNRequest((0.4, 0.6), k=3)])

    def test_suite_catches_a_member_outside_the_box(self, monkeypatch):
        class Disk(type(query_semantics("range"))):
            """The validity disk's MBR: members lie farther out."""

            def reach(self, request, response):
                return response.region.mbr()

        _swap(monkeypatch, Disk())
        with pytest.raises(AssertionError, match="lies outside the reach"):
            check_semantics("range", _points(),
                            [RangeRequest((0.3, 0.3), 0.15)])


class TestDeltaParity:
    """Every server shape answers kNN, window and range requests in the
    §7 delta protocol, and a delta costs what its full twin costs."""

    @pytest.mark.parametrize("stack", sorted(STACKS))
    @pytest.mark.parametrize("request_", [
        WindowRequest((0.5, 0.5), 0.3, 0.3),
        RangeRequest((0.5, 0.5), 0.2),
        KNNRequest((0.5, 0.5), k=6),
    ])
    def test_as_delta_reconstructs_the_full_result(self, request_, stack):
        points = _points()
        service = build_service(points, **STACKS[stack])
        try:
            full = service.answer(request_)
            previous = [e.oid for e in full.result][:-2]  # stale client
            delta = service.answer(request_.as_delta(previous))
            reconstructed = sorted(
                set(previous) - set(delta.removed_ids)
                | {e.oid for e in delta.added})
            assert reconstructed == sorted(e.oid for e in full.result)
            assert len(delta.added) >= 2
        finally:
            service.close()

    def test_a_knn_delta_keeps_its_vertex_policy(self):
        server = LocationServer.from_points(_points(n=2000))
        rnd = random.Random(4)
        drifted = []
        for _ in range(30):
            full = KNNRequest((rnd.random(), rnd.random()), k=5,
                              vertex_policy="farthest")
            costs = []
            for request in (full, full.as_delta(())):
                with server.io_stats.measure() as io:
                    detail = server.answer(request).detail
                costs.append((io.total_node_accesses, detail.num_tp_queries))
            if costs[0] != costs[1]:
                drifted.append((full.location, costs))
        assert drifted == []

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_a_delta_with_an_unknown_vertex_policy_raises(self, stack):
        service = build_service(_points(), **STACKS[stack])
        try:
            with pytest.raises(ValueError, match="vertex policy"):
                service.answer(KNNRequest((0.5, 0.5), k=3,
                                          vertex_policy="bogus",
                                          previous_ids=(1, 2)))
        finally:
            service.close()


def test_no_isinstance_dispatch_ladders_left_in_the_service_tier():
    """The refactor invariant itself: the service modules consult the
    registry, never the concrete request classes."""
    root = pathlib.Path(service_pkg.__file__).parent
    pattern = re.compile(r"isinstance\(\s*request\s*,")
    offenders = [p.name for p in sorted(root.glob("*.py"))
                 if pattern.search(p.read_text())]
    assert offenders == [], (
        f"isinstance(request, ...) dispatch found in {offenders}")


class TestHookTable:
    """docs/QUERIES.md's hook table is the one list of hooks, as
    docs/API.md is for ``checkapi``."""

    def test_the_table_names_exactly_the_public_hooks(self):
        queries = pathlib.Path(__file__).resolve().parents[2] / "docs" \
            / "QUERIES.md"
        section = queries.read_text().split(
            "## The `QuerySemantics` hook contract", 1)[1].split("\n## ", 1)[0]
        rows = [re.match(r"\| `(\w+)", line).group(1)
                for line in section.splitlines()
                if re.match(r"\| `\w+", line)]
        hooks = {name for name in dir(QuerySemantics)
                 if not name.startswith("_")
                 and callable(getattr(QuerySemantics, name))}
        assert len(rows) == len(set(rows)), rows
        assert set(rows) == hooks | {"supports_subscriptions"}
