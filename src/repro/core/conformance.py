"""A reusable conformance suite for registered query types.

Any :class:`~repro.core.api.QuerySemantics` — builtin or third-party —
must uphold the same contracts the service tiers rely on.  This module
checks them against a brute-force oracle so new query types get the
full battery for free:

* **registration** — the semantics object is reachable through the
  registry by kind and by request type;
* **region soundness** — the answer is a
  :class:`~repro.core.api.Response`, matches the type's oracle and
  ships a region containing the query location;
* **cache round-trip** — cache keys are deterministic, and a cached
  response re-served through :meth:`serve_cached` keeps the result set;
* **the mutation rule** — :meth:`certify` returns ``None`` or a
  :class:`~repro.core.api.Response`, the answer itself for no
  mutations, and a copy that only shrinks the region keeps the very
  ``result`` list.  It is tried against mutations aimed at the answer's
  decision boundaries (inserts on rings just inside and just outside
  the farthest member's distance, an insert at the query location, a
  delete of each member) and a few uniform ones, each alone and each
  list folded one at a time as the subscription hub does.  An answer
  whose region is a disk or an annulus also meets two rings placed
  from that region's radius, beyond the farthest member and short of
  the nearest non-member, close enough to shrink it.  Every answer
  it certifies must hold the query location in a region inside the one
  it was given, and agree with a fresh execute on the dataset mutated
  so far at the location and at probes across its region;
* **the reach box** — when :meth:`reach` returns one, every member lies
  inside it, and :meth:`certify` returns the answer itself for an
  insert and for a non-member delete just outside each side of the box
  and far from it.

The probes re-ask the request elsewhere through
:meth:`~repro.core.api.QuerySemantics.refetch_request`, which a kind
under test must therefore implement.

Use :func:`check_semantics` directly from a test::

    check_semantics("rknn", points, [RKNNRequest((0.4, 0.6), k=2)])
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional, Sequence

from repro.core.api import Mutation, QuerySemantics, Response, query_semantics
from repro.core.server import LocationServer

__all__ = ["check_semantics"]

_EPS = 1e-9
_PROBES = 16
#: Directions of the rings of inserts around the farthest member's
#: distance: just inside it (the insert joins the answer at the query
#: location) and just outside it (it may shrink the region).
_RING = 16
_RING_SCALES = (0.999, 1.001)
#: Offsets, in the region's own radius, of two more rings for an answer
#: whose region is a disk or an annulus: past the farthest member and
#: short of the nearest non-member.  The rings above mostly fall inside
#: a range-like query, so their inserts join the answer; these can land
#: just outside it, where a sound ``certify`` shrinks the region.
_FARTHEST_OFFSET = 1.5
_NEAREST_OFFSET = -0.5


def _result_ids(response) -> set:
    return {e.oid for e in response.result}


def _random_mutations(server: LocationServer, rng: random.Random,
                      count: int, next_oid: int) -> list:
    entries = list(server.tree.points())
    universe = server.universe
    muts = []
    for i in range(count):
        if entries and rng.random() < 0.5:
            victim = rng.choice(entries)
            muts.append(Mutation("delete", victim.oid, victim.x, victim.y))
        else:
            x = universe.xmin + rng.random() * universe.width
            y = universe.ymin + rng.random() * universe.height
            muts.append(Mutation("insert", next_oid + i, x, y))
    return muts


def _targeted_mutations(response, loc, entries, next_oid: int) -> list:
    """Mutations at the answer's decision boundaries."""
    qx, qy = float(loc[0]), float(loc[1])
    muts = [Mutation("insert", next_oid, qx, qy)]

    def ring(distance: float) -> None:
        for i in range(_RING):
            angle = 2.0 * math.pi * i / _RING
            muts.append(Mutation("insert", next_oid + len(muts),
                                 qx + distance * math.cos(angle),
                                 qy + distance * math.sin(angle)))

    members = _result_ids(response)
    reach = max((math.hypot(e.x - qx, e.y - qy) for e in response.result),
                default=0.0)
    if reach > 0.0:
        for scale in _RING_SCALES:
            ring(scale * reach)
    # A disk's radius or an annulus's outer one.
    region = response.region
    radius = getattr(region, "radius", getattr(region, "outer", None))
    if radius is not None and 0.0 < radius < math.inf:
        ring(reach + _FARTHEST_OFFSET * radius)
        nearest = min((math.hypot(e.x - qx, e.y - qy) for e in entries
                       if e.oid not in members), default=None)
        if nearest is not None:
            ring(nearest + _NEAREST_OFFSET * radius)
    muts.extend(Mutation("delete", e.oid, e.x, e.y) for e in response.result)
    return muts


def _outside(box) -> list:
    """Points one float step outside each side of a bounded ``box`` (at
    both ends and the middle of the side) and far from it."""
    if not all(map(math.isfinite, box)):
        return []
    xs = (box.xmin, (box.xmin + box.xmax) / 2.0, box.xmax)
    ys = (box.ymin, (box.ymin + box.ymax) / 2.0, box.ymax)
    left = math.nextafter(box.xmin, -math.inf)
    right = math.nextafter(box.xmax, math.inf)
    below = math.nextafter(box.ymin, -math.inf)
    above = math.nextafter(box.ymax, math.inf)
    far = 10.0 * max(box.xmax - box.xmin, box.ymax - box.ymin, 1.0)
    return ([(left, y) for y in ys] + [(right, y) for y in ys]
            + [(x, below) for x in xs] + [(x, above) for x in xs]
            + [(xs[1] + far * dx, ys[1] + far * dy)
               for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy])


def _check_reach(sem, request, response, universe, entries,
                 next_oid: int) -> None:
    """The promise of a reach box: the members inside, and no insert or
    non-member delete outside it changes the certified region."""
    box = sem.reach(request, response)
    if box is None:
        return
    for e in response.result:
        assert box.xmin <= e.x <= box.xmax and box.ymin <= e.y <= box.ymax, \
            f"{sem.kind}: member {e.oid} at ({e.x:.6g}, {e.y:.6g}) lies " \
            f"outside the reach box {tuple(box)}"
    members = {e.oid for e in response.result}
    other = min((e.oid for e in entries if e.oid not in members),
                default=next_oid + 1)
    for x, y in _outside(box):
        for m in (Mutation("insert", next_oid, x, y),
                  Mutation("delete", other, x, y)):
            assert sem.certify(request, response, (m,), universe) \
                is response, \
                f"{sem.kind}: certify changes the answer for the {m.op} " \
                f"of oid {m.oid} at ({x!r}, {y!r}), outside the reach box " \
                f"{tuple(box)}"


def _probes(region, universe, rng: random.Random):
    """Up to ``_PROBES`` random points inside ``region``."""
    try:
        box = region.mbr()
    except (AttributeError, ValueError):
        box = None
    if box is None:
        box = universe
    for _ in range(_PROBES):
        p = (box.xmin + rng.random() * (box.xmax - box.xmin),
             box.ymin + rng.random() * (box.ymax - box.ymin))
        if region.contains(p):
            yield p


def _fold(sem, request, response, points, mutations, universe,
          rng: random.Random) -> None:
    """Fold ``mutations`` through ``certify`` one at a time, feeding
    every answer back in (after ``None``, a fresh execute, as the hub
    refetches), and check each against the dataset mutated so far."""
    server = LocationServer.from_points(points)
    live = {e.oid for e in server.tree.points()}
    loc = sem.location(request)
    answer = response
    for m in mutations:
        if m.op == "delete" and m.oid not in live:
            continue
        if answer is None:
            answer = sem.execute(server, request)
        after = sem.certify(request, answer, (m,), universe)
        if m.op == "insert":
            server.insert_object(m.oid, m.x, m.y)
            live.add(m.oid)
        else:
            server.delete_object(m.oid, m.x, m.y)
            live.discard(m.oid)
        if after is None:
            answer = None
            continue
        assert isinstance(after, Response), \
            f"{sem.kind}: certify returned a {type(after).__name__}, " \
            f"not None or a repro.Response"
        what = ("kept" if after is answer else
                "shrank" if after.result is answer.result else "patched")
        label = f"{sem.kind}: certify {what} a region the {m.op} of " \
                f"oid {m.oid} at ({m.x:.6g}, {m.y:.6g})"
        ids = _result_ids(after)
        if after.result is not answer.result:
            assert ids != _result_ids(answer), \
                f"{sem.kind}: certify copied the result list unchanged " \
                f"for the {m.op} of oid {m.oid}: a region-only change " \
                f"keeps the result list itself"
        assert after.region.contains(loc, _EPS), \
            f"{label} to one excluding the query location"
        for p in [loc] + list(_probes(after.region, universe, rng)):
            assert answer.region.contains(p, _EPS), \
                f"{label} to one reaching beyond the original at {p}"
            fresh = sem.execute(server, sem.refetch_request(request, p))
            assert _result_ids(fresh) == ids, f"{label} invalidates at {p}"
        answer = after


def check_semantics(kind, points: Sequence, requests: Iterable,
                    num_mutations: int = 12,
                    rng: Optional[random.Random] = None) -> None:
    """Assert the full semantics contract for ``kind`` over ``points``.

    ``kind`` is a registry kind string or a semantics instance;
    ``requests`` are concrete request objects of that type.  Raises
    ``AssertionError`` with a labelled message on the first violation.
    """
    sem = (query_semantics(kind) if isinstance(kind, str)
           else kind)
    assert isinstance(sem, QuerySemantics), sem
    assert sem.kind, "semantics must declare a kind"
    assert query_semantics(sem.kind) is sem, \
        f"{sem.kind!r} does not resolve to this semantics in the registry"

    rng = rng if rng is not None else random.Random(0)
    server = LocationServer.from_points(points)
    entries = list(server.tree.points())
    universe = server.universe
    next_oid = max((e.oid for e in entries), default=-1) + 1
    uniform = _random_mutations(server, rng, num_mutations, next_oid)
    next_oid += num_mutations

    for request in requests:
        if sem.request_type is not None:
            assert isinstance(request, sem.request_type), request
            assert query_semantics(request) is sem, \
                "request type does not resolve to this semantics"
        response = sem.execute(server, request)
        assert type(response) is Response, \
            f"{sem.kind}: execute returned a {type(response).__name__}, " \
            f"not a repro.Response"
        loc = sem.location(request)
        ids = _result_ids(response)

        # --- region soundness ----------------------------------------
        assert response.region.contains(loc, _EPS), \
            f"{sem.kind}: region excludes its own query location"
        must, may = sem.oracle(entries, request)
        assert must <= ids, (f"{sem.kind}: answer misses mandatory ids "
                             f"{sorted(must - ids)[:5]}")
        assert ids <= may, (f"{sem.kind}: answer has impossible ids "
                            f"{sorted(ids - may)[:5]}")

        # --- cache round-trip ----------------------------------------
        key = sem.cache_key(request)
        assert key == sem.cache_key(request), \
            f"{sem.kind}: cache key is not deterministic"
        if key is not None:
            assert key[0] == sem.kind, \
                f"{sem.kind}: cache key must lead with the kind"
            served = sem.serve_cached(request, response)
            assert _result_ids(served) == ids, \
                f"{sem.kind}: serve_cached changed the result set"

        # --- the mutation rule ---------------------------------------
        unchanged = sem.certify(request, response, (), universe)
        assert unchanged is response, \
            f"{sem.kind}: certify of no mutations returned a " \
            f"{type(unchanged).__name__}, not the answer itself"
        _check_reach(sem, request, response, universe, entries, next_oid)
        targeted = _targeted_mutations(response, loc, entries, next_oid)
        for m in targeted + uniform:
            _fold(sem, request, response, points, [m], universe, rng)
        for mutations in (targeted, uniform):
            _fold(sem, request, response, points, mutations, universe, rng)
