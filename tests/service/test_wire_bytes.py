"""What every response path ships, pinned byte for byte.

One seeded stream runs through ``build_service`` with a validity cache on
the three server shapes: a single tree, a 2x2 sharded fleet and two
replicas that lag by two mutations and serve reads up to two mutations
stale.  It asks every kind fresh and again from the cache, takes a kNN,
a window and a range delta, subscribes every kind, inserts points next
to the subscriptions (patches and invalidations) and moves each
subscription, and finally reads near the inserts, where a lagging
replica serves stale answers under a shrunk region.

Each thing shipped is checked against the paper's wire model, written
out here independently of the code: a point is 20 bytes (29 with a
probabilistic kNN's probability and band tag), an id 4, a rectangle or
an annulus 32, a disk 24 and a kNN region its influence points plus
one id per pair.  A full answer ships its entries and its region; a
§7 delta and a subscription patch ship the added points, the removed
ids and the region; a replica's answer ships the region it served.
The byte total of each shape's stream is pinned as well (see
``TOTALS``).
"""

import math
import random

import pytest

from repro import (
    KNNRequest,
    ProbKNNRequest,
    RangeRequest,
    RKNNRequest,
    WindowRequest,
    build_service,
)
from repro.core.validity import (
    AnnulusValidityRegion,
    CompositeValidityRegion,
    NNValidityRegion,
    ValidityDisk,
    WindowValidityRegion,
)
from repro.geometry import Rect
from repro.service import CacheConfig, ReplicaConfig

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

POINT, ID, RECT, DISK, ANNULUS = 20, 4, 32, 24, 32
#: A probabilistic kNN entry: a point, an 8-byte probability and a
#: 1-byte band tag.
PROB_POINT = POINT + 9

SHAPES = {
    "single": {},
    "shards": {"shards": 2},
    "replicas": {"replicas": 2,
                 "replica": ReplicaConfig(replication_lag=2,
                                          default_max_stale=2)},
}

#: Each shape's stream total (CHANGES.md has the row arithmetic of
#: each re-pin).
TOTALS = {"single": 25399, "shards": 25743, "replicas": 25435}


def _requests(location):
    """One request of every kind at ``location``."""
    return [KNNRequest(location, k=4),
            WindowRequest(location, 0.15, 0.12),
            RangeRequest(location, 0.07),
            RKNNRequest(location, k=2),
            ProbKNNRequest(location, 0.01, k=3)]


def _region_bytes(region) -> int:
    if isinstance(region, NNValidityRegion):
        return (POINT * len({inf.oid for _res, inf in region.pairs})
                + ID * len(region.pairs))
    if isinstance(region, WindowValidityRegion):
        return RECT
    if isinstance(region, ValidityDisk):
        return DISK
    if isinstance(region, AnnulusValidityRegion):
        return ANNULUS
    if isinstance(region, CompositeValidityRegion):
        return sum(_region_bytes(c) for c in region.components)
    raise AssertionError(f"no wire price for {region!r}")


def _geometry(region):
    """What a region is, for telling a shrunk one from the original."""
    if isinstance(region, NNValidityRegion):
        return ("pairs", tuple((r.oid, i.oid) for r, i in region.pairs))
    if isinstance(region, WindowValidityRegion):
        return ("rect", tuple(region.rect))
    if isinstance(region, ValidityDisk):
        return ("disk", region.center, region.radius)
    if isinstance(region, AnnulusValidityRegion):
        return ("annulus", region.center, region.inner, region.outer)
    if isinstance(region, CompositeValidityRegion):
        return ("and",) + tuple(_geometry(c) for c in region.components)
    raise AssertionError(f"no geometry for {region!r}")


def _delta_bytes(added: int, removed: int, region) -> int:
    return POINT * added + ID * removed + _region_bytes(region)


def _answer_bytes(request, response) -> int:
    """The model's price of an answer: a delta's added points and
    removed ids, or every entry, plus the region shipped with it (the
    shrunk one, when a replica served the answer stale)."""
    if response.added is not None:
        return _delta_bytes(len(response.added), len(response.removed_ids),
                            response.region)
    return _full_bytes(request.kind, response)


def _full_bytes(kind, response) -> int:
    """Every entry of a full answer of ``kind``, plus its region."""
    entry = PROB_POINT if kind == "probknn" else POINT
    return entry * len(response.result) + _region_bytes(response.region)


def _behind_member(sub):
    """A point beyond the first member of a reverse-kNN answer, seen
    from the query point, halfway between the query's distance and the
    member's k-th neighbour's: nearer the member than its k-th
    neighbour, farther than the query point."""
    detail = sub.answer.detail
    member = detail.members[0]
    qx, qy = detail.query
    near = math.hypot(member.x - qx, member.y - qy)
    step = (near + detail.member_knn[member.oid][-1]) / 2.0
    return (member.x + (member.x - qx) / near * step,
            member.y + (member.y - qy) / near * step)


def _stream(service, seed: int = 29):
    """Drive the stream.  Returns its ``(label, shipped, modelled)``
    rows and, for each answer a replica served stale, whether it served
    a region shrunk from the one it computed."""
    rng = random.Random(seed)
    rows, stale = [], []

    def answer(label, request):
        response = service.answer(request)
        rows.append((label, response.transfer_bytes(),
                     _answer_bytes(request, response)))
        return response

    home = (0.42, 0.57)
    fresh = {r.kind: answer(f"fresh {r.kind}", r) for r in _requests(home)}
    hits = service.cache.hits
    nearby = (home[0] + 1e-6, home[1] - 1e-6)
    for request in _requests(nearby):
        answer(f"cached {request.kind}", request)
    assert service.cache.hits == hits + 5

    moved = (home[0] + 0.03, home[1] + 0.02)
    for request in _requests(moved)[:3]:
        previous = [e.oid for e in fresh[request.kind].result]
        delta = answer(f"delta {request.kind}", request.as_delta(previous))
        assert delta.added and delta.removed_ids

    anchor = (0.61, 0.33)
    subs = [service.subscribe(r) for r in _requests(anchor)]
    seen = {}
    for sub in subs:
        rows.append((f"subscribe {sub.kind}", sub.response.transfer_bytes(),
                     _full_bytes(sub.kind, sub.response)))
        seen[sub.sid] = {e.oid for e in sub.response.result}

    def insert(oid, x, y):
        service.insert_object(oid, x, y)
        for sub in subs:
            for update in sub.drain():
                if update.kind == "invalidate":
                    rows.append((f"invalidate {sub.kind}",
                                 update.transfer_bytes, ID))
                    continue
                previous = seen[sub.sid]
                current = {e.oid for e in update.response.result}
                rows.append((f"patch {sub.kind}", update.transfer_bytes,
                             _delta_bytes(len(current - previous),
                                          len(previous - current),
                                          update.response.region)))
                seen[sub.sid] = current

    # One insert just beyond the probabilistic horizon (it shrinks the
    # annulus), four anywhere, then eight closing in on the anchor.
    horizon = answer("horizon probknn", _requests(anchor)[-1]).detail
    reach = (horizon.distances[-1] + 2.0 * horizon.uncertainty
             + horizon.safety_radius)
    inserts = [(anchor[0] + reach, anchor[1])]
    inserts += [(rng.random(), rng.random()) for _ in range(4)]
    for i in range(8):
        radius = 0.005 * (i + 1)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        inserts.append((anchor[0] + radius * math.cos(angle),
                        anchor[1] + radius * math.sin(angle)))
    for oid, (x, y) in enumerate(inserts, start=100_000):
        insert(oid, x, y)
    for sub in subs:
        response = sub.move((anchor[0] + 0.003, anchor[1] - 0.002))
        rows.append((f"move {sub.kind}", response.transfer_bytes(),
                     _full_bytes(sub.kind, response)))
        seen[sub.sid] = {e.oid for e in response.result}

    for _ in range(12):
        spot = (anchor[0] + rng.uniform(-0.05, 0.05),
                anchor[1] + rng.uniform(-0.05, 0.05))
        for request in _requests(spot)[:3]:
            response = answer(f"late {request.kind}", request)
            if getattr(response, "staleness", 0):
                # The serving replica's own answer, with the region it
                # computed before the shrink.
                replica = next(r for r in service.server.replicas
                               if r.rid == response.replica_id)
                own = replica.server.answer(request)
                stale.append(_geometry(response.region)
                             != _geometry(own.region))
    # Last, one insert behind a reverse-kNN member: it shrinks the
    # member's radius, so the subscription ships a shrunk region.
    insert(100_000 + len(inserts), *_behind_member(subs[3]))
    return rows, stale


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_path_ships_what_the_wire_model_prices(shape):
    rng = random.Random(2003)
    points = [(rng.random(), rng.random()) for _ in range(600)]
    with build_service(points, universe=UNIT, cache=CacheConfig(),
                       **SHAPES[shape]) as service:
        rows, stale = _stream(service)
    labels = {label for label, _shipped, _modelled in rows}
    for kind in ("knn", "window", "range", "rknn", "probknn"):
        for path in ("fresh", "cached", "subscribe", "patch", "move"):
            assert f"{path} {kind}" in labels, (path, kind)
    for kind in ("knn", "window", "range"):
        assert f"delta {kind}" in labels
    assert (True in stale) == (shape == "replicas")
    wrong = [(label, shipped, modelled) for label, shipped, modelled in rows
             if shipped != modelled]
    assert wrong == []
    assert sum(shipped for _label, shipped, _m in rows) == TOTALS[shape]
