"""Requests refuse what no server shape can answer the same way.

A NaN or infinite query location used to fail differently on every
shape: the cache's cell lookup and the replica router raised
``ValueError`` or ``OverflowError`` from deep inside, while a bare tree
and a sharded fleet answered it (no neighbours; a range region that
"contained" the NaN point).  A NaN radius, extent or uncertainty slipped
through the ``<= 0`` checks.  Every request type now refuses both when
it is built, before any layer sees it; infinite extents stay valid, and
every shape answers them.
"""

import math
import random

import pytest

from repro import (
    KNNRequest,
    MobileClient,
    ProbKNNRequest,
    RangeRequest,
    RKNNRequest,
    WindowRequest,
    build_service,
)
from repro.geometry import Rect
from repro.service import CacheConfig

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

#: One request of every builtin kind at a location.
REQUESTS = {
    "knn": lambda loc: KNNRequest(loc, k=2),
    "window": lambda loc: WindowRequest(loc, 0.1, 0.1),
    "range": lambda loc: RangeRequest(loc, 0.1),
    "rknn": lambda loc: RKNNRequest(loc, k=2),
    "probknn": lambda loc: ProbKNNRequest(loc, 0.05, k=2),
}

#: The service shapes a request can reach.
SHAPES = {
    "single": {},
    "cache": {"cache": CacheConfig()},
    "shards": {"shards": 2},
    "replicas": {"replicas": 2},
}


def _points(n: int, seed: int):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(n)]


@pytest.mark.parametrize("kind", sorted(REQUESTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_location_is_refused(kind, bad, axis):
    location = (bad, 0.5) if axis == "x" else (0.5, bad)
    with pytest.raises(ValueError, match=f"non-finite {axis}"):
        REQUESTS[kind](location)


@pytest.mark.parametrize("build", [
    lambda: WindowRequest((0.5, 0.5), math.nan, 0.1),
    lambda: WindowRequest((0.5, 0.5), 0.1, math.nan),
    lambda: RangeRequest((0.5, 0.5), math.nan),
    lambda: ProbKNNRequest((0.5, 0.5), math.nan),
], ids=["width", "height", "radius", "uncertainty"])
def test_nan_extent_is_refused(build):
    with pytest.raises(ValueError, match="must be positive"):
        build()


def test_infinite_extents_stay_valid():
    WindowRequest((0.5, 0.5), math.inf, math.inf)
    ProbKNNRequest((0.5, 0.5), math.inf)


@pytest.mark.parametrize("shape", ["single", "shards", "replicas"])
def test_an_infinite_uncertainty_gives_finite_probabilities(shape):
    """Each candidate's probability is ``(horizon - d) / 2u`` with the
    horizon ``d_k + 2u``; as ``u`` grows without bound it tends to 1,
    which is what an infinite ``u`` reports — not ``inf / inf``."""
    points = _points(300, 10)
    with build_service(points, universe=UNIT, **SHAPES[shape]) as service:
        # pyproject.toml turns numpy's divide RuntimeWarning into an error.
        response = service.answer(ProbKNNRequest((0.5, 0.5), math.inf, k=2))
    probabilities = response.detail.probabilities
    assert len(probabilities) == len(points)
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probabilities)
    assert set(probabilities) == {1.0}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_infinite_range_holds_every_point(shape):
    points = _points(300, 7)
    with build_service(points, universe=UNIT, **SHAPES[shape]) as service:
        response = service.answer(RangeRequest((0.5, 0.5), math.inf))
        assert sorted(e.oid for e in response.result) == list(
            range(len(points)))
        assert response.region.contains((0.0, 1.0))
        assert response.region.contains((-1e300, 1e300))
        assert response.region.mbr() is None


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_client_refuses_nan_before_the_service_counts_it(shape):
    with build_service(_points(300, 8), universe=UNIT,
                       **SHAPES[shape]) as service:
        client = MobileClient(service)
        with pytest.raises(ValueError, match="non-finite x"):
            client.knn((math.nan, 0.5))
        assert service.metrics.counter_total("service.queries") == 0
        assert len(client.knn((0.5, 0.5), k=2)) == 2
        assert service.metrics.counter_total("service.queries",
                                             query_kind="knn") == 1


def test_a_delta_reports_its_delta_size_on_every_shape():
    """A replica's delta is a ``ServedResponse``; the trace and
    ``service.result_size`` still count its added plus removed entries,
    as on a single tree and a sharded fleet."""
    points = _points(500, 9)
    seen = {}
    for shape in ("single", "shards", "replicas"):
        with build_service(points, universe=UNIT,
                           **SHAPES[shape]) as service:
            first = service.answer(KNNRequest((0.5, 0.5), k=8))
            delta = service.answer(KNNRequest(
                (0.52, 0.5), k=8,
                previous_ids=[e.oid for e in first.result]))
            sizes = service.metrics.histogram(
                "service.result_size", labels={"query_kind": "knn"})
            seen[shape] = (len(delta.added) + len(delta.removed_ids),
                           service.recent_traces(1)[0].result_size,
                           sizes.count, sizes.total)
    size = seen["single"][0]
    assert 0 < size < 8  # a real delta, smaller than the full answer
    assert set(seen.values()) == {(size, size, 2, 8 + size)}, seen
