"""The four workloads: fixed datasets, seeded crowds, stacks and scripts.

Each workload is a frozen record of every parameter a run uses.  The
datasets are the repository's fixed GR/NA stand-ins; everything the
``--seed`` changes -- the clients' trajectories and the mutation
script -- is generated here, and the program under test only receives
the resulting requests and mutations through its public API
(``build_service``, ``MobileClient``, ``QueryService.insert_object`` /
``delete_object``).

Trajectories follow the data: clients run random-waypoint legs between
waypoints drawn with ``data_following_queries``, either inside strata
of the whole dataset (``commute``, ``reverse``) or around the data's
densest places (``hotspot``, ``churn``).  Where the crowd goes is fixed
per workload and only the paths vary with the seed, so a run's averages
move little from seed to seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    AdmissionConfig,
    CacheConfig,
    ContinuousConfig,
    ExecutionConfig,
    KNNRequest,
    MobileClient,
    ProbKNNRequest,
    RKNNRequest,
    RangeRequest,
    ReplicaConfig,
    ResilienceConfig,
    SLOConfig,
    SLOEngine,
    TailSamplingConfig,
    WindowRequest,
    build_service,
    make_greece_like,
    make_north_america_like,
)
from repro.core.client import ClientStats
from repro.datasets.real_like import GR_UNIVERSE, NA_UNIVERSE
from repro.datasets.workload import data_following_queries
from repro.geometry import Rect


@dataclass(frozen=True)
class Workload:
    """Every parameter of one workload (see ``WORKLOADS``; the rationale
    is in ``BENCHMARK.json``)."""

    name: str
    #: "NA" or "GR" (the repository's fixed stand-in datasets).
    dataset: str
    n: int
    #: Serving stack; see ``build_stack``.
    stack: str
    #: Clients per query kind, in client order.
    mix: Tuple[Tuple[str, int], ...]
    #: Clients (spread evenly over the crowd) using push subscriptions.
    subscribed: int = 0
    k: int = 1
    window_side: float = 0.0
    range_radius: float = 0.0
    uncertainty: float = 0.0
    #: Metres a client moves per tick.
    speed: float = 100.0
    #: Waypoint jitter, as a fraction of the universe width.
    waypoint_jitter: float = 0.002
    #: Hot spots the crowd dwells around (0: roam the whole dataset).
    hotspots: int = 0
    hotspot_radius: float = 0.0
    #: Dwelling crowds: a hot spot's clients ride shared routes in
    #: convoys of this many, this many ticks apart, each off the route
    #: by Gaussian noise of this standard deviation (metres).
    convoy_size: int = 1
    convoy_gap: int = 0
    lane_noise: float = 0.0
    #: Roaming crowds: strata of the data sessions are spread over, and
    #: updates per session (a fresh client starts after each).
    strata: int = 0
    session_updates: int = 0
    #: One insert or delete after every this many updates (0: none).
    mutate_every: int = 0
    #: Spread (metres) of inserts around the client they land near.
    mutation_jitter: float = 0.0
    #: Updates whose protocol counts are reported and which the traced
    #: pass runs (a measured run does at least these, then keeps going
    #: until ``--seconds`` of work).
    count_updates: int = 1000
    #: Latency limit (ms) for ``over_limit_ratio``.
    latency_limit_ms: float = 50.0
    #: Check every this many updates against the oracle.  Coprime with
    #: the client count, so that every client slot gets checked.
    check_every: int = 11
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 3

    def __post_init__(self) -> None:
        if math.gcd(self.check_every, self.clients) != 1:
            raise ValueError(
                f"{self.name}: check_every={self.check_every} shares a factor "
                f"with {self.clients} clients; some slots would go unchecked")

    @property
    def clients(self) -> int:
        return sum(count for _, count in self.mix)

    def kinds(self) -> List[str]:
        return [kind for kind, count in self.mix for _ in range(count)]

    def params(self) -> Dict[str, object]:
        """The record a run prints."""
        out = {f: getattr(self, f) for f in self.__dataclass_fields__}
        out["mix"] = dict(self.mix)
        return out


# Window side of the paper's default 1000 km^2 real-data window (metres).
_PAPER_WINDOW = math.sqrt(1000.0) * 1000.0

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="commute",
        dataset="NA", n=569_120, stack="paper",
        mix=(("knn", 16), ("window", 16)), k=1, window_side=_PAPER_WINDOW,
        speed=2_000.0, waypoint_jitter=0.002, strata=4096,
        session_updates=10, count_updates=3000, check_every=13,
        setup_repeats=3),
    Workload(
        name="hotspot",
        dataset="GR", n=23_268, stack="read",
        mix=(("knn", 40), ("window", 28), ("range", 28)), k=1,
        window_side=4_000.0, range_radius=2_000.0,
        speed=150.0, waypoint_jitter=0.001, hotspots=4,
        hotspot_radius=6_000.0, convoy_size=8, convoy_gap=3,
        lane_noise=10.0, count_updates=36_000,
        latency_limit_ms=25.0, check_every=19, setup_repeats=5),
    # No convoys on churn: there they make kNN subscriptions re-anchor
    # on bounded-stale cached answers that lack inserts the subscription
    # was already told about, and later moves serve wrong neighbours.
    Workload(
        name="churn",
        dataset="GR", n=23_268, stack="churn",
        mix=(("knn", 40), ("window", 28), ("range", 28)), subscribed=24,
        k=1, window_side=4_000.0, range_radius=2_000.0,
        speed=150.0, waypoint_jitter=0.001, hotspots=4,
        hotspot_radius=6_000.0, mutate_every=10, mutation_jitter=1_500.0,
        latency_limit_ms=25.0, count_updates=4000, check_every=11,
        setup_repeats=5),
    Workload(
        name="reverse",
        dataset="GR", n=3_000, stack="bare",
        mix=(("rknn", 2), ("probknn", 4), ("knn", 3)), k=1,
        uncertainty=500.0, speed=800.0, waypoint_jitter=0.002, strata=64,
        session_updates=10, count_updates=2000, check_every=5,
        setup_repeats=5),
)}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of ``workload`` that checks every update
    (the benchmark's tests)."""
    scale = {"NA": 20_000, "GR": 2_000}[workload.dataset]
    mix = tuple((kind, max(1, count // 8)) for kind, count in workload.mix)
    return replace(
        workload, n=min(workload.n, scale), mix=mix,
        subscribed=min(workload.subscribed, 2),
        strata=min(workload.strata, 64),
        count_updates=min(workload.count_updates, 40),
        check_every=1,
        mutate_every=min(workload.mutate_every, 4),
        setup_repeats=1)


# ----------------------------------------------------------------------
# datasets and stacks
# ----------------------------------------------------------------------
def universe_of(workload: Workload) -> Rect:
    return {"NA": NA_UNIVERSE, "GR": GR_UNIVERSE}[workload.dataset]


def make_points(workload: Workload) -> np.ndarray:
    if workload.dataset == "NA":
        return make_north_america_like(n=workload.n)
    return make_greece_like(n=workload.n)


def shard_workers() -> int:
    """The shard pool width: at most two workers, at most ``nproc``."""
    return min(2, os.cpu_count() or 1)


#: Latency objective of the read stacks' SLO engine (ms).
_SLO_MS = 250.0


def stack_kwargs(workload: Workload) -> Dict[str, object]:
    """``build_service`` arguments of the workload's serving stack.

    Built fresh per set-up: the SLO engine is stateful.
    """
    if workload.stack == "paper":
        return {"buffer_fraction": 0.1,
                "execution": ExecutionConfig(kernel="scalar")}
    if workload.stack == "bare":
        return {}
    read = {
        "shards": 4,
        "execution": ExecutionConfig(kernel="auto", workers=shard_workers()),
        "cache": CacheConfig(capacity=1024, grid=32),
        "resilience": ResilienceConfig(admission=AdmissionConfig()),
        # The SLO engine judges its first evaluation on a handful of
        # queries; a threshold far above any steady-state latency keeps
        # one cold first query from browning the whole run out.
        "slo": SLOEngine([
            SLOConfig("availability", target=0.999),
            SLOConfig("latency", objective="latency", threshold_ms=_SLO_MS,
                      target=0.99)]),
        "tail": TailSamplingConfig(slow_ms=workload.latency_limit_ms),
        "profile": True,
    }
    if workload.stack == "read":
        return read
    if workload.stack == "churn":
        return dict(read, replicas=2,
                    replica=ReplicaConfig(replication_lag=2,
                                          default_max_stale=2),
                    continuous=ContinuousConfig())
    raise ValueError(f"unknown stack {workload.stack!r}")


def resolved_kernel(workload: Workload) -> str:
    execution = stack_kwargs(workload).get("execution")
    return (execution.resolved_kernel() if execution is not None
            else ExecutionConfig().resolved_kernel())


def build_stack(workload: Workload):
    """Dataset generation + index build + service assembly (``setup_s``)."""
    points = make_points(workload)
    service = build_service(points, universe=universe_of(workload),
                            **stack_kwargs(workload))
    return points, service


# ----------------------------------------------------------------------
# the seeded crowd
# ----------------------------------------------------------------------
class Mover:
    """Random-waypoint legs between data-following waypoints."""

    _CHUNK = 32

    def __init__(self, pool: np.ndarray, universe: Rect, speed: float,
                 jitter: float, seed: Tuple[int, ...]):
        self._pool = pool
        self._universe = universe
        self._speed = speed
        self._jitter = jitter
        self._seed = seed
        self._chunks = 0
        self._waypoints: List[Tuple[float, float]] = []
        self._refill()
        self.pos = self._waypoints.pop()
        self._target = self._next_target()

    def _refill(self) -> None:
        qs = data_following_queries(
            self._pool, self._CHUNK, self._universe, jitter=self._jitter,
            seed=list(self._seed) + [self._chunks])
        self._chunks += 1
        self._waypoints = [(float(x), float(y)) for x, y in qs[::-1]]

    def _next_target(self) -> Tuple[float, float]:
        if not self._waypoints:
            self._refill()
        return self._waypoints.pop()

    def advance(self) -> Tuple[float, float]:
        """The current position; then move one tick along the legs."""
        here = self.pos
        travel = self._speed
        x, y = here
        while True:
            tx, ty = self._target
            gap = math.hypot(tx - x, ty - y)
            if gap > travel:
                x += (tx - x) / gap * travel
                y += (ty - y) / gap * travel
                break
            travel -= gap
            x, y = tx, ty
            self._target = self._next_target()
        self.pos = (x, y)
        return here


#: Golden-ratio stride of the stratum sequence (a Weyl sequence).
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def hotspot_pools(workload: Workload, points: np.ndarray) -> List[np.ndarray]:
    """The data around the dataset's densest places.

    Hot spots are a property of the data, like the data itself: the
    centroids of the ``hotspots`` most populated cells of a 64 x 64
    grid, no two in neighbouring cells.  The seed moves the crowd, not
    the spots.
    """
    u = universe_of(workload)
    grid = 64
    counts, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=grid,
                                  range=[[u.xmin, u.xmax], [u.ymin, u.ymax]])
    taken: List[Tuple[int, int]] = []
    for flat in np.argsort(counts.ravel(), kind="stable")[::-1]:
        i, j = divmod(int(flat), grid)
        if all(max(abs(i - a), abs(j - b)) > 1 for a, b in taken):
            taken.append((i, j))
        if len(taken) == workload.hotspots:
            break
    pools = []
    for i, j in taken:
        cell = u.grid_cell(i, j, grid, grid)
        inside = ((points[:, 0] >= cell.xmin) & (points[:, 0] <= cell.xmax)
                  & (points[:, 1] >= cell.ymin) & (points[:, 1] <= cell.ymax))
        cx, cy = points[inside].mean(axis=0)
        near = np.hypot(points[:, 0] - cx, points[:, 1] - cy)
        pools.append(points[near <= workload.hotspot_radius])
    return pools


def strata(points: np.ndarray, universe: Rect, count: int) -> List[np.ndarray]:
    """``count`` equal-size groups of nearby points (Z-order runs)."""
    cells = 1 << 16
    gx = ((points[:, 0] - universe.xmin) / universe.width * (cells - 1))
    gy = ((points[:, 1] - universe.ymin) / universe.height * (cells - 1))
    order = np.argsort(_interleave(gx.astype(np.uint64))
                       | (_interleave(gy.astype(np.uint64)) << np.uint64(1)),
                       kind="stable")
    return [points[chunk] for chunk in np.array_split(order, count)]


def _interleave(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of ``v`` to the even bit positions."""
    v = v & np.uint64(0xFFFF)
    for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F),
                        (2, 0x33333333), (1, 0x55555555)):
        v = (v | (v << np.uint64(shift))) & np.uint64(mask)
    return v


class Crowd:
    """The seeded clients: who is where, update by update.

    Dwelling crowds (``hotspots > 0``) keep one client per slot for the
    whole run, slot ``c`` at hot spot ``c % hotspots``.  A hot spot's
    clients ride seeded routes in convoys of ``convoy_size``,
    ``convoy_gap`` ticks apart, each with its own lane noise: with
    convoys, a client often passes where another was a few ticks before,
    inside a validity region the server cache holds.  Roaming crowds
    run sessions: a slot's client lives for ``session_updates`` updates
    inside one stratum of the data, then a fresh client starts in the
    next.  Session ``g`` (counted over all slots) takes stratum
    ``floor(frac(g * phi) * strata)``: every run visits the same strata
    in the same order, spread evenly over dense and sparse data, and
    the seed draws the trajectories inside them.  Which regions a run
    samples is thus part of the workload, like the dataset, and the
    per-update averages vary little from seed to seed.
    """

    def __init__(self, workload: Workload, points: np.ndarray, service,
                 seed: int):
        self.workload = workload
        self.service = service
        self.seed = seed
        self.kinds = workload.kinds()
        n = workload.clients
        every = n / workload.subscribed if workload.subscribed else 0.0
        self._subscribers = {int(i * every)
                             for i in range(workload.subscribed)}
        universe = universe_of(workload)
        if workload.hotspots:
            self._pools = hotspot_pools(workload, points)
        else:
            self._pools = strata(points, universe, workload.strata)
        self._universe = universe
        self.clients: List[Optional[MobileClient]] = [None] * n
        self.movers: List[Optional[Mover]] = [None] * n
        self._noise: List[Optional[np.random.Generator]] = [None] * n
        self._left = [0] * n
        self.sessions = 0
        #: Protocol counts of clients whose session ended.
        self.retired = ClientStats()

    def step(self, c: int) -> Tuple[MobileClient, Tuple[float, float]]:
        """Slot ``c``'s client and its position for this update."""
        if self.clients[c] is None or (self.workload.session_updates
                                       and self._left[c] == 0):
            self._start(c)
        self._left[c] -= 1
        x, y = self.movers[c].advance()
        noise = self._noise[c]
        if noise is not None:
            dx, dy = noise.normal(0.0, self.workload.lane_noise, 2)
            x, y = float(x + dx), float(y + dy)
        return self.clients[c], (x, y)

    def _start(self, c: int) -> None:
        w = self.workload
        old = self.clients[c]
        if old is not None:
            _add(self.retired, old.stats)
            old.close()
        g = self.sessions
        self.sessions += 1
        if w.hotspots:
            spot, rank = c % len(self._pools), c // len(self._pools)
            route, place = divmod(rank, w.convoy_size)
            mover = Mover(self._pools[spot], self._universe, w.speed,
                          w.waypoint_jitter, (self.seed, 2, spot, route))
            for _ in range(place * w.convoy_gap):
                mover.advance()
        else:
            frac = (g * _PHI) % 1.0
            pool = self._pools[int(frac * len(self._pools))]
            mover = Mover(pool, self._universe, w.speed,
                          w.waypoint_jitter, (self.seed, 2, g))
        self.movers[c] = mover
        self._noise[c] = (np.random.default_rng([self.seed, 4, c])
                          if w.lane_noise else None)
        self.clients[c] = MobileClient(self.service,
                                       subscribe=c in self._subscribers)
        self._left[c] = w.session_updates

    def positions(self) -> List[Tuple[float, float]]:
        return [m.pos for m in self.movers if m is not None]

    def stats(self) -> ClientStats:
        total = ClientStats()
        _add(total, self.retired)
        for client in self.clients:
            if client is not None:
                _add(total, client.stats)
        return total

    def close(self) -> None:
        for client in self.clients:
            if client is not None:
                client.close()


def _add(total: ClientStats, stats: ClientStats) -> None:
    total.position_updates += stats.position_updates
    total.server_queries += stats.server_queries
    total.cache_answers += stats.cache_answers
    total.bytes_received += stats.bytes_received


class MutationScript:
    """Seeded inserts and deletes near the crowd (``churn``).

    Inserts land around a random client; deletes remove either an
    earlier insert or the original point nearest a random client, so
    some mutations fall inside cached regions.
    """

    def __init__(self, workload: Workload, points: np.ndarray, seed: int):
        self._rng = np.random.default_rng([seed, 3])
        self._points = points
        self._universe = universe_of(workload)
        self._jitter = workload.mutation_jitter
        self._inserted: List[Tuple[int, float, float]] = []
        self._deleted: set = set()
        self._next_oid = 10 * len(points) + 1_000_000

    def next(self, positions: List[Tuple[float, float]]
             ) -> Tuple[str, int, float, float]:
        rng = self._rng
        cx, cy = positions[int(rng.integers(len(positions)))]
        if rng.random() < 0.5:
            if self._inserted and rng.random() < 0.5:
                i = int(rng.integers(len(self._inserted)))
                oid, x, y = self._inserted.pop(i)
                return "delete", oid, x, y
            d = np.hypot(self._points[:, 0] - cx, self._points[:, 1] - cy)
            nearest = np.argpartition(d, 16)[:16]
            for oid in nearest[np.argsort(d[nearest])]:
                if int(oid) not in self._deleted:
                    self._deleted.add(int(oid))
                    x, y = self._points[oid]
                    return "delete", int(oid), float(x), float(y)
        u = self._universe
        x = float(np.clip(cx + rng.normal(0.0, self._jitter), u.xmin, u.xmax))
        y = float(np.clip(cy + rng.normal(0.0, self._jitter), u.ymin, u.ymax))
        oid = self._next_oid
        self._next_oid += 1
        self._inserted.append((oid, x, y))
        return "insert", oid, x, y


def request_for(kind: str, workload: Workload, pos) -> object:
    """The typed request a client's update at ``pos`` stands for."""
    if kind == "knn":
        return KNNRequest(pos, k=workload.k)
    if kind == "window":
        return WindowRequest(pos, workload.window_side, workload.window_side)
    if kind == "range":
        return RangeRequest(pos, workload.range_radius)
    if kind == "rknn":
        return RKNNRequest(pos, k=workload.k)
    if kind == "probknn":
        return ProbKNNRequest(pos, uncertainty=workload.uncertainty,
                              k=workload.k)
    raise ValueError(f"unknown query kind {kind!r}")


def client_update(client: MobileClient, kind: str, workload: Workload, pos):
    """One position update through the client's public entry point."""
    if kind == "knn":
        return client.knn(pos, k=workload.k)
    if kind == "window":
        return client.window(pos, workload.window_side, workload.window_side)
    if kind == "range":
        return client.range(pos, workload.range_radius)
    if kind == "rknn":
        return client.rknn(pos, k=workload.k)
    if kind == "probknn":
        return client.probknn(pos, workload.uncertainty, k=workload.k)
    raise ValueError(f"unknown query kind {kind!r}")
