"""Validity regions for location-based (k)NN queries (paper, Section 3).

The validity region of a kNN query is the **order-k Voronoi cell** of
its result set: the locus of locations whose k nearest neighbours are
exactly that set.  Since the server maintains no Voronoi diagram, the
cell is computed on the fly:

1. start with the data universe as the candidate region;
2. pick any non-confirmed vertex ``v`` of the region and issue a
   TPNN/TPkNN query from ``q`` aimed at ``v``;
3. if the query discovers a *new* influence pair, clip the region by
   the corresponding bisector half-plane (vertices that survive keep
   their confirmation state, new vertices start unconfirmed);
   otherwise confirm ``v``;
4. stop when every vertex is confirmed.

One exception to step 3: when ``q`` is equidistant from the two objects
of the known pair a probe reports, probes along their bisector return
that pair at spurious times, so ``v`` cannot be confirmed.  Such a tie
ships the zero-radius safe disk instead (a degraded response), since
there ``d_{k+1} = d_k``.

Lemma 3.1 guarantees the final region is exactly the Voronoi cell and
the collected set contains no false hits; Lemma 3.2 bounds the number
of TP queries by ``n_inf + n_v``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry import ConvexPolygon, Point, Rect, bisector_halfplane
from repro.index.entry import LeafEntry
from repro.index.rstar import RStarTree
from repro.queries.nn import nearest_neighbors
from repro.queries.tp import tp_knn
from repro.core.api import BudgetClock, QueryDetail
from repro.core.validity import NNValidityRegion, ValidityDisk

#: Vertex selection policies for step 2.  The paper picks an arbitrary
#: vertex; the ablation bench compares these orders.
VERTEX_POLICIES = ("fifo", "lifo", "random", "nearest", "farthest")


@dataclass
class NNValidityResult(QueryDetail):
    """Everything the server computes for one location-based kNN query.

    The canonical :class:`~repro.core.api.QueryDetail` for ``kind ==
    "knn"`` (exported as ``KNNDetail``).
    """

    kind = "knn"

    query: Point
    neighbors: List[LeafEntry]
    #: (result object, influence object) pairs — the paper's S_inf_p.
    influence_pairs: List[Tuple[LeafEntry, LeafEntry]]
    region: ConvexPolygon
    num_tp_queries: int = 0
    num_confirmations: int = 0
    #: Wall-clock seconds spent clipping the region by bisector
    #: half-planes (the trace span the service layer reports).
    clip_seconds: float = 0.0
    #: True when the query budget ran out before every vertex was
    #: confirmed, or when ``q`` is tied between a result object and a
    #: non-result one: the kNN result is still exact, but the shipped
    #: region is the conservative safe disk below instead of the
    #: Voronoi cell.
    degraded: bool = False
    #: Radius of the degraded safe disk around the query (set iff
    #: ``degraded``): half the margin between the nearest unverified
    #: candidate and the farthest result neighbour, within which no
    #: bisector can be crossed.
    safe_radius: Optional[float] = None

    @property
    def influence_set(self) -> List[LeafEntry]:
        """Distinct influence objects (the paper's S_inf)."""
        seen: Set[int] = set()
        out: List[LeafEntry] = []
        for _, inf in self.influence_pairs:
            if inf.oid not in seen:
                seen.add(inf.oid)
                out.append(inf)
        return out

    @property
    def num_influence_objects(self) -> int:
        return len(self.influence_set)

    @property
    def num_edges(self) -> int:
        """Edge count of the validity region (client check cost proxy)."""
        return self.region.num_edges

    def validity_region(self, universe: Rect):
        """The compact client-side representation.

        Degraded responses ship the safe disk (constant payload) instead
        of the influence-pair half-plane region.
        """
        if self.degraded:
            return ValidityDisk((self.query.x, self.query.y),
                                self.safe_radius or 0.0)
        return NNValidityRegion(self.influence_pairs, universe)


def compute_nn_validity(tree: RStarTree, q, k: int = 1,
                        universe: Optional[Rect] = None,
                        nn_method: str = "best_first",
                        vertex_policy: str = "fifo",
                        rng: Optional[random.Random] = None,
                        nn_phase: str = "nn",
                        tp_phase: str = "tpnn",
                        clock: Optional[BudgetClock] = None,
                        kernel=None,
                        columns=None) -> NNValidityResult:
    """Process a location-based kNN query end to end (Section 3.2).

    Step (i) runs an ordinary kNN query (charged to phase ``nn_phase``),
    step (ii) retrieves the influence set with TP queries (phase
    ``tp_phase``), step (iii) packages the response.

    ``universe`` defaults to the MBR of the dataset; the validity
    region is always clipped to it.

    ``clock`` is a running :class:`~repro.core.api.BudgetClock`; when it
    is exhausted mid-probing, step (ii) stops early and the result is
    **degraded**: still the exact kNN set, but with the conservative
    safe disk of :func:`degraded_safe_radius` as its validity region.

    With a columnar ``kernel`` (see :mod:`repro.kernel.backends`) and a
    ``columns`` snapshot of the dataset, steps (i) and (ii) evaluate
    whole candidate sets at once instead of traversing the tree; the
    phase blocks still open (so trace spans keep their shape) but
    charge zero node accesses.
    """
    if universe is None:
        universe = tree.root.mbr
    q = Point(float(q[0]), float(q[1]))
    columnar = (kernel is not None and getattr(kernel, "columnar", False)
                and columns is not None)
    with tree.disk.phase(nn_phase):
        if columnar:
            neighbors = [e for _d2, e in kernel.knn(columns, q.x, q.y, k)]
        else:
            neighbors = [n.entry for n in
                         nearest_neighbors(tree, q, k, method=nn_method)]
    if len(neighbors) < k:
        # Fewer than k objects exist: the result never changes anywhere.
        return NNValidityResult(q, neighbors, [],
                                ConvexPolygon.from_rect(universe))
    with tree.disk.phase(tp_phase):
        return retrieve_influence_set_knn(tree, q, neighbors, universe,
                                          vertex_policy=vertex_policy,
                                          rng=rng, clock=clock,
                                          kernel=kernel, columns=columns)


def retrieve_influence_set_1nn(tree: RStarTree, q, nearest: LeafEntry,
                               universe: Rect,
                               vertex_policy: str = "fifo",
                               rng: Optional[random.Random] = None
                               ) -> NNValidityResult:
    """Algorithm ``Retrieve_Influence_Set_1NN`` (Figure 10).

    The single-NN case of the paper: influence objects are recognized by
    identity (the pair partner is always the nearest neighbour ``o``).
    """
    return retrieve_influence_set_knn(tree, q, [nearest], universe,
                                      vertex_policy=vertex_policy, rng=rng)


def retrieve_influence_set_knn(tree: RStarTree, q, neighbors: Sequence[LeafEntry],
                               universe: Rect,
                               vertex_policy: str = "fifo",
                               rng: Optional[random.Random] = None,
                               clock: Optional[BudgetClock] = None,
                               kernel=None,
                               columns=None) -> NNValidityResult:
    """Algorithm ``Retrieve_Influence_Set_kNN`` (Figure 12).

    Maintains the influence *pair* set S_inf_p: for k > 1 the same
    influence object may contribute several edges, one per result
    object it forms a crossed bisector with, so vertex confirmation
    keys on pairs rather than objects.

    With a ``clock``, each probe iteration first checks the budget;
    on exhaustion the loop stops and a degraded result is returned.

    With a columnar ``kernel`` + ``columns`` snapshot, each TPNN probe
    evaluates influence times over the whole candidate column set in
    one batch instead of a best-first tree search.
    """
    if vertex_policy not in VERTEX_POLICIES:
        raise ValueError(f"unknown vertex policy {vertex_policy!r}")
    if not neighbors:
        raise ValueError("result set must be non-empty")
    q = Point(float(q[0]), float(q[1]))
    # Numerical tolerance scaled to the universe so the algorithm behaves
    # identically in unit squares and 7000 km maps.
    eps = 1e-12 * max(universe.width, universe.height, 1.0)

    region = ConvexPolygon.from_rect(universe)
    confirmed: Dict[Tuple[float, float], bool] = {
        (v.x, v.y): False for v in region.vertices
    }
    pair_oids: Set[Tuple[int, int]] = set()
    pairs: List[Tuple[LeafEntry, LeafEntry]] = []
    known_influence_oids: Set[int] = set()
    num_tp = 0
    num_confirm = 0
    clip_seconds = 0.0
    # Safety valve: the algorithm provably terminates (each TP query
    # either confirms a vertex or shrinks the region), but degenerate
    # float behaviour should fail loudly rather than spin.
    max_queries = 64 + 16 * (len(neighbors) + len(tree.root.entries) + 64)
    columnar = (kernel is not None and getattr(kernel, "columnar", False)
                and columns is not None)
    # One probe context per (query, result) pair: it amortizes the
    # direction-independent work (distances, near-subset candidate
    # levels) across every TP probe of the retrieval loop.
    probe_ctx = (kernel.tp_context(columns, q.x, q.y, neighbors)
                 if columnar else None)

    degraded = tied = False
    while True:
        vertex = _pick_vertex(region, confirmed, q, vertex_policy, rng)
        if vertex is None:
            break
        if clock is not None and clock.exhausted():
            degraded = True
            break
        if num_tp > max_queries:
            raise RuntimeError("influence-set retrieval failed to converge")
        if abs(vertex.x - q.x) <= eps and abs(vertex.y - q.y) <= eps:
            confirmed[(vertex.x, vertex.y)] = True  # degenerate: v == q
            num_confirm += 1
            continue
        direction = q.towards(vertex)
        if columnar:
            event = probe_ctx.probe(direction[0], direction[1],
                                    prefer_new=known_influence_oids)
        else:
            event = tp_knn(tree, q, direction, neighbors,
                           prefer_new=known_influence_oids)
        num_tp += 1
        if not event.found:
            confirmed[(vertex.x, vertex.y)] = True
            num_confirm += 1
            continue
        pair_key = (event.influence.oid, event.paired_with.oid)
        if pair_key in pair_oids:
            if _tied(q, event.paired_with, event.influence):
                # q sits on this pair's bisector, so a probe along it
                # reports the known pair at a spurious time and would
                # confirm a vertex a new pair cuts.  At a tie
                # d_{k+1} = d_k: the sound region is the zero-radius
                # safe disk, shipped through the degraded path.
                degraded = tied = True
                break
            confirmed[(vertex.x, vertex.y)] = True
            num_confirm += 1
            continue
        pair_oids.add(pair_key)
        known_influence_oids.add(event.influence.oid)
        pairs.append((event.paired_with, event.influence))
        clip_start = perf_counter()
        halfplane = bisector_halfplane(event.paired_with.point,
                                       event.influence.point)
        region = region.clip(halfplane, eps=eps)
        clip_seconds += perf_counter() - clip_start
        if region.is_empty:
            # Numerically degenerate (q on a cell boundary): report the
            # empty region; the client will simply re-query immediately.
            break
        confirmed = {
            (v.x, v.y): confirmed.get((v.x, v.y), False)
            for v in region.vertices
        }

    safe_radius = None
    if tied:
        safe_radius = 0.0
    elif degraded:
        safe_radius = degraded_safe_radius(
            tree, q, neighbors,
            kernel=kernel if columnar else None, columns=columns)
    return NNValidityResult(
        query=q,
        neighbors=list(neighbors),
        influence_pairs=pairs,
        region=region,
        num_tp_queries=num_tp,
        num_confirmations=num_confirm,
        clip_seconds=clip_seconds,
        degraded=degraded,
        safe_radius=safe_radius,
    )


def _tied(q: Point, result: LeafEntry, other: LeafEntry) -> bool:
    """Are ``result`` and ``other`` equally far from ``q`` (to a relative
    1e-9 of their squared distances)?"""
    d2_result = q.distance_sq_to((result.x, result.y))
    d2_other = q.distance_sq_to((other.x, other.y))
    return abs(d2_result - d2_other) <= 1e-9 * max(d2_result, d2_other)


def degraded_safe_radius(tree: RStarTree, q: Point,
                         neighbors: Sequence[LeafEntry],
                         phase: str = "degraded",
                         kernel=None, columns=None) -> float:
    """Radius of the conservative safe disk of a degraded kNN response.

    Let ``d_k`` be the distance from ``q`` to its farthest result
    neighbour and ``d_next`` the distance to the nearest *unverified*
    candidate (the (k+1)-th NN).  Moving the client by ``delta`` changes
    any point distance by at most ``delta``, so while

        delta <= (d_next - d_k) / 2

    every result object remains at least as close as every non-result
    object and the kNN set cannot change.  One (k+1)-NN probe (charged
    to ``phase``) prices the bound; when fewer than k+1 objects exist
    the result can never change and the radius is infinite — callers
    clip to the universe via the region's ``contains`` conjunction.
    """
    k = len(neighbors)
    d_k = max(q.distance_to((e.x, e.y)) for e in neighbors)
    with tree.disk.phase(phase):
        if (kernel is not None and getattr(kernel, "columnar", False)
                and columns is not None):
            ranked_d2 = kernel.knn(columns, q.x, q.y, k + 1)
            if len(ranked_d2) <= k:
                ranked = ranked_d2
                d_next = 0.0
            else:
                ranked = ranked_d2
                d_next = ranked_d2[-1][0] ** 0.5
        else:
            ranked = nearest_neighbors(tree, q, k + 1)
            d_next = ranked[-1].dist if len(ranked) > k else 0.0
    if len(ranked) <= k:
        # The whole dataset is in the result: valid everywhere.  A disk
        # spanning the universe diagonal is an equivalent, finite stand-in.
        mbr = tree.root.mbr
        return ((mbr.width ** 2 + mbr.height ** 2) ** 0.5)
    return max(0.0, (d_next - d_k) / 2.0)


def _pick_vertex(region: ConvexPolygon, confirmed: Dict[Tuple[float, float], bool],
                 q: Point, policy: str,
                 rng: Optional[random.Random]) -> Optional[Point]:
    """The next non-confirmed vertex under the chosen policy."""
    pending = [v for v in region.vertices if not confirmed[(v.x, v.y)]]
    if not pending:
        return None
    if policy == "fifo":
        return pending[0]
    if policy == "lifo":
        return pending[-1]
    if policy == "random":
        return (rng or random).choice(pending)
    if policy == "nearest":
        return min(pending, key=lambda v: q.distance_sq_to(v))
    return max(pending, key=lambda v: q.distance_sq_to(v))  # farthest
