"""Reference parity of the node-column traversals.

``tp_knn``, best-first ``nearest_neighbors`` and ``RStarTree.window``
evaluate each visited node in one numpy pass over its cached columns.
The per-entry versions they replaced are kept below as the reference:
both sides must return identical answers (times and distances compared
with ``==``) and charge identical node accesses and page faults, phase
by phase, through a small LRU buffer -- a fault count that matches over
a query sequence pins the order of the accesses, not just their number.
"""

import heapq
import math
import random

from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.index import RStarTree, bulk_load_str
from repro.index.entry import LeafEntry
from repro.queries import nearest_neighbors, tp_knn
from repro.queries.tp import INFINITY, TPEvent
from repro.queries.window import annulus_query


# ----------------------------------------------------------------------
# the per-entry reference traversals
# ----------------------------------------------------------------------
def ref_tp_knn(tree, q, direction, result, prefer_new=None):
    vx, vy = float(direction[0]), float(direction[1])
    norm = math.hypot(vx, vy)
    vx /= norm
    vy /= norm
    qx, qy = float(q[0]), float(q[1])
    known = prefer_new or frozenset()
    result_oids = {e.oid for e in result}
    res_info = [((e.x - qx) ** 2 + (e.y - qy) ** 2, vx * e.x + vy * e.y, e)
                for e in result]

    def exact_time(p):
        p_dist_sq = (p.x - qx) ** 2 + (p.y - qy) ** 2
        v_dot_p = vx * p.x + vy * p.y
        best_t, best_o = INFINITY, None
        for o_dist_sq, v_dot_o, o in res_info:
            den = 2.0 * (v_dot_p - v_dot_o)
            if den <= 0.0:
                continue
            t = (p_dist_sq - o_dist_sq) / den
            if t < 0.0:
                t = 0.0
            if t < best_t:
                best_t, best_o = t, o
        return best_t, best_o

    def node_bound(mbr):
        min_p_dist_sq = mbr.mindist_sq((qx, qy))
        v_dot_p_max = (vx * (mbr.xmax if vx > 0 else mbr.xmin)
                       + vy * (mbr.ymax if vy > 0 else mbr.ymin))
        bound = INFINITY
        for o_dist_sq, v_dot_o, _ in res_info:
            den_max = 2.0 * (v_dot_p_max - v_dot_o)
            if den_max <= 0.0:
                continue
            num_min = min_p_dist_sq - o_dist_sq
            pair = num_min / den_max if num_min > 0.0 else 0.0
            if pair < bound:
                bound = pair
        return bound

    best_time, best_entry, best_pair = INFINITY, None, None
    counter = 0
    heap = [(node_bound(tree.root.mbr), counter, tree.root)]
    while heap:
        bound, _, node = heapq.heappop(heap)
        if bound > best_time:
            break
        if bound == best_time and not (best_entry is not None
                                       and best_entry.oid in known):
            break
        tree.read_node(node)
        if node.is_leaf:
            for e in node.entries:
                if e.oid in result_oids:
                    continue
                t, paired = exact_time(e)
                if paired is None:
                    continue
                wins = t < best_time or (
                    t == best_time
                    and best_entry is not None
                    and best_entry.oid in known
                    and e.oid not in known)
                if wins:
                    best_time, best_entry, best_pair = t, e, paired
        else:
            for child in node.entries:
                child_bound = node_bound(child.mbr)
                if child_bound <= best_time:
                    counter += 1
                    heapq.heappush(heap, (child_bound, counter, child))
    if best_entry is None:
        return TPEvent(INFINITY, None, None)
    return TPEvent(best_time, best_entry, best_pair)


def ref_best_first(tree, q, k, exclude=frozenset()):
    result = []
    counter = 0
    heap = [(0.0, counter, tree.root)]
    while heap:
        d2, _, item = heapq.heappop(heap)
        if isinstance(item, LeafEntry):
            result.append((item, math.sqrt(d2)))
            if len(result) == k:
                return result
            continue
        tree.read_node(item)
        if item.is_leaf:
            for e in item.entries:
                if e.oid in exclude:
                    continue
                counter += 1
                d2 = (e.x - q[0]) ** 2 + (e.y - q[1]) ** 2
                heapq.heappush(heap, (d2, counter, e))
        else:
            for child in item.entries:
                counter += 1
                heapq.heappush(heap,
                               (child.mbr.mindist_sq(q), counter, child))
    return result


def ref_window(tree, rect):
    result = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        tree.read_node(node)
        if node.is_leaf:
            for e in node.entries:
                if rect.contains_point((e.x, e.y)):
                    result.append(e)
        else:
            for child in node.entries:
                if rect.intersects(child.mbr):
                    stack.append(child)
    return result


def ref_annulus(tree, outer, inner):
    return [e for e in ref_window(tree, outer)
            if not inner.contains_point((e.x, e.y))]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@st.composite
def datasets(draw):
    """(kind, points): uniform, clustered, duplicated, lattice or ring
    data (the kind names the data in a falsifying example)."""
    kind = draw(st.sampled_from(["uniform", "clustered", "duplicates",
                                 "lattice", "ring"]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(70, 360))
    # Unit square, or metres on a continent (where more squares round
    # differently under ``x ** 2`` and ``x * x``).
    scale = draw(st.sampled_from([1.0, 7e6]))
    if kind == "uniform":
        points = [(scale * rnd.random(), scale * rnd.random())
                  for _ in range(n)]
    elif kind == "clustered":
        centers = [(rnd.random(), rnd.random()) for _ in range(3)]
        points = []
        for _ in range(n):
            cx, cy = rnd.choice(centers)
            points.append((scale * (cx + rnd.gauss(0.0, 0.01)),
                           scale * (cy + rnd.gauss(0.0, 0.01))))
    elif kind == "duplicates":
        distinct = [(rnd.random(), rnd.random()) for _ in range(n // 6)]
        points = [rnd.choice(distinct) for _ in range(n)]
    elif kind == "lattice":  # exact ties and cocircular points
        side = math.isqrt(n)
        points = [(float(i), float(j))
                  for i in range(side) for j in range(side)]
        rnd.shuffle(points)
    else:  # nearly equidistant from the centre, where x ** 2 and x * x
        # order the distances (and crossing times) differently
        cx, cy, r = scale * 0.5, scale * 0.5, scale * 0.1
        points = []
        for _ in range(n):
            a = rnd.uniform(0.0, 2.0 * math.pi)
            points.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return kind, points


def build(points, capacity, bulk):
    if bulk:
        tree = bulk_load_str(points, capacity=capacity)
    else:
        tree = RStarTree(capacity=capacity)
        tree.extend(points)
    tree.disk.set_buffer(3)
    return tree


def direction(rnd):
    if rnd.random() < 0.4:
        return rnd.choice([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
    angle = rnd.uniform(0.0, 2.0 * math.pi)
    return (math.cos(angle), math.sin(angle))


def query_point(rnd, points, universe):
    if rnd.random() < 0.3:
        return rnd.choice(points)  # on a data point: degenerate ties
    if rnd.random() < 0.3:
        return tuple(universe.center())  # a ring's centre
    return (rnd.uniform(universe.xmin, universe.xmax),
            rnd.uniform(universe.ymin, universe.ymax))


def run_script(tree, script, impl):
    """Run ``script`` through ``impl``'s traversals from a cold buffer;
    returns the answers and the per-phase counts."""
    tree.disk.cold_restart()
    answers = []
    for op, args in script:
        with tree.disk.phase(op):
            if op == "nn":
                q, k = args
                if impl == "ref":
                    got = ref_best_first(tree, q, k)
                else:
                    got = [(n.entry, n.dist)
                           for n in nearest_neighbors(tree, q, k)]
            elif op == "tpnn":
                q, v, result, known = args
                fn = ref_tp_knn if impl == "ref" else tp_knn
                got = fn(tree, q, v, result, prefer_new=known)
            elif op == "window":
                got = (ref_window(tree, args) if impl == "ref"
                       else tree.window(args))
            else:
                outer, inner = args
                fn = ref_annulus if impl == "ref" else annulus_query
                got = fn(tree, outer, inner)
        answers.append(got)
    stats = tree.disk.stats
    return answers, dict(stats.node_accesses), dict(stats.page_faults)


def make_script(rnd, tree, points):
    universe = tree.root.mbr
    oids = [e.oid for e in tree.points()]
    script = []
    for _ in range(6):
        q = query_point(rnd, points, universe)
        k = rnd.randint(1, 5)
        script.append(("nn", (q, k)))
        neighbors = [n.entry for n in nearest_neighbors(tree, q, k)]
        if rnd.random() < 0.25:  # any result set: immediate influences
            neighbors = rnd.sample(list(tree.points()), k)
        for _ in range(4):
            known = set(rnd.sample(oids, rnd.randint(1, 8)))
            v = direction(rnd)
            script.append(("tpnn", (q, v, neighbors, known)))
            # Prefer-new ties: also rerun with the first winner known.
            event = ref_tp_knn(tree, q, v, neighbors, known)
            if event.found:
                script.append(("tpnn", (q, v, neighbors,
                                        known | {event.influence.oid})))
        w = rnd.uniform(0.0, 0.4) * universe.width
        h = rnd.uniform(0.0, 0.4) * universe.height
        inner = Rect.around(q, w, h)
        if rnd.random() < 0.4:  # edges through data points: closedness
            (x1, y1), (x2, y2) = rnd.sample(points, 2)
            inner = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
            w, h = inner.width, inner.height
        script.append(("window", inner))
        script.append(("annulus", (inner.inflated(w / 2, h / 2), inner)))
    return script


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------
@given(datasets(), st.integers(4, 64), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_node_columns_match_per_entry_reference(data, capacity, bulk, seed):
    _kind, points = data
    tree = build(points, capacity, bulk)
    assert 2 <= tree.height <= 6
    script = make_script(random.Random(seed), tree, points)
    ref = run_script(tree, script, "ref")
    new = run_script(tree, script, "new")
    ref_answers, ref_na, ref_pf = ref
    new_answers, new_na, new_pf = new
    for (op, _args), want, got in zip(script, ref_answers, new_answers):
        if op == "nn":
            assert [(e.oid, d) for e, d in got] == \
                [(e.oid, d) for e, d in want]
        elif op == "tpnn":
            assert got.time == want.time
            assert getattr(got.influence, "oid", None) == \
                getattr(want.influence, "oid", None)
            assert getattr(got.paired_with, "oid", None) == \
                getattr(want.paired_with, "oid", None)
        else:
            assert [e.oid for e in got] == [e.oid for e in want]
    assert new_na == ref_na
    assert new_pf == ref_pf
    tree.check_invariants()


@given(datasets(), st.integers(4, 16), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=25)
def test_excluded_oids_match_reference(data, capacity, seed):
    _kind, points = data
    tree = build(points, capacity, bulk=False)
    rnd = random.Random(seed)
    oids = [e.oid for e in tree.points()]
    for _ in range(5):
        q = query_point(rnd, points, tree.root.mbr)
        k = rnd.randint(1, 5)
        exclude = set(rnd.sample(oids, rnd.randint(1, 40)))
        tree.disk.cold_restart()
        want = ref_best_first(tree, q, k, exclude)
        ref_counts = (dict(tree.disk.stats.node_accesses),
                      dict(tree.disk.stats.page_faults))
        tree.disk.cold_restart()
        got = nearest_neighbors(tree, q, k, exclude=exclude)
        assert [(n.entry.oid, n.dist) for n in got] == \
            [(e.oid, d) for e, d in want]
        assert (dict(tree.disk.stats.node_accesses),
                dict(tree.disk.stats.page_faults)) == ref_counts


def test_leaf_filter_keeps_the_exact_winner_when_rounding_reorders():
    """Two crossing times one ulp apart whose order ``x * x`` reverses:
    with glibc's ``pow``, the per-entry ``x ** 2`` times rank p1 first
    and numpy's rank p2 first, so the filter's error margin must keep
    p1, the exact winner."""
    o = (1.0, 0.0)
    p1 = (5021075.55231938, 4915405.623020264)
    p2 = (4915405.623020264, 5021075.552319381)
    tree = RStarTree(capacity=4)
    tree.extend([o, p2, p1])
    result = [e for e in tree.points() if e.oid == 0]
    want = ref_tp_knn(tree, (0.0, 0.0), (1.0, 1.0), result)
    assert tp_knn(tree, (0.0, 0.0), (1.0, 1.0), result) == want
