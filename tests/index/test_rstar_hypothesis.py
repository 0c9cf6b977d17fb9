"""Property-based model checking of the R*-tree.

The tree is driven by random insert/delete programs and compared, after
every operation, against a plain dictionary model — the classic stateful
model-checking pattern.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.index import RStarTree
from repro.queries import nearest_neighbors, tp_knn

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), coord, coord),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=79)),
    ),
    max_size=80,
)


@given(ops, st.integers(min_value=4, max_value=12))
@settings(deadline=None, max_examples=60)
def test_tree_matches_dict_model(program, capacity):
    tree = RStarTree(capacity=capacity)
    model = {}
    next_id = 0
    for step, op in enumerate(program):
        if op[0] == "insert":
            tree.insert(next_id, op[1], op[2])
            model[next_id] = (op[1], op[2])
            next_id += 1
        else:
            oid = op[1]
            present = oid in model
            if present:
                p = model[oid]
                assert tree.delete(oid, p[0], p[1])
                del model[oid]
            else:
                assert not tree.delete(oid, 0.5, 0.5)
        # Query after every op, so node columns cached by one query are
        # live through the next split, reinsert, condense or root shrink.
        check_queries(tree, model, step)
        tree.check_invariants()
    assert len(tree) == len(model)


def check_queries(tree, model, step):
    """Window, kNN and TPNN answers against the dict model."""
    rnd = random.Random(step)
    q = (rnd.random(), rnd.random())
    x1, x2 = sorted((rnd.random(), rnd.random()))
    y1, y2 = sorted((rnd.random(), rnd.random()))
    rect = Rect(x1, y1, x2, y2)
    got = sorted(e.oid for e in tree.window(rect))
    want = sorted(o for o, p in model.items() if rect.contains_point(p))
    assert got == want

    def dist_sq(p):
        return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2

    k = min(3, len(model))
    neighbors = nearest_neighbors(tree, q, k) if k else []
    assert [n.dist for n in neighbors] == \
        sorted(math.sqrt(dist_sq(p)) for p in model.values())[:k]
    if not neighbors:
        return
    result = [n.entry for n in neighbors]
    angle = rnd.uniform(0.0, 2.0 * math.pi)
    v = (math.cos(angle), math.sin(angle))
    event = tp_knn(tree, q, v, result)
    assert event.time == brute_tp_time(model, q, v, result)


def brute_tp_time(model, q, v, result):
    """The first bisector crossing, over every non-result point of the
    model (the same arithmetic as the tree search's exact times)."""
    vx, vy = v
    norm = math.hypot(vx, vy)
    vx, vy = vx / norm, vy / norm
    res = [((o.x - q[0]) ** 2 + (o.y - q[1]) ** 2, vx * o.x + vy * o.y)
           for o in result]
    members = {o.oid for o in result}
    best = math.inf
    for oid, (x, y) in model.items():
        if oid in members:
            continue
        p_dist_sq = (x - q[0]) ** 2 + (y - q[1]) ** 2
        v_dot_p = vx * x + vy * y
        for o_dist_sq, v_dot_o in res:
            den = 2.0 * (v_dot_p - v_dot_o)
            if den > 0.0:
                best = min(best, max(0.0, (p_dist_sq - o_dist_sq) / den))
    return best


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=4, max_value=10))
@settings(deadline=None, max_examples=30)
def test_random_windows_match_brute_force(seed, capacity):
    rnd = random.Random(seed)
    n = rnd.randint(0, 300)
    points = [(rnd.random(), rnd.random()) for _ in range(n)]
    tree = RStarTree(capacity=capacity)
    for i, p in enumerate(points):
        tree.insert(i, p[0], p[1])
    tree.check_invariants()
    for _ in range(5):
        x1, x2 = sorted((rnd.random(), rnd.random()))
        y1, y2 = sorted((rnd.random(), rnd.random()))
        rect = Rect(x1, y1, x2, y2)
        got = sorted(e.oid for e in tree.window(rect))
        want = sorted(i for i, p in enumerate(points)
                      if rect.contains_point(p))
        assert got == want
