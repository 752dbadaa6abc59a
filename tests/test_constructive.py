import random

import pytest

from isolation import (
    DIAMOND,
    DisconnectedGraphError,
    ExceptionalGraphError,
    Graph,
    bits,
    book_graph,
    decode_g6,
    budget,
    complete_graph,
    contains_pattern,
    cycle_graph,
    diamond_graph,
    extremal_witness_15,
    iota_exact,
    is_exceptional,
    is_isolating,
    isolating_set_n5,
    path_graph,
    random_connected_graph,
    y_graph,
)
from isolation.constructive import _pivot_candidates
from oracles import disjoint_union


def shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# --- structured families that stress the cut machinery ----------------------

def diamond_satellites(k, attach_low_degree=True):
    """Hub 0 with k diamond gadgets hanging off it."""
    edges = []
    nxt = 1
    for _ in range(k):
        a, b, c, d = nxt, nxt + 1, nxt + 2, nxt + 3
        edges += [(a, b), (a, c), (a, d), (b, c), (b, d)]
        edges.append((0, c if attach_low_degree else a))
        nxt += 4
    return Graph.from_edges(nxt, edges)


def gadget_chain(k):
    """k copies of the 5-vertex extremal gadget joined connector to connector."""
    edges = []
    for i in range(k):
        b = 5 * i
        edges += [(b, b + 1), (b, b + 2), (b, b + 3), (b + 1, b + 2),
                  (b + 1, b + 3), (b + 2, b + 4)]
        if i:
            edges.append((b - 1, b + 4))
    return Graph.from_edges(5 * k, edges)


def random_cubic(rng, n):
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph.from_edges(n, sorted(edges))


# --- budget and exception handling -------------------------------------------

@pytest.mark.parametrize("n,expected", [(0, 0), (4, 0), (5, 1), (9, 1),
                                        (10, 2), (14, 2), (15, 3)])
def test_budget_values(n, expected):
    assert budget(n) == expected


def test_budget_rejects_negative():
    with pytest.raises(ValueError):
        budget(-1)


def test_is_exceptional_up_to_isomorphism():
    rng = random.Random(3)
    for g in (diamond_graph(), complete_graph(4), y_graph()):
        assert is_exceptional(g)
        for _ in range(10):
            assert is_exceptional(shuffled(rng, g))
    for g in (cycle_graph(5), path_graph(4), book_graph(3), complete_graph(5),
              cycle_graph(9)):
        assert not is_exceptional(g)


def test_rejects_exceptional_inputs():
    for g in (diamond_graph(), complete_graph(4), y_graph()):
        with pytest.raises(ExceptionalGraphError):
            isolating_set_n5(g)


def test_rejects_disconnected_input():
    with pytest.raises(DisconnectedGraphError):
        isolating_set_n5(disjoint_union([path_graph(3), path_graph(3)]))


# --- soundness ----------------------------------------------------------------

def certified(g):
    s, trace = isolating_set_n5(g)
    assert is_isolating(g, DIAMOND, s)
    assert s.bit_count() <= budget(g.n)
    return s, trace


def test_diamond_free_graph_gets_empty_set():
    s, trace = certified(cycle_graph(5))
    assert s == 0
    assert trace.steps[0].case == "diamond-free"


def test_small_orders_get_singletons(census):
    # every connected diamond-containing graph on 5..8 vertices is isolated by
    # one vertex
    for n in range(5, 9):
        for g in census[n]:
            s, _ = certified(g)
            assert s.bit_count() == (1 if contains_pattern(g, DIAMOND) else 0)


def test_extremal_witness_needs_exactly_three():
    s, _ = certified(extremal_witness_15())
    assert s.bit_count() == 3


def test_soundness_exhaustive_small(census):
    for n in range(1, 9):
        for g in census[n]:
            if not is_exceptional(g):
                certified(g)


def test_soundness_structured_families():
    rng = random.Random(101)
    for k in range(2, 7):
        certified(diamond_satellites(k, True))
        certified(diamond_satellites(k, False))
    for k in range(2, 8):
        certified(gadget_chain(k))
    for _ in range(40):
        certified(random_cubic(rng, rng.choice([10, 12, 14, 16, 20])))


def test_soundness_random_sample():
    rng = random.Random(202)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randrange(10, 41))
        if not is_exceptional(g):
            certified(g)


def test_result_at_least_exact_optimum():
    rng = random.Random(303)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(10, 15))
        if is_exceptional(g):
            continue
        s, _ = certified(g)
        assert s.bit_count() >= iota_exact(g, DIAMOND).value


# --- trace consistency ----------------------------------------------------------

def trace_checks(g):
    s, trace = isolating_set_n5(g)
    assert trace.pivot_union() == s
    union = 0
    for step in trace.steps:
        assert not (union & step.removed), "removed regions overlap"
        union |= step.removed
    assert union == g.full_mask
    total_removed = sum(step.removed.bit_count() for step in trace.steps)
    assert total_removed == g.n
    for step in trace.steps:
        if step.case.startswith("cut"):
            assert step.removed.bit_count() + sum(step.suborders) >= 2
    return trace


def test_trace_consistency_small(census):
    for n in range(1, 9):
        for g in census[n][:40]:
            if not is_exceptional(g):
                trace_checks(g)


def test_trace_consistency_structured():
    trace = trace_checks(gadget_chain(5))
    assert any(step.case.startswith("cut") for step in trace.steps)
    rng = random.Random(404)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(10, 30))
        if not is_exceptional(g):
            trace_checks(g)


def test_trace_serialization_roundtrip():
    _, trace = isolating_set_n5(gadget_chain(3))
    d = trace.to_dict()
    assert len(d["steps"]) == len(trace.steps)
    for entry, step in zip(d["steps"], trace.steps):
        assert entry["pivots"] == list(step.pivots)
        assert entry["removed"] == sorted(bits(step.removed))
    text = trace.to_text()
    assert len(text.splitlines()) == len(trace.steps)


def test_candidate_list_is_bounded():
    rng = random.Random(505)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randrange(10, 30))
        delta = max(g.adj[v].bit_count() for v in range(g.n))
        cands = list(_pivot_candidates(g))
        assert len(cands) <= delta + 8
        assert len({v for v, _ in cands}) == len(cands)


def test_fallback_pivot_is_needed():
    # the anchor and all its neighbors fail the budget on this graph; only a
    # fallback candidate certifies 2 = floor(14/5)
    s, trace = certified(decode_g6("M`Mo?CB_o??@?BOB?"))
    assert s.bit_count() == 2
    assert any(step.case == "cut:fallback" for step in trace.steps)


def test_deep_recursion_strictly_shrinks():
    _, trace = isolating_set_n5(gadget_chain(8))
    per_depth = {}
    for step in trace.steps:
        per_depth.setdefault(step.depth, 0)
        per_depth[step.depth] += step.removed.bit_count()
    # each level consumes at least two vertices before recursing
    assert all(count >= 2 for count in per_depth.values())
