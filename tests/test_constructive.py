import hashlib
import io
import json
import random

import pytest

from isolation import (
    DIAMOND,
    BudgetCertificationError,
    DisconnectedGraphError,
    ExceptionalGraphError,
    Graph,
    bits,
    book_graph,
    closed_neighborhood,
    components,
    decode_g6,
    encode_g6,
    budget,
    complete_graph,
    contains_pattern,
    cycle_graph,
    diamond_graph,
    extremal_witness_15,
    iota_exact,
    is_exceptional,
    induced_subgraph,
    is_isolating,
    isolating_set_n5,
    mask_of,
    path_graph,
    random_connected_graph,
    y_graph,
)
from isolation.cli import main
from isolation.constructive import _exceptional_kind, _pivot_candidates
from digest import (
    FALLBACK_CUT,
    PINNED_CONSTRUCTION,
    construction_digest,
    construction_graphs,
)
from oracles import disjoint_union, networkx_graph, relabeled


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
            assert is_exceptional(relabeled(g, rng=rng))
    for g in (cycle_graph(5), path_graph(4), book_graph(3), complete_graph(5),
              cycle_graph(9)):
        assert not is_exceptional(g)


def test_exceptional_kind_matches_networkx(census):
    nx = pytest.importorskip("networkx")
    refs = [("small", networkx_graph(diamond_graph())),
            ("small", networkx_graph(complete_graph(4))),
            ("y", networkx_graph(y_graph()))]
    rng = random.Random(909)
    cases = [(g, rng.getrandbits(n)) for n in range(1, 9) for g in census[n]]
    for seed in range(200):
        # a 4-regular 9-vertex graph with three pendants, shuffled into 12
        # labels; the mask is the image of the 9 regular vertices
        h = nx.random_regular_graph(4, 9, seed=seed)
        edges = list(h.edges()) + [(rng.randrange(9), 9 + i) for i in range(3)]
        perm = list(range(12))
        rng.shuffle(perm)
        g = Graph.from_edges(12, [(perm[u], perm[v]) for u, v in edges])
        cases += [(g, mask_of(perm[:9])), (g, g.full_mask)]
    for base in (diamond_graph(), complete_graph(4), y_graph()):
        cases += [(g, g.full_mask) for g in (relabeled(base, rng=rng) for _ in range(20))]
    seen = set()
    for g, keep in cases:
        sub = networkx_graph(induced_subgraph(g, keep)[0])
        want = next((kind for kind, ref in refs if nx.is_isomorphic(sub, ref)), None)
        assert _exceptional_kind(g, keep) == want, (encode_g6(g), keep)
        seen.add(want)
    assert seen == {"small", "y", None}


def test_rejects_exceptional_inputs():
    for g in (diamond_graph(), complete_graph(4), y_graph()):
        with pytest.raises(ExceptionalGraphError):
            isolating_set_n5(g)


def test_rejects_disconnected_input():
    with pytest.raises(DisconnectedGraphError):
        isolating_set_n5(disjoint_union([path_graph(3), path_graph(3)]))


def test_a_graph_no_pivot_certifies_is_named_as_the_offender(monkeypatch, capsys):
    # with no pivot candidate no cut certifies: the error names the input
    # graph, and the n5 command reports it as the offender and exits 1
    monkeypatch.setattr("isolation.constructive._pivot_candidates",
                        lambda g, keep: iter(()))
    g = extremal_witness_15()
    with pytest.raises(BudgetCertificationError) as exc:
        isolating_set_n5(g)
    assert exc.value.g6 == encode_g6(g)
    monkeypatch.setattr("sys.stdin", io.StringIO(encode_g6(g) + "\n"))
    assert main(["n5"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == "certification-failed"
    assert record["offender"] == encode_g6(g)


@pytest.mark.parametrize("chosen", [
    pytest.param(lambda g: g.full_mask, id="over-budget"),
    pytest.param(lambda g: 0, id="not-isolating"),
])
def test_a_set_that_fails_the_final_check_is_refused(monkeypatch, chosen):
    # the budget and isolation check on the composed set is the last guard:
    # a set over floor(n/5), or one that leaves a diamond, never escapes
    g = extremal_witness_15()
    monkeypatch.setattr("isolation.constructive._solve",
                        lambda g, keep, depth: (chosen(g), []))
    with pytest.raises(BudgetCertificationError) as exc:
        isolating_set_n5(g)
    assert exc.value.g6 == encode_g6(g)


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
    assert mask_of(v for step in trace.steps for v in step.pivots) == s
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


# Traces recorded when the recursion still built a relabeled copy of every
# residual component; a relabeling that keeps vertex order keeps every
# tie-break, so working on masks must reproduce them exactly.  Rows are
# (case, depth, pivots, removed, suborders).
GOLDEN_TRACES = {
    "h15": [
        ("cut:anchor", 0, [0], [0, 1, 2, 3], [11]),
        ("cut:anchor", 1, [5], [5, 6, 7, 8], [7]),
        ("small-order-exact", 2, [10], [4, 9, 10, 11, 12, 13, 14], []),
    ],
    "gadget_chain_5": [
        ("cut:anchor", 0, [0], [0, 1, 2, 3], [21]),
        ("cut:anchor", 1, [5], [5, 6, 7, 8], [17]),
        ("cut:anchor", 2, [10], [10, 11, 12, 13], [13]),
        ("cut:anchor", 3, [15], [15, 16, 17, 18], [9]),
        ("small-order-exact", 4, [20], [4, 9, 14, 19, 20, 21, 22, 23, 24], []),
    ],
    "fallback": [
        ("cut:fallback", 0, [0], [0, 1, 5, 9], [3, 3, 4]),
        ("diamond-free", 1, [], [2, 3, 4], []),
        ("diamond-free", 1, [], [6, 7, 8], []),
        ("exceptional-component", 1, [10], [10, 11, 12, 13], []),
    ],
    "two_y_blocks": [
        ("cut:anchor", 0, [2], [0, 1, 2, 3, 6, 18], [3, 9, 3, 9]),
        ("diamond-free", 1, [], [4, 5, 7], []),
        ("exceptional-component", 1, [8, 9], [8, 9, 10, 11, 12, 13, 14, 15, 16], []),
        ("diamond-free", 1, [], [17, 19, 20], []),
        ("exceptional-component", 1, [21, 22],
         [21, 22, 23, 24, 25, 26, 27, 28, 29], []),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_trace_matches_the_recorded_one(name):
    graphs = {
        "h15": extremal_witness_15,
        "gadget_chain_5": lambda: gadget_chain(5),
        "fallback": lambda: decode_g6("M`Mo?CB_o??@?BOB?"),
        # a 30-vertex block composition: two Y blocks the first cut leaves whole
        "two_y_blocks": lambda: decode_g6(
            "]Z?HWW??G@_B?BC@_?W@B?KK??@??G??K??F_??????_??B???B???@_???W???B???CK???WW"),
    }
    s, trace = isolating_set_n5(graphs[name]())
    keys = ("case", "depth", "pivots", "removed", "suborders")
    want = [dict(zip(keys, row)) for row in GOLDEN_TRACES[name]]
    assert trace.to_dict() == {"steps": want}
    assert s == mask_of(v for step in trace.steps for v in step.pivots)


def check_candidate_order(g, keep):
    """The candidates in the connected mask ``keep`` are the anchor, its
    neighbors, then the rest of ``keep`` by distance from the anchor, each
    distance in increasing order and each vertex once."""
    cands = list(_pivot_candidates(g, keep))
    anchor = cands[0][0]
    dist, queue = {anchor: 0}, [anchor]
    for u in queue:  # breadth-first: the queue grows while it is read
        for w in bits(g.adj[u] & keep):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    assert len(dist) == keep.bit_count()
    rules = {0: "anchor", 1: "neighbor"}
    assert cands == [(v, rules.get(dist[v], "fallback"))
                     for v in sorted(dist, key=lambda v: (dist[v], v))]
    return cands


def test_candidates_run_from_the_anchor_by_distance():
    rng = random.Random(505)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randrange(10, 30))
        check_candidate_order(g, g.full_mask)


def test_candidates_on_a_residual_mask_stay_inside_it():
    # the candidates of a residual component lie in it, and are those of the
    # relabeled copy of that component mapped back to the input's labels
    rng = random.Random(506)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randrange(10, 30))
        rest = g.full_mask & ~closed_neighborhood(g, 1 << rng.randrange(g.n))
        rest_graph, rest_old = induced_subgraph(g, rest)
        for comp in components(rest_graph):
            keep = mask_of(rest_old[v] for v in bits(comp))
            cands = check_candidate_order(g, keep)
            sub, old = induced_subgraph(g, keep)
            assert cands == [(old[v], rule)
                             for v, rule in _pivot_candidates(sub, sub.full_mask)]


def expected_anchor(g, keep):
    """The least vertex of maximum degree in ``keep``, or at maximum degree
    3 the least degree-3 vertex whose neighborhood in ``keep`` holds exactly
    two edges, if there is one; degrees are taken within ``keep``."""
    verts = [v for v in range(g.n) if keep >> v & 1]
    deg = {v: sum(1 for u in verts if g.adj[v] >> u & 1) for v in verts}
    top = max(deg.values())
    if top == 3:
        for v in verts:
            near = [u for u in verts if g.adj[v] >> u & 1]
            edges = sum(1 for i, u in enumerate(near) for w in near[i + 1:]
                        if g.adj[u] >> w & 1)
            if deg[v] == 3 and edges == 2:
                return v
    return next(v for v in verts if deg[v] == top)


def test_anchor_is_the_least_vertex_of_maximum_degree():
    # on the whole graph and on each component left by one closed
    # neighborhood; the relabeled gadget chains, whose degree-3 vertices
    # are not all diamond vertices, reach the cubic rule
    rng = random.Random(507)
    graphs = [random_connected_graph(rng, rng.randint(10, 60), rng.uniform(0.0, 0.3))
              for _ in range(200)]
    graphs += [relabeled(gadget_chain(k), rng=rng) for k in range(2, 13) for _ in range(5)]
    for g in graphs:
        rest = g.full_mask & ~closed_neighborhood(g, 1 << rng.randrange(g.n))
        rest_graph, rest_old = induced_subgraph(g, rest)
        keeps = [g.full_mask] + [mask_of(rest_old[v] for v in bits(comp))
                                 for comp in components(rest_graph)]
        for keep in keeps:
            assert next(_pivot_candidates(g, keep)) == (expected_anchor(g, keep), "anchor")


def test_construction_is_pinned():
    # the pin and how it is taken live in tests/digest.py, which also runs
    # without pytest
    assert construction_digest(construction_graphs()) == PINNED_CONSTRUCTION


def test_fallback_pivot_is_needed():
    # the anchor and all its neighbors fail the budget on this graph; only a
    # fallback candidate certifies 2 = floor(14/5)
    s, trace = certified(decode_g6("M`Mo?CB_o??@?BOB?"))
    assert s.bit_count() == 2
    assert any(step.case == "cut:fallback" for step in trace.steps)


# FALLBACK_CUT (tests/data/fallback_cut.g6) holds every graph whose
# construction takes a cut:fallback step among 3,000 perfbench/workloads.py
# block_composition(rng, (2, 10)) draws followed by 500
# random_connected_graph(rng, n, p) draws (n from 10, 12, 14, 16, 18, 20, 24;
# p uniform in [0.05, 0.25]) for each rng = Random(seed), seed 0..299, in the
# order found; all 209 are block compositions.  Each reaches cut:fallback
# through the anchor rule at maximum degree 3 (``_pivot_candidates``):
# without that rule all 209 certify through cut:anchor.  The digest pins the
# set and the trace of each: a change to the candidate order that alters
# either changes it.
FALLBACK_CUT_DIGEST = "83177c65d278dafefe83a003a7710896528050090f5b38b0b583fb1b0ddf754a"


def test_fallback_corpus_is_pinned():
    h = hashlib.sha256()
    for line in FALLBACK_CUT.read_text().split():
        s, trace = certified(decode_g6(line))
        assert any(step.case == "cut:fallback" for step in trace.steps), line
        h.update(json.dumps([s, trace.to_dict()]).encode() + b"\n")
    assert h.hexdigest() == FALLBACK_CUT_DIGEST


def test_deep_recursion_strictly_shrinks():
    _, trace = isolating_set_n5(gadget_chain(8))
    per_depth = {}
    for step in trace.steps:
        per_depth.setdefault(step.depth, 0)
        per_depth[step.depth] += step.removed.bit_count()
    # each level consumes at least two vertices before recursing
    assert all(count >= 2 for count in per_depth.values())
