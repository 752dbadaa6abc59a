import inspect
import random
import sys
import time
from math import factorial

import pytest

from isolation import (
    Graph,
    Graph6Error,
    attach_gadget,
    automorphisms,
    bits,
    canonical_form,
    circulant_graph,
    closed_neighborhood,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    decode_g6,
    diamond_graph,
    encode_g6,
    enumerate_copies,
    extremal_witness_15,
    induced_subgraph,
    is_connected,
    mask_of,
    path_graph,
    y_graph,
    DIAMOND,
)
from isolation.graph_core import _canonical_search
from isolation.patterns import _connectivity_is_4
from oracles import (
    count_automorphisms,
    decode_g6_reference,
    disjoint_union,
    group_order,
    networkx_graph,
)


def random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# --- construction invariants -----------------------------------------------

def test_rejects_asymmetric_rows():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (0b10, 0b00))


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(1, (0b1,))
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(0, 0)])


def test_rejects_out_of_range_bits():
    with pytest.raises(ValueError, match="bit"):
        Graph(2, (0b100, 0b000))
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_rejects_oversized_order():
    with pytest.raises(ValueError):
        Graph(1025, tuple([0] * 1025))


def test_unchecked_builds_would_pass_the_checks(census):
    # induced subgraphs and census graphs skip the constructor's checks,
    # because their rows are valid by construction; the checks agree
    for n in range(1, 9):
        for g in census[n]:
            assert Graph(g.n, g.adj) == g
    rng = random.Random(47)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 12))
        sub, _ = induced_subgraph(g, rng.getrandbits(g.n))
        assert Graph(sub.n, sub.adj) == sub


# --- closed neighborhoods ---------------------------------------------------

def test_closed_neighborhood_path_center():
    assert closed_neighborhood(path_graph(3), 0b010) == 0b111


def test_closed_neighborhood_empty_set():
    assert closed_neighborhood(cycle_graph(5), 0) == 0


def test_closed_neighborhood_diamond_degree2_vertex():
    # vertex 2 has degree 2; its closure is itself plus both degree-3 vertices
    assert closed_neighborhood(diamond_graph(), 0b0100) == 0b0111


def test_closed_neighborhood_rejects_foreign_bits():
    with pytest.raises(ValueError, match="bit index"):
        closed_neighborhood(path_graph(3), 0b1000)


def test_delete_closed_neighborhood_k4_collapses():
    g = complete_graph(4)
    res, idx = induced_subgraph(g, g.full_mask & ~closed_neighborhood(g, 0b0001))
    assert res.n == 0 and idx == ()


def test_delete_closed_neighborhood_c6_leaves_path():
    g = cycle_graph(6)
    res, idx = induced_subgraph(g, g.full_mask & ~closed_neighborhood(g, 0b000001))
    assert idx == (2, 3, 4)
    assert res.n == 3 and res.edge_count() == 2 and is_connected(res)


def test_delete_closed_neighborhood_h15_gadget_vertex():
    # removing the closed neighborhood of a gadget's degree-3 vertex strips
    # that gadget's diamond; frozen from the copy-enumeration oracle
    g = extremal_witness_15()
    res, _ = induced_subgraph(g, g.full_mask & ~closed_neighborhood(g, 0b1))
    assert res.n == 11
    assert len(enumerate_copies(res, DIAMOND)) == 2


# --- components and cut counts ----------------------------------------------

def test_components_two_triangles():
    g = disjoint_union([complete_graph(3), complete_graph(3)])
    assert components(g) == [0b000111, 0b111000]


def test_components_connected_graph_is_single_part():
    g = cycle_graph(7)
    assert components(g) == [g.full_mask]


def test_components_diamond_plus_isolated_vertex():
    g = Graph.from_edges(5, list(diamond_graph().edges()))
    assert components(g) == [0b01111, 0b10000]


def test_components_partition_properties(census):
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 9), rng.uniform(0.1, 0.5))
        parts = components(g)
        union = 0
        for part in parts:
            assert not (union & part)
            union |= part
            sub, _ = induced_subgraph(g, part)
            assert is_connected(sub)
        assert union == g.full_mask
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                assert not any(g.adj[v] & b for v in bits(a))


def test_vertex_connectivity_values():
    # connectivity 3 (K4, K_{3,5}), 2, 1, 1 and 5 (K6, C9(1,2,3)) against 4:
    # Y, K5, the octahedron and K_{4,5}
    for g in (complete_graph(4), complete_bipartite_graph(3, 5), cycle_graph(5),
              path_graph(2), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
              complete_graph(6), circulant_graph(9, (1, 2, 3))):
        assert not _connectivity_is_4(g), encode_g6(g)
    for g in (y_graph(), complete_graph(5), circulant_graph(6, (1, 2)),
              complete_bipartite_graph(4, 5)):
        assert _connectivity_is_4(g), encode_g6(g)


def test_vertex_connectivity_disconnected_is_not_4():
    assert not _connectivity_is_4(disjoint_union([path_graph(2), path_graph(2)]))
    assert not _connectivity_is_4(disjoint_union([y_graph(), complete_graph(5)]))


def test_vertex_connectivity_below_five_vertices_is_not_4():
    for n in range(5):
        assert not _connectivity_is_4(complete_graph(n) if n else Graph(0, ()))


def test_vertex_connectivity_matches_networkx(census):
    nx = pytest.importorskip("networkx")
    graphs = [g for n in range(1, 8) for g in census[n]]
    graphs += [Graph.from_edges(n, nx.random_regular_graph(4, n, seed=seed).edges())
               for n in range(5, 15) for seed in range(5)]
    for g in graphs:
        assert _connectivity_is_4(g) == (nx.node_connectivity(networkx_graph(g)) == 4), \
            encode_g6(g)


def test_induced_subgraph_of_the_whole_vertex_set_is_the_identity():
    rng = random.Random(67)
    for n in (0, 1, 5, 12):
        g = random_graph(rng, n)
        sub, old = induced_subgraph(g, g.full_mask)
        assert sub == g and old == tuple(range(n))


# --- graph6 ------------------------------------------------------------------

def test_encode_k4():
    assert encode_g6(complete_graph(4)) == "C~"


def test_encode_diamond():
    # all upper-triangle bits except the last (pair 2,3): 111110 -> '}'
    assert encode_g6(diamond_graph()) == "C}"


def test_roundtrip_named_graphs():
    for g in [y_graph(), extremal_witness_15(), path_graph(1), complete_graph(1),
              cycle_graph(9), Graph(0, ())]:
        assert decode_g6(encode_g6(g)) == g


def test_roundtrip_long_order_form():
    g = path_graph(63)
    text = encode_g6(g)
    assert text.startswith("~")
    assert decode_g6(text) == g


def test_header_tolerated():
    assert decode_g6(">>graph6<<C~") == complete_graph(4)
    assert decode_g6("  C~  ") == complete_graph(4)


def test_decode_rejects_bad_character():
    # '!' is below the graph6 alphabet (63..126)
    with pytest.raises(Graph6Error) as err:
        decode_g6("D?!")
    assert err.value.offset == 2


def test_decode_rejects_truncation():
    with pytest.raises(Graph6Error, match="truncated"):
        decode_g6("D")  # order 5 needs ceil(10/6) = 2 data bytes


def test_decode_rejects_trailing_data():
    with pytest.raises(Graph6Error, match="trailing"):
        decode_g6("C~~")


def test_decode_rejects_nonzero_padding():
    # order 2 uses one data byte with 5 padding bits; set one of them
    with pytest.raises(Graph6Error, match="padding"):
        decode_g6("A" + chr(63 + 0b010000))


def test_decode_rejects_empty():
    with pytest.raises(Graph6Error):
        decode_g6("   ")


def _decode_outcome(decode, line):
    """The rows a decoder reads from ``line``, or its error message and offset."""
    try:
        g = decode(line)
    except Graph6Error as exc:
        return "error", str(exc), exc.offset
    return "rows", g if isinstance(g, tuple) else g.adj


def _g6_corpus(rng):
    """Sparse and dense graphs of many orders (both order forms, with and
    without padding bits), and lines: their encodings, then each one
    mutated, truncated, extended and given a header."""
    graphs = [random_graph(rng, n, p) for n in (*range(71), 100, 258, 1024)
              for p in (0.05, 0.6)]
    lines = [encode_g6(g) for g in graphs]
    for line in list(lines):
        if len(line) > 10_000:  # the order-1024 lines are decoded whole only
            continue
        i = rng.randrange(len(line))
        lines.append(line[:i] + chr(rng.choice((rng.randint(0, 62), rng.randint(63, 126),
                                                 rng.randint(127, 300)))) + line[i + 1:])
        last = ord(line[-1]) - 63
        lines.append(line[:-1] + chr(63 + (last ^ 1 << rng.randrange(6))))
        lines.append(line[:rng.randrange(len(line))])
        lines.append(line + "".join(chr(rng.randint(32, 130)) for _ in range(rng.randint(1, 3))))
        lines.append(rng.choice(("", " ", "\t")) + ">>graph6<<" + line + rng.choice(("", "\n")))
    lines += ["".join(chr(rng.randint(40, 130)) for _ in range(rng.randint(0, 8)))
              for _ in range(300)]
    return graphs, lines


def test_decode_matches_the_bitwise_reference():
    rng = random.Random(66)
    graphs, corpus = _g6_corpus(rng)
    for g, line in zip(graphs, corpus):
        assert decode_g6(line) == g
    errors = 0
    for line in corpus:
        got = _decode_outcome(decode_g6, line)
        assert got == _decode_outcome(decode_g6_reference, line), repr(line[:80])
        errors += got[0] == "error"
    assert 0.3 < errors / len(corpus) < 0.9  # the corpus reaches both outcomes


def test_parse_lines_skips_blanks_and_header():
    from isolation.graph_core import parse_graph6_lines

    lines = [">>graph6<<", "", "C~", "   ", "C}"]
    out = list(parse_graph6_lines(lines))
    assert [(no, g.n) for no, g in out] == [(3, 4), (5, 4)]


def test_parse_lines_strict_names_line():
    from isolation.graph_core import parse_graph6_lines

    with pytest.raises(Graph6Error) as info:
        list(parse_graph6_lines(["C~", "C!"]))
    assert str(info.value) == "line 2: invalid graph6 character '!' (byte offset 1)"
    assert (info.value.line, info.value.offset) == (2, 1)


# --- canonical form ----------------------------------------------------------

def test_canonical_invariant_under_relabeling():
    rng = random.Random(42)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 9), rng.uniform(0.15, 0.8))
        key = canonical_form(g)
        for _ in range(100):
            assert canonical_form(shuffled(rng, g)) == key


def complement(g):
    return Graph.from_edges(g.n, [(u, v) for u in range(g.n)
                                  for v in range(u + 1, g.n) if not g.has_edge(u, v)])


def blow_up(g, k, clique):
    """Each vertex of ``g`` replaced by ``k`` twins, adjacent to each other
    when ``clique``."""
    edges = [(u * k + a, v * k + b) for u, v in g.edges()
             for a in range(k) for b in range(k)]
    if clique:
        edges += [(u * k + a, u * k + b) for u in range(g.n)
                  for a in range(k) for b in range(a + 1, k)]
    return Graph.from_edges(g.n * k, edges)


def composed_symmetric_graphs(rng):
    """Repeated random components, unions of cycles, twin blow-ups and
    random circulants, half of them complemented: the search meets
    automorphisms below the first path, where a child is pruned by the
    cycles of one automorphism."""
    out = []
    for i in range(120):
        if i % 4 == 3:
            g = disjoint_union([cycle_graph(rng.randrange(3, 9))
                                for _ in range(rng.randrange(2, 4))])
        elif i % 3 == 0:
            parts = [random_graph(rng, rng.randrange(1, 6), rng.random())
                     for _ in range(rng.randrange(1, 3))]
            copies = [p for p in parts for _ in range(rng.randrange(1, 4))]
            rng.shuffle(copies)
            g = disjoint_union(copies)
        elif i % 3 == 1:
            g = blow_up(random_graph(rng, rng.randrange(2, 7), 0.5),
                        rng.randrange(2, 4), rng.random() < 0.5)
        else:
            n = rng.randrange(5, 30)
            g = circulant_graph(n, rng.sample(range(1, n // 2 + 1),
                                              rng.randrange(1, min(4, n // 2) + 1)))
        out.append(complement(g) if rng.random() < 0.5 else g)
    return out


def test_canonical_invariant_on_composed_symmetric_graphs():
    rng = random.Random(48)
    for g in composed_symmetric_graphs(rng):
        key = canonical_form(g)
        assert realized_key(g, _canonical_search(g.n, g.adj)[1]) == key
        for _ in range(6):
            assert canonical_form(shuffled(rng, g)) == key, encode_g6(g)


def test_canonical_separates_different_degree_sequences():
    rng = random.Random(43)
    seen = {}
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 9), rng.uniform(0.1, 0.9))
        degs = tuple(sorted(g.adj[v].bit_count() for v in range(g.n)))
        seen.setdefault((g.n, degs), set()).add(canonical_form(g))
    keys = [(meta, key) for meta, keyset in seen.items() for key in keyset]
    for i, (meta_a, key_a) in enumerate(keys):
        for meta_b, key_b in keys[i + 1:]:
            if meta_a != meta_b:
                assert key_a != key_b


def test_canonical_c5_vs_p5():
    assert canonical_form(cycle_graph(5)) != canonical_form(path_graph(5))


def test_canonical_all_diamond_relabelings_agree():
    from itertools import permutations

    keys = set()
    base = list(diamond_graph().edges())
    for perm in permutations(range(4)):
        keys.add(canonical_form(
            Graph.from_edges(4, [(perm[u], perm[v]) for u, v in base])))
    assert len(keys) == 1


def random_graph_with_edges(rng, n, m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, m))


def test_canonical_form_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(44)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randrange(4, 9)
        m = rng.randrange(n - 1, n * (n - 1) // 2 - n + 2)
        a = random_graph_with_edges(rng, n, m)
        if rng.random() < 0.5:
            b = shuffled(rng, a)
        else:
            b = random_graph_with_edges(rng, n, m)
        same = nx.is_isomorphic(networkx_graph(a), networkx_graph(b))
        assert (canonical_form(a) == canonical_form(b)) == same
        outcomes[same] += 1
    assert min(outcomes.values()) >= 100


def symmetric_graphs():
    """Graphs with large automorphism groups, where the canonical search
    meets many tied leaves and skips roots by orbit."""
    out = [complete_graph(n) for n in range(1, 8)]
    out += [Graph(n, (0,) * n) for n in range(1, 8)]
    out += [cycle_graph(n) for n in range(3, 13)]
    out += [circulant_graph(n, (1, 2)) for n in range(5, 13)]
    out += [complete_bipartite_graph(3, 4), y_graph(), extremal_witness_15()]
    for part in (complete_graph(3), path_graph(3), cycle_graph(4),
                 diamond_graph()):
        out += [disjoint_union([part] * copies) for copies in (2, 3)]
    out += [disjoint_union([complete_bipartite_graph(1, 3)] * copies)
            for copies in (2, 3)]
    # regular, so the refined colors do not split the orbits: a root in the
    # first color class is not canonical by itself
    out += [disjoint_union([cycle_graph(a), cycle_graph(b)])
            for a, b in ((3, 4), (3, 5), (4, 5))]
    return out


def realized_key(g, perm):
    """graph6 bytes of ``g`` relabeled so that vertex ``perm[i]`` is ``i``."""
    at = [0] * g.n
    for i, v in enumerate(perm):
        at[v] = i
    relabeled = Graph.from_edges(g.n, [(at[u], at[v]) for u, v in g.edges()])
    return encode_g6(relabeled).encode("ascii")


def test_canonical_form_on_symmetric_graphs():
    rng = random.Random(46)
    for g in symmetric_graphs():
        key = canonical_form(g)
        assert realized_key(g, _canonical_search(g.n, g.adj)[1]) == key
        for _ in range(10):
            h = shuffled(rng, g)
            assert canonical_form(h) == key, encode_g6(g)
            assert realized_key(h, _canonical_search(h.n, h.adj)[1]) == key


def large_symmetric_graphs():
    """Cycles and squared cycles up to 64 vertices; complete, edgeless and
    balanced complete bipartite graphs up to 32."""
    out = [cycle_graph(n) for n in range(3, 65)]
    out += [circulant_graph(n, (1, 2)) for n in range(5, 65)]
    for n in range(1, 33):
        out += [complete_graph(n), Graph(n, (0,) * n)]
    out += [complete_bipartite_graph(n // 2, n - n // 2) for n in range(2, 33)]
    return out


def test_canonical_search_is_fast_on_large_symmetric_graphs():
    # without automorphism pruning the search is factorial on these graphs
    rng = random.Random(47)
    start = time.perf_counter()
    for g in large_symmetric_graphs():
        key = canonical_form(g)
        assert realized_key(g, _canonical_search(g.n, g.adj)[1]) == key
        assert canonical_form(shuffled(rng, g)) == key
    assert time.perf_counter() - start < 10


def test_canonical_search_is_not_bounded_by_the_recursion_limit():
    # the search goes one level deeper per individualized vertex: 298 on
    # both graphs below
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        for g in (Graph(300, (0,) * 300), complete_graph(300)):
            assert canonical_form(g) == encode_g6(g).encode("ascii")
    finally:
        sys.setrecursionlimit(limit)


# --- automorphisms -----------------------------------------------------------

def check_generators(g):
    """The generators ``automorphisms`` returns, each checked to be a
    nonidentity automorphism of ``g``."""
    gens = automorphisms(g)
    for sigma in gens:
        assert sorted(sigma) == list(range(g.n))
        assert sigma != tuple(range(g.n))
        assert all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges())
    return gens


def test_automorphism_counts_of_named_graphs():
    for n in range(1, 8):
        assert group_order(check_generators(complete_graph(n)), n) == factorial(n)
        assert group_order(check_generators(Graph(n, (0,) * n)), n) == factorial(n)
    for n in range(3, 13):
        assert group_order(check_generators(cycle_graph(n)), n) == 2 * n
    assert group_order(check_generators(y_graph()), 9) == 18
    assert automorphisms(Graph(0, ())) == []
    assert automorphisms(path_graph(1)) == []


def check_automorphisms(g):
    assert group_order(check_generators(g), g.n) == count_automorphisms(g)


def test_automorphisms_match_brute_force(census):
    for n in range(1, 7):
        for g in census[n]:
            check_automorphisms(g)
    rng = random.Random(45)
    for _ in range(60):  # disconnected and edgeless graphs too
        check_automorphisms(random_graph(rng, rng.randrange(0, 7),
                                         rng.uniform(0.0, 0.6)))


# --- attachments -------------------------------------------------------------

def test_attach_pendant_on_k1():
    g = attach_gadget(complete_graph(1), 0, "pendant")
    assert (g.n, g.edge_count()) == (2, 1)


def test_attach_triangle_on_k1():
    g = attach_gadget(complete_graph(1), 0, "triangle")
    assert g == complete_graph(3)


def test_attach_bridged_triangle_on_k1():
    g = attach_gadget(complete_graph(1), 0, "k3_bridge")
    assert (g.n, g.edge_count()) == (4, 4)
    assert is_connected(g)


def test_attach_rejects_bad_vertex_and_kind():
    with pytest.raises(ValueError, match="vertex"):
        attach_gadget(path_graph(2), 5, "pendant")
    with pytest.raises(ValueError, match="kind"):
        attach_gadget(path_graph(2), 0, "lasso")


def test_attach_preserves_structural_invariants():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 8), 0.4)
        v = rng.randrange(g.n)
        for kind in ("pendant", "triangle", "k3_bridge"):
            h = attach_gadget(g, v, kind)  # constructor revalidates symmetry
            assert h.edge_count() == g.edge_count() + {"pendant": 1,
                                                       "triangle": 3,
                                                       "k3_bridge": 4}[kind]


def test_mask_helpers_roundtrip():
    assert list(bits(mask_of([5, 1, 3]))) == [1, 3, 5]
    assert mask_of([]) == 0
