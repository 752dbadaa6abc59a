import random

import pytest

from isolation import (
    Graph,
    Graph6Error,
    attach_gadget,
    bits,
    canonical_form,
    closed_neighborhood,
    complete_graph,
    components,
    cycle_graph,
    decode_g6,
    delete_closed_neighborhood,
    diamond_graph,
    encode_g6,
    enumerate_copies,
    extremal_witness_15,
    induced_subgraph,
    is_connected,
    mask_of,
    path_graph,
    vertex_connectivity,
    y_graph,
    DIAMOND,
)
from oracles import disjoint_union


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
    res, idx = delete_closed_neighborhood(complete_graph(4), 0b0001)
    assert res.n == 0 and idx == ()


def test_delete_closed_neighborhood_c6_leaves_path():
    res, idx = delete_closed_neighborhood(cycle_graph(6), 0b000001)
    assert idx == (2, 3, 4)
    assert res.n == 3 and res.edge_count() == 2 and is_connected(res)


def test_delete_closed_neighborhood_h15_gadget_vertex():
    # removing the closed neighborhood of a gadget's degree-3 vertex strips
    # that gadget's diamond; frozen from the copy-enumeration oracle
    res, _ = delete_closed_neighborhood(extremal_witness_15(), 0b1)
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
    assert vertex_connectivity(complete_graph(4)) == 3
    assert vertex_connectivity(cycle_graph(5)) == 2
    assert vertex_connectivity(y_graph()) == 4
    assert vertex_connectivity(path_graph(2)) == 1
    assert vertex_connectivity(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])) == 1


def test_vertex_connectivity_disconnected_is_zero():
    assert vertex_connectivity(disjoint_union([path_graph(2), path_graph(2)])) == 0


def test_vertex_connectivity_needs_two_vertices():
    with pytest.raises(ValueError):
        vertex_connectivity(path_graph(1))


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
