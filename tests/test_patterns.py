import math
import random
import re
from collections import Counter
from itertools import combinations

import pytest

from isolation import (
    ANY_CYCLE,
    DIAMOND,
    K1,
    K2,
    P3,
    Graph,
    PatternFamily,
    UnsupportedFamilyError,
    book,
    book_graph,
    canonical_form,
    circulant_graph,
    clique,
    complete_bipartite_graph,
    complete_graph,
    contains_pattern,
    custom,
    cycle_graph,
    decode_g6,
    diamond_graph,
    encode_g6,
    enumerate_copies,
    extremal_witness_15,
    induced_subgraph,
    iota_exact,
    is_connected,
    is_isolating,
    make_named,
    mask_of,
    parse_family,
    path_graph,
    random_connected_graph,
    star,
    y_graph,
)
from isolation.graph_core import MAX_VERTICES
from isolation.patterns import _copies, shortest_cycle
from oracles import (
    closures_brute,
    contains_brute,
    copies_brute,
    disjoint_union,
    naive_iota,
    networkx_graph,
)


# --- family parsing ---------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("diamond", DIAMOND),
    ("k1", K1),
    ("k2", K2),
    ("K:2", K2),
    ("p3", P3),
    ("anycycle", ANY_CYCLE),
    ("k:4", clique(4)),
    ("star:2", star(2)),
    ("book:3", book(3)),
])
def test_parse_family(text, expected):
    assert parse_family(text) == expected


def test_parse_family_custom_compares_up_to_isomorphism():
    f = parse_family("custom:C}")
    assert f == custom(diamond_graph())


def test_equal_custom_families_share_one_label():
    # BW and Bo are the path P3 in two labelings: one family, one label
    a, b = parse_family("custom:BW"), parse_family("custom:Bo")
    assert a == b and hash(a) == hash(b)
    assert a.label() == b.label()
    assert parse_family(a.label()) == a


@pytest.mark.parametrize("text", ["widget", "k:x", "star:", "custom:!!"])
def test_parse_family_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_family(text)


def test_family_aliases_are_one_object():
    # each named family is the member of its parametrized kind: equal, with
    # the same hash and label, however it is spelled or built
    for named, spelling in ((K1, "k:1"), (K2, "k:2"), (P3, "star:1"),
                            (DIAMOND, "book:2")):
        for f in (parse_family(spelling), PatternFamily(named.kind, named.k)):
            assert f == named and hash(f) == hash(named)
            assert f.label() == named.label()
    assert (star(1), book(2), clique(1)) == (P3, DIAMOND, K1)
    assert parse_family("book:1") == parse_family("k:3") == clique(3) == book(1)
    assert parse_family("book:1").label() == "k:3"
    assert PatternFamily("clique", 2) == K2
    # B_1 is K_3, whose kind is clique: the one parameter a constructor refuses
    with pytest.raises(ValueError, match=re.escape("clique(3)")):
        PatternFamily("book", 1)


@pytest.mark.parametrize("kind", ["widget", "k1", "k2", "p3", "diamond"])
def test_family_rejects_unknown_kinds(kind):
    with pytest.raises(ValueError, match="unknown pattern kind"):
        PatternFamily(kind)


@pytest.mark.parametrize("text", [
    "k1", "k2", "p3", "diamond", "anycycle",
    *(f"k:{k}" for k in range(1, 6)),
    *(f"star:{k}" for k in range(1, 4)),
    *(f"book:{p}" for p in range(1, 5)),
    "custom:C~",
])
def test_family_label_round_trips(text):
    f = parse_family(text)
    assert parse_family(f.label()) == f


def test_family_validation():
    assert clique(2) == K2 and hash(clique(2)) == hash(K2)
    assert clique(2).label() == "k2"
    # a parameter would make a second any-cycle or custom family
    for kind, pattern in (("anycycle", None), ("custom", path_graph(3))):
        with pytest.raises(ValueError, match="takes no parameter"):
            PatternFamily(kind, 3, pattern=pattern)
    with pytest.raises(ValueError):
        clique(0)
    with pytest.raises(ValueError):
        book(0)
    with pytest.raises(ValueError):
        custom(disjoint_union([path_graph(2), path_graph(2)]))
    with pytest.raises(ValueError):
        custom(path_graph(9))
    # no graph holds a pattern on more than MAX_VERTICES vertices: K_k has
    # k, the star and the book k + 2
    assert parse_family("k:1024") == clique(MAX_VERTICES)
    assert parse_family("star:1022") == star(MAX_VERTICES - 2)
    assert parse_family("book:1022") == book(MAX_VERTICES - 2)
    for text in ("k:1025", "k:2000", "star:1023", "book:1023", "book:99999999"):
        with pytest.raises(ValueError, match="more than 1024 vertices"):
            parse_family(text)


def test_custom_patterns_are_capped_at_eight_vertices():
    # P_8 is the largest path a custom family takes; in P_12 the closed
    # neighborhood of vertex 3 leaves P_2 and P_7, so one vertex isolates
    res = iota_exact(path_graph(12), custom(path_graph(8)))
    assert (res.value, res.witness) == (1, 1 << 3)
    assert naive_iota(path_graph(12), custom(path_graph(8))) == 1
    with pytest.raises(ValueError, match="capped at 8 vertices"):
        custom(path_graph(9))


# --- containment ------------------------------------------------------------

def test_contains_diamond_examples():
    assert contains_pattern(complete_graph(4), DIAMOND)
    assert not contains_pattern(cycle_graph(5), DIAMOND)
    assert contains_pattern(y_graph(), DIAMOND)


def test_contains_fast_path_families():
    p4 = path_graph(4)
    assert contains_pattern(p4, K1) and contains_pattern(p4, K2)
    assert contains_pattern(p4, P3)
    assert not contains_pattern(complete_graph(1), K2)
    assert not contains_pattern(path_graph(2), P3)
    assert contains_pattern(complete_bipartite_graph(1, 3), star(2))
    assert not contains_pattern(cycle_graph(6), star(2))
    assert contains_pattern(cycle_graph(3), ANY_CYCLE)
    assert not contains_pattern(path_graph(6), ANY_CYCLE)


def test_copies_k4_diamond_single_support():
    # every choice of shared edge lands on the same 4-vertex support
    assert enumerate_copies(complete_graph(4), DIAMOND) == [0b1111]


def test_copies_diamond_itself():
    assert enumerate_copies(diamond_graph(), DIAMOND) == [0b1111]


def test_copies_c5_diamond_empty():
    assert enumerate_copies(cycle_graph(5), DIAMOND) == []


def test_copies_anycycle_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        enumerate_copies(cycle_graph(4), ANY_CYCLE)


def test_copies_supports_have_expected_sizes():
    g = complete_graph(5)
    assert all(m.bit_count() == 3 for m in enumerate_copies(g, P3))
    assert all(m.bit_count() == 4 for m in enumerate_copies(g, clique(4)))
    assert all(m.bit_count() == 4 for m in enumerate_copies(g, star(2)))
    assert all(m.bit_count() == 5 for m in enumerate_copies(g, book(3)))


def test_diamond_fast_path_matches_backtracking(census):
    needle = custom(diamond_graph())
    for n in range(1, 8):
        for g in census[n]:
            assert contains_pattern(g, DIAMOND) == contains_pattern(g, needle)


# --- containment inside a vertex mask ----------------------------------------

MASK_FAMILIES = [K1, K2, P3, DIAMOND, ANY_CYCLE, clique(3), clique(4), clique(5),
                 star(2), book(3), custom(decode_g6("Cx")), custom(path_graph(4)),
                 custom(cycle_graph(4))]


@pytest.mark.parametrize("f", [K2, P3, DIAMOND, ANY_CYCLE, custom(path_graph(3))],
                         ids=lambda f: f.kind)
def test_masks_outside_the_vertex_set_are_refused(f):
    # -1 is no vertex set, and bit n names a vertex the graph lacks
    y = y_graph()
    for within in (-1, 1 << y.n, y.full_mask | 1 << y.n):
        with pytest.raises(ValueError, match="vertex set"):
            contains_pattern(y, f, within)


def residual_mask(g, s):
    """V(g) minus N[s], computed from the rows alone."""
    hit = s
    for v in range(g.n):
        if s >> v & 1:
            hit |= g.adj[v]
    return g.full_mask & ~hit


def check_masked_containment(g, within, s):
    for f in MASK_FAMILIES:
        assert contains_pattern(g, f, within) == contains_brute(g.adj, within, f), \
            (encode_g6(g), within, f.label())
        assert contains_pattern(g, f, g.full_mask) == contains_pattern(g, f)
        assert not contains_pattern(g, f, 0)
        left = residual_mask(g, s)
        assert is_isolating(g, f, s) == (not contains_brute(g.adj, left, f)), \
            (encode_g6(g), s, f.label())


def test_masked_containment_matches_brute_force_on_the_census(census):
    rng = random.Random(808)
    for n in range(1, 8):
        for g in census[n]:
            check_masked_containment(g, rng.getrandbits(n),
                                     rng.getrandbits(n) & rng.getrandbits(n))


def test_masked_containment_matches_brute_force_on_random_graphs():
    rng = random.Random(809)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_connected_graph(rng, n)
        check_masked_containment(g, rng.getrandbits(n),
                                 rng.getrandbits(n) & rng.getrandbits(n))


# --- copies inside a vertex mask ----------------------------------------------

FINITE_MASK_FAMILIES = [f for f in MASK_FAMILIES if f.finite]


def test_masked_copies_match_brute_force_on_the_census(census):
    rng = random.Random(810)
    for n in range(1, 7):
        units = [1 << v for v in range(n)]
        for g in census[n]:
            for within in (g.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
                for f in FINITE_MASK_FAMILIES:
                    assert set(_copies(g, f, within, units)) == \
                        copies_brute(g.adj, within, f), (encode_g6(g), within, f.label())


def yields_brute(adj, within, f):
    """How often the copy generator yields each support of a star or book
    family inside ``within``: for a book, the spines (an edge of the
    support) both of whose ends are adjacent to every page; for a star, the
    centres adjacent to every leaf."""
    counts = Counter()
    verts = [v for v in range(len(adj)) if within >> v & 1]
    for support in combinations(verts, f.k + 2):
        s = mask_of(support)
        for core in combinations(support, 1 + (f.kind == "book")):
            pages = s & ~mask_of(core)
            if all(adj[c] & pages == pages for c in core) and \
                    (len(core) == 1 or adj[core[0]] >> core[1] & 1):
                counts[s] += 1
    return counts


@pytest.mark.parametrize("f", [P3, star(2), star(3), DIAMOND, book(3)],
                         ids=lambda f: f.label())
def test_each_copy_is_yielded_once_per_core(census, f):
    # a set comparison cannot see a spine or a centre walked twice
    rng = random.Random(812)
    for n in range(1, 8):
        units = [1 << v for v in range(n)]
        for g in census[n]:
            for within in (g.full_mask, rng.getrandbits(n)):
                assert Counter(_copies(g, f, within, units)) == \
                    yields_brute(g.adj, within, f), (encode_g6(g), within)


def test_enumerate_copies_matches_brute_force_on_the_census(census):
    for n in range(1, 7):
        for g in census[n]:
            for f in FINITE_MASK_FAMILIES:
                copies = enumerate_copies(g, f)
                assert len(set(copies)) == len(copies), (encode_g6(g), f.label())
                assert sorted(copies) == sorted(copies_brute(g.adj, g.full_mask, f)), \
                    (encode_g6(g), f.label())


CLOSURE_FAMILIES = [clique(1), clique(2), clique(3), clique(4), clique(5), star(1),
                    star(2), book(2), book(3), custom(decode_g6("Cx")),
                    custom(path_graph(4))]


@pytest.mark.parametrize("f", CLOSURE_FAMILIES, ids=lambda f: f.label())
def test_closed_copies_match_the_brute_force_closures(f):
    # random graphs in which some vertices are isolated: there the closure
    # of a K1 copy is the vertex alone
    rng = random.Random(811)
    for _ in range(50):
        n = rng.randint(1, 9)
        alone = rng.getrandbits(n) & rng.getrandbits(n)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if not (alone >> u | alone >> v) & 1
                                 and rng.random() < 0.7])
        closures = enumerate_copies(g, f, closed=True)
        assert len(set(closures)) == len(closures), encode_g6(g)
        assert sorted(closures) == closures_brute(g.adj, f), encode_g6(g)


# --- named graphs -----------------------------------------------------------

def test_diamond_shape():
    g = diamond_graph()
    degs = [g.degree(v) for v in range(4)]  # the labels the docstring gives
    assert g.n == 4 and g.edge_count() == 5 and degs == [3, 3, 2, 2]


def test_book_two_pages_is_the_diamond():
    assert canonical_form(book_graph(2)) == canonical_form(diamond_graph())


def test_named_constructors_basic_shapes():
    assert path_graph(1).n == 1
    assert cycle_graph(3).edge_count() == 3
    assert complete_bipartite_graph(2, 3).edge_count() == 6
    assert circulant_graph(9, (1, 2)).edge_count() == 18
    assert circulant_graph(6, (3,)).edge_count() == 3  # antipodal matching


def test_named_constructor_validation():
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        complete_bipartite_graph(2, 0)
    with pytest.raises(ValueError):
        circulant_graph(9, (5,))
    with pytest.raises(ValueError):
        circulant_graph(9, ())
    with pytest.raises(ValueError):
        circulant_graph(0, [1])
    with pytest.raises(ValueError):
        book_graph(0)


def test_make_named_specs():
    assert make_named("diamond") == diamond_graph()
    assert make_named("Y") == y_graph()
    assert make_named("h15") == extremal_witness_15()
    assert make_named("path:5") == path_graph(5)
    assert make_named("complete_bipartite:2,3") == complete_bipartite_graph(2, 3)
    assert make_named("circulant:9:1,2") == y_graph()
    for bad in ("widget", "path:zero", "circulant:9", "path"):
        with pytest.raises(ValueError):
            make_named(bad)


def test_h15_shape_gates():
    g = extremal_witness_15()
    assert g.n == 15 and is_connected(g)
    # three vertex-disjoint diamond gadgets
    copies = enumerate_copies(g, DIAMOND)
    assert len(copies) == 3
    union = 0
    for c in copies:
        assert not (union & c)
        union |= c


def test_copy_supports_contain_the_pattern():
    from isolation import induced_subgraph

    g = y_graph()
    for m in enumerate_copies(g, DIAMOND):
        sub, _ = induced_subgraph(g, m)
        assert contains_pattern(sub, DIAMOND)
        assert m.bit_count() == 4


# --- shortest cycle -----------------------------------------------------------

def shortest_cycle_cases(census):
    """(graph, within) pairs: the census for n <= 7 and seeded random graphs,
    some disconnected, each with its full vertex set and a random subset."""
    rng = random.Random(43)
    graphs = [g for n in range(1, 8) for g in census[n]]
    for _ in range(200):
        parts = [random_connected_graph(rng, rng.randrange(1, 9))
                 for _ in range(rng.randrange(1, 3))]
        graphs.append(disjoint_union(parts))
    for g in graphs:
        yield g, g.full_mask
        yield g, rng.randrange(1 << g.n)


def test_shortest_cycle_is_a_chordless_cycle_or_zero(census):
    for g, within in shortest_cycle_cases(census):
        c = shortest_cycle(g, within)
        sub, _ = induced_subgraph(g, within)
        assert (c != 0) == contains_pattern(sub, ANY_CYCLE)
        assert not c & ~within
        if c:
            cycle, _ = induced_subgraph(g, c)
            assert cycle.n >= 3 and is_connected(cycle)
            assert all(row.bit_count() == 2 for row in cycle.adj)


def test_shortest_cycle_length_is_the_girth(census):
    nx = pytest.importorskip("networkx")
    for g, within in shortest_cycle_cases(census):
        sub, _ = induced_subgraph(g, within)
        girth = nx.girth(networkx_graph(sub))
        expected = 0 if girth == math.inf else girth
        assert shortest_cycle(g, within).bit_count() == expected
