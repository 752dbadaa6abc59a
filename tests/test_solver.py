import gc
import os
import random
from itertools import combinations, compress
from pathlib import Path

import pytest

from isolation import (
    ANY_CYCLE,
    DIAMOND,
    K1,
    K2,
    P3,
    Graph,
    bits,
    circulant_graph,
    clique,
    complete_graph,
    copy_closures,
    closed_neighborhood,
    cycle_graph,
    decode_g6,
    diamond_graph,
    encode_g6,
    enumerate_copies,
    extremal_witness_15,
    gamma,
    induced_subgraph,
    iota_exact,
    is_isolating,
    mask_of,
    parse_family,
    path_graph,
    random_connected_graph,
    y_graph,
)
from isolation.graph_core import _select
from isolation.solver import (
    _greedy_hitting,
    _meet,
    _solve_hitting,
    _transpose,
    _triangle_closures,
    _undominated,
)
from digest import (
    PINNED_FAMILIES,
    PINNED_NODES,
    PINNED_OUTPUTS,
    pinned_graphs,
    solve_digests,
)
from oracles import (
    disjoint_union,
    list_greedy,
    minimal_family,
    naive_iota,
    reference_hitting,
)


# --- is_isolating -----------------------------------------------------------

def test_any_single_vertex_isolates_the_diamond():
    g = diamond_graph()
    for v in range(4):
        assert is_isolating(g, DIAMOND, 1 << v)


def test_no_single_vertex_isolates_y():
    g = y_graph()
    for v in range(9):
        assert not is_isolating(g, DIAMOND, 1 << v)


def test_empty_set_isolates_c5():
    assert is_isolating(cycle_graph(5), DIAMOND, 0)


# --- exact values -----------------------------------------------------------

@pytest.mark.parametrize("make,expected", [
    (lambda: complete_graph(4), 1),
    (lambda: diamond_graph(), 1),
    (lambda: y_graph(), 2),
    (lambda: extremal_witness_15(), 3),
    (lambda: path_graph(10), 0),
])
def test_iota_exact_known_values(make, expected):
    g = make()
    res = iota_exact(g, DIAMOND)
    assert res.value == expected
    assert res.witness.bit_count() == expected
    assert is_isolating(g, DIAMOND, res.witness)


def test_iota_result_statistics_populated():
    res = iota_exact(y_graph(), DIAMOND)
    assert res.copies_found > 0
    assert res.nodes_explored > 0


def test_iota_deterministic_witness():
    a = iota_exact(y_graph(), DIAMOND)
    b = iota_exact(y_graph(), DIAMOND)
    assert (a.value, a.witness) == (b.value, b.witness)


def test_iota_empty_and_tiny_graphs():
    assert iota_exact(Graph(0, ()), DIAMOND).value == 0
    assert iota_exact(complete_graph(1), K1).value == 1


# --- greedy upper bound -----------------------------------------------------

def greedy_isolating(g, f):
    """The search's greedy incumbent over the distinct copy closures."""
    closures = copy_closures(g, f)
    return _greedy_hitting(_transpose(closures, g.n), (1 << len(closures)) - 1)


def test_greedy_on_diamond_is_single_vertex():
    s = greedy_isolating(diamond_graph(), DIAMOND)
    assert s.bit_count() == 1
    assert is_isolating(diamond_graph(), DIAMOND, s)


def test_greedy_on_diamond_free_graph_is_empty():
    assert greedy_isolating(cycle_graph(7), DIAMOND) == 0


def test_greedy_achieves_optimum_on_y():
    s = greedy_isolating(y_graph(), DIAMOND)
    assert is_isolating(y_graph(), DIAMOND, s)
    assert s.bit_count() == iota_exact(y_graph(), DIAMOND).value == 2


def test_greedy_matches_the_list_greedy_over_distinct_closures(census):
    # the greedy weighs each distinct closure once, however many copies share it
    families = (DIAMOND, P3, K2, parse_family("star:2"))
    graphs = [g for n in range(1, 8) for g in census[n]]
    rng = random.Random(13)
    graphs += [random_connected_graph(rng, rng.randrange(4, 16)) for _ in range(100)]
    for f in families:
        for g in graphs:
            closures = copy_closures(g, f)
            assert len(set(closures)) == len(closures)
            assert greedy_isolating(g, f) == list_greedy(closures, g.n)


def test_greedy_always_valid_never_below_optimum():
    rng = random.Random(5)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(3, 11))
        s = greedy_isolating(g, DIAMOND)
        assert is_isolating(g, DIAMOND, s)
        assert s.bit_count() >= iota_exact(g, DIAMOND).value


# --- domination special case --------------------------------------------------

def test_gamma_complete_graphs():
    for n in range(1, 7):
        assert gamma(complete_graph(n)) == 1


def test_gamma_c6_matches_brute_force():
    assert gamma(cycle_graph(6)) == naive_iota(cycle_graph(6), K1) == 2


def test_gamma_equals_k1_isolation_on_random_graphs():
    rng = random.Random(17)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(1, 10))
        assert gamma(g) == naive_iota(g, K1)


# --- any-cycle family ---------------------------------------------------------

def test_any_cycle_values():
    from isolation import components

    assert iota_exact(path_graph(6), ANY_CYCLE).value == 0
    assert iota_exact(cycle_graph(3), ANY_CYCLE).value == 1
    two_triangles = disjoint_union([complete_graph(3), complete_graph(3)])
    res = iota_exact(two_triangles, ANY_CYCLE)
    assert res.value == 2
    residual, _ = induced_subgraph(
        two_triangles,
        two_triangles.full_mask & ~closed_neighborhood(two_triangles, res.witness))
    assert residual.edge_count() == residual.n - len(components(residual))
    # one triangle closure per component, seeded before the first solve,
    # which hits both, so no shortest-cycle round adds a closure
    assert res.copies_found == 2 and res.nodes_explored > 0
    assert iota_exact(path_graph(6), ANY_CYCLE).copies_found == 0


def test_any_cycle_matches_oracle_on_random_graphs():
    rng = random.Random(41)
    disconnected = 0
    for _ in range(60):
        if rng.random() < 0.4:
            sizes = [rng.randrange(1, 7) for _ in range(rng.randrange(2, 4))]
            g = disjoint_union([random_connected_graph(rng, k) for k in sizes])
            disconnected += 1
        else:
            g = random_connected_graph(rng, rng.randrange(1, 13))
        res = iota_exact(g, ANY_CYCLE)
        assert res.value == naive_iota(g, ANY_CYCLE)
        assert res.witness.bit_count() == res.value
        assert is_isolating(g, ANY_CYCLE, res.witness)
    assert disconnected >= 10


@pytest.mark.parametrize("n", list(range(7, 30)) + [48])
def test_any_cycle_circulant_closed_form(n):
    # in C_n(1,2) each N[v] covers 5 consecutive vertices and any 3
    # consecutive residual vertices form a triangle, so iota = ceil(n/7)
    g = circulant_graph(n, (1, 2))
    res = iota_exact(g, ANY_CYCLE)
    assert res.value == -(-n // 7)
    assert res.witness.bit_count() == res.value
    assert is_isolating(g, ANY_CYCLE, res.witness)


def test_triangle_closures_are_the_clique_closures(census):
    # the seeded closures are the distinct N[support] of the K3 copies, each
    # once however many triangles share it, in increasing order
    def check(g):
        copies = enumerate_copies(g, clique(3))
        expected = {closed_neighborhood(g, c) for c in copies}
        assert _triangle_closures(g.adj) == sorted(expected)

    for n in range(1, 8):
        for g in census[n]:
            check(g)
    rng = random.Random(43)
    for _ in range(60):
        check(random_connected_graph(rng, rng.randrange(1, 40)))
    check(disjoint_union([complete_graph(6), cycle_graph(5), complete_graph(3)]))


# The first eight ring_lattice(Random(5), 96, 0.3) draws of
# perfbench/workloads.py: any-cycle instances that need a deep search.
RINGS96 = Path(__file__).with_name("data") / "rings96.g6"
RINGS96_VALUES = (9, 9, 9, 9, 10, 10, 9, 10)
# Node counts pin what the search prunes on the one pinned input where it
# matters: without element dominance each ring takes 38,525 (ring 6) to
# 299,722 (ring 2) nodes, and with a hit-count bound of most + 1 ring 0
# takes 23,689.
RINGS96_NODES = (18821, 18472, 18781, 40887, 18964, 9124, 8441, 13505)


@pytest.mark.parametrize("i", range(len(RINGS96_VALUES)))
def test_any_cycle_pinned_rings(i):
    g = decode_g6(RINGS96.read_text().split()[i])
    res = iota_exact(g, ANY_CYCLE)
    assert res.value == RINGS96_VALUES[i]
    assert res.witness.bit_count() == res.value
    assert is_isolating(g, ANY_CYCLE, res.witness)
    assert res.nodes_explored == RINGS96_NODES[i]


@pytest.mark.parametrize("top", [
    7,
    pytest.param(8, marks=pytest.mark.skipif(
        not os.environ.get("ISOLATION_EXTENDED"),
        reason="the order-8 census solves take about 10 s; "
               "set ISOLATION_EXTENDED=1 to run")),
])
def test_census_solves_are_pinned(census, top):
    # the pins and how they are taken live in tests/digest.py, which also
    # runs without pytest
    graphs = pinned_graphs(census[n] for n in range(1, top + 1))
    assert solve_digests(graphs) == (PINNED_OUTPUTS[top], PINNED_NODES[top])


@pytest.mark.parametrize("spec", PINNED_FAMILIES)
def test_results_are_values(spec):
    # no field of a result depends on the run, so two solves compare equal
    f = parse_family(spec)
    graphs = (y_graph(), extremal_witness_15(), circulant_graph(12, (1, 3)),
              disjoint_union([cycle_graph(5), complete_graph(4), path_graph(1)]))
    for g in graphs:
        assert iota_exact(g, f) == iota_exact(g, f)


# --- structural invariants --------------------------------------------------

def test_deletion_inequality_exhaustive(census):
    # removing one closed neighborhood costs at most one isolator
    for n in range(1, 9):
        for g in census[n]:
            whole = iota_exact(g, DIAMOND).value
            for v in range(n):
                left = g.full_mask & ~closed_neighborhood(g, 1 << v)
                residual, _ = induced_subgraph(g, left)
                assert whole <= 1 + iota_exact(residual, DIAMOND).value


@pytest.mark.parametrize("top", [
    7,
    pytest.param(8, marks=pytest.mark.skipif(
        not os.environ.get("ISOLATION_EXTENDED"),
        reason="the order-8 chain takes about 2 s; "
               "set ISOLATION_EXTENDED=1 to run")),
])
def test_isolation_numbers_follow_the_containment_chain(census, top):
    # if H is a subgraph of H', every H-isolating set is H'-isolating, so
    # iota(G, H') <= iota(G, H); K3 is one of the cycles
    chain = [parse_family(spec) for spec in ("k1", "k2", "p3", "k:3", "diamond", "k:4")]
    for n in range(1, top + 1):
        for g in census[n]:
            values = [iota_exact(g, f).value for f in chain]
            assert values == sorted(values, reverse=True), encode_g6(g)
            assert iota_exact(g, ANY_CYCLE).value >= values[3], encode_g6(g)


def test_component_additivity_on_random_unions():
    rng = random.Random(31)
    for _ in range(60):
        parts = []
        total = 0
        while total < 12:
            n = rng.randrange(1, 13 - total)
            parts.append(random_connected_graph(rng, n))
            total += n
            if rng.random() < 0.3:
                break
        g = disjoint_union(parts)
        assert iota_exact(g, DIAMOND).value == sum(
            iota_exact(p, DIAMOND).value for p in parts)


@pytest.mark.parametrize("family", [K1, K2, P3, DIAMOND, ANY_CYCLE],
                         ids=lambda f: f.label())
def test_union_solves_each_part_as_it_solves_it_alone(family):
    # G alone is solved as the whole graph, with no relabeling; inside G + H
    # both parts go through the relabeled path, H shifted by G.n
    rng = random.Random(32)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(1, 9))
        h = random_connected_graph(rng, rng.randint(1, 9))
        alone_g, alone_h = iota_exact(g, family), iota_exact(h, family)
        union = iota_exact(disjoint_union([g, h]), family)
        assert union.value == alone_g.value + alone_h.value
        assert union.witness == alone_g.witness | alone_h.witness << g.n


def test_hitting_reduction_matches_residual_definition():
    # S isolates every copy iff S meets every copy closure
    rng = random.Random(37)
    for _ in range(10_000):
        n = rng.randrange(1, 11)
        g = random_connected_graph(rng, n)
        s = rng.randrange(1 << n)
        closures = copy_closures(g, DIAMOND)
        hits_all = all(s & c for c in closures)
        assert hits_all == is_isolating(g, DIAMOND, s)


def test_hitting_instance_sets_are_nonempty_closures():
    g = y_graph()
    closures = copy_closures(g, DIAMOND)
    assert closures and all(c and not c & ~g.full_mask for c in closures)
    assert iota_exact(g, DIAMOND).copies_found == len(closures)


def _incidence(rows, n):
    # bit i of column v is bit v of rows[i], one bit at a time
    return [sum(1 << i for i, r in enumerate(rows) if r >> v & 1) for v in range(n)]


def test_selector_yields_the_set_bits():
    rng = random.Random(53)
    masks = [0, 1, 1 << 1023] + [rng.getrandbits(1024) for _ in range(20)]
    for m in masks:
        assert list(compress(range(1024), _select(m))) == list(bits(m))


def _meet_brute(sets, mask, within, n):
    # the vertices of within that lie in every selected set, one at a time
    chosen = [s for i, s in enumerate(sets) if mask >> i & 1]
    if not chosen:
        return within
    return sum(1 << v for v in range(n)
               if within >> v & 1 and all(s >> v & 1 for s in chosen))


def test_meet_matches_the_brute_force_meet():
    rng = random.Random(79)
    empty = full = 0
    for _ in range(400):
        n = rng.randrange(1, 90)
        density = rng.uniform(0.05, 0.95)
        sets = [sum(1 << v for v in range(n) if rng.random() < density)
                for _ in range(rng.randrange(1, 70))]
        if rng.random() < 0.4:  # a common vertex: the meet never empties
            common = 1 << rng.randrange(n)
            sets = [s | common for s in sets]
        m = len(sets)
        banned = rng.getrandbits(n)
        masks = (0, 1, (1 << m) - 1, rng.getrandbits(m), 1 << rng.randrange(m))
        for mask in masks:
            for within in (-1, ~banned, rng.getrandbits(n) | 1 << n):
                meet = _meet(sets, mask, within)
                assert meet == _meet_brute(sets, mask, within, n)
                empty += not meet
                full += bool(meet) and mask == (1 << m) - 1 and m > 2
    assert empty > 500 and full > 100


@pytest.mark.parametrize("n", [1, 9, 44, 80, 130])
def test_transpose_matches_the_bitwise_incidence(n):
    rng = random.Random(n)
    for m in (0, 1, 63, 64, 65, 2000):
        rows = [rng.getrandbits(n) for _ in range(m)]
        if m:
            rows[0] = (1 << n) - 1  # a full row, and an empty one
            rows[-1] = 0
        assert _transpose(rows, n) == _incidence(rows, n)


def _packing(sets):
    # greedy disjoint packing, in the order given
    packed = []
    for s in sets:
        if all(not s & p for p in packed):
            packed.append(s)
    return packed


def test_sorted_packing_equals_the_packing_of_the_minimal_sets(census):
    # a superset follows its subsets in any order by size, so it always
    # meets the packed vertices: the packing over the distinct closures,
    # which the root bound takes, is that of the minimal ones in the same
    # order, here (size, mask)
    def check(sets):
        rows = sorted(set(sets), key=lambda s: (s.bit_count(), s))
        assert _packing(rows) == _packing(minimal_family(sets))

    for f in (K2, P3, DIAMOND):
        for n in range(1, 8):
            for g in census[n]:
                check(copy_closures(g, f))
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(1, 40)
        base = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 30))]
        check(base + [s | rng.getrandbits(n) for s in base])


# --- branch and bound against the plain reference search -------------------

def _check_against_reference(sets, n, lower=0):
    # the extra bounds only cut subtrees that cannot beat the incumbent, so
    # the incumbents, and the witness, come in the same order
    size, witness, nodes = _solve_hitting(sets, n, lower)
    ref_size, ref_witness, ref_nodes = reference_hitting(sets, n, lower,
                                                         settle_root=True)
    assert (size, witness) == (ref_size, ref_witness)
    assert nodes <= ref_nodes
    # the value, also where the root settles, against a search with no root step
    assert size == reference_hitting(sets, n, lower)[0]
    return size


def test_search_matches_the_reference_on_random_families():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randrange(1, 16)
        # _solve_hitting takes distinct masks in increasing order
        sets = sorted({mask_of(rng.sample(range(n), rng.randint(1, min(n, 5))))
                       for _ in range(rng.randrange(1, 30))})
        size = _check_against_reference(sets, n)
        # a proven lower bound ends the search at the first set of its size
        _check_against_reference(sets, n, size)
        _check_against_reference(sets, n, max(size - 1, 0))
    # over 60 closures on 65..130 vertices: uncovered and reach span several
    # int digits; dense enough that the plain reference search stays quick
    for _ in range(8):
        n = rng.randrange(65, 131)
        sets = sorted({mask_of(rng.sample(range(n), int(n * rng.uniform(0.35, 0.95))))
                       for _ in range(rng.randrange(70, 130))})
        size = _check_against_reference(sets, n)
        _check_against_reference(sets, n, max(size - 1, 0))


def _twin_family(rng):
    # random sets over k classes, each class spread over 1..3 twin vertices,
    # with some vertices added to single sets so that columns nest strictly
    k = rng.randrange(1, 9)
    spread = [rng.randint(1, 3) for _ in range(k)]
    start = [sum(spread[:c]) for c in range(k)]
    n = sum(spread) + rng.randrange(3)
    sets = []
    for _ in range(rng.randrange(1, 25)):
        classes = rng.sample(range(k), rng.randint(1, min(k, 4)))
        s = mask_of(start[c] + j for c in classes for j in range(spread[c]))
        if rng.random() < 0.3:
            s |= 1 << rng.randrange(n)
        sets.append(s)
    return sets, n


def test_dominance_keeps_the_value_of_the_plain_search():
    rng = random.Random(67)
    searched = 0
    for t in range(600):
        if t % 2:
            sets, n = _twin_family(rng)
        else:
            n = rng.randrange(1, 16)
            sets = [mask_of(rng.sample(range(n), rng.randint(1, min(n, 5))))
                    for _ in range(rng.randrange(1, 30))]
        value = reference_hitting(sets, n)[0]  # no root step, no dominance
        rows = sorted(set(sets), key=lambda s: (s.bit_count(), s))
        live = _undominated(rows, _transpose(rows, n))
        greedy = list_greedy(rows, n).bit_count()
        for lower in (0, max(value - 1, 0), value):
            size, witness, nodes = _solve_hitting(sorted(set(sets)), n, lower,
                                                  dominate=True)
            assert size == value
            assert witness.bit_count() == size and all(s & witness for s in sets)
            if size < greedy:  # found by the search, which takes live vertices
                assert not witness & ~live
            searched += nodes > 1
        # every vertex of some set that is dropped has a kept dominator
        for u in range(n):
            holding = [s for s in rows if s >> u & 1]
            if holding and not live >> u & 1:
                assert any(live >> v & 1 and all(s >> v & 1 for s in holding)
                           for v in range(n) if v != u)
            if not holding:
                assert not live >> u & 1
    assert searched > 100


@pytest.mark.parametrize("family", [K1, K2, P3], ids=lambda f: f.label())
def test_finite_families_search_without_dominance(family):
    # iota_exact passes the finite families' closures to the plain search:
    # witness and node count follow the reference, which drops no vertex
    rng = random.Random(73)
    searched = 0
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(16, 24), 0.15)
        res = iota_exact(g, family)
        ref_size, ref_witness, ref_nodes = reference_hitting(
            copy_closures(g, family), g.n, settle_root=True)
        assert (res.value, res.witness) == (ref_size, ref_witness)
        assert res.nodes_explored <= ref_nodes
        searched += res.nodes_explored > 1
    assert searched >= 5


def test_diamond_search_drops_no_dominated_vertex():
    # dropping dominated vertices here would search 400 nodes, not 401
    g = random_connected_graph(random.Random(4), 80, 0.1)
    res = iota_exact(g, DIAMOND)
    size, _, nodes = _solve_hitting(copy_closures(g, DIAMOND), g.n, 0)
    assert (res.value, res.nodes_explored) == (size, nodes) == (4, 401)


def test_search_stops_at_the_root_bound():
    # the greedy takes 3 and the root bound is 2: the second node places a
    # last vertex and meets the bound; a search that stopped only at the
    # lower bound 0 would go on to 22 nodes
    g = random_connected_graph(random.Random(5), 40, 0.2)
    res = iota_exact(g, DIAMOND)
    assert (res.value, res.nodes_explored) == (2, 2)
    assert is_isolating(g, DIAMOND, res.witness)
    ref = reference_hitting(copy_closures(g, DIAMOND), g.n, settle_root=True)
    assert ref == (2, res.witness, 3)


def test_search_matches_the_reference_on_sparse_diamond_graphs():
    # the solve_sparse shape: 80 vertices, about 360 edges, a few hundred
    # closures, and a search whose nodes mostly place one last vertex
    rng = random.Random(83)
    nodes = 0
    for _ in range(16):
        g = random_connected_graph(rng, 80, 0.09)
        res = iota_exact(g, DIAMOND)
        ref = reference_hitting(copy_closures(g, DIAMOND), g.n,
                                settle_root=True)
        assert (res.value, res.witness) == ref[:2]
        nodes += res.nodes_explored
    assert nodes == 592


def test_search_matches_the_reference_on_census_closures(census):
    for f in (DIAMOND, P3, K2, K1):
        for n in range(1, 8):
            for g in census[n]:
                _check_against_reference(copy_closures(g, f), g.n)


def test_witness_does_not_depend_on_closure_order(census):
    # only the packing bounds read the order of the closures, and they prune
    # only subtrees that cannot beat the incumbent: shuffled closures give
    # the size and witness of the mask-sorted ones
    rng = random.Random(97)
    graphs = [g for n in range(1, 8) for g in census[n]]
    graphs += [random_connected_graph(rng, rng.randrange(8, 24)) for _ in range(60)]
    for spec in ("k1", "k2", "p3", "diamond", "k:3", "star:2"):
        f = parse_family(spec)
        for g in graphs:
            closures = sorted(copy_closures(g, f))
            expected = _solve_hitting(closures, g.n, 0)[:2]
            for _ in range(3):
                rng.shuffle(closures)
                assert _solve_hitting(closures, g.n, 0)[:2] == expected, \
                    (spec, encode_g6(g))


def test_dense_n44_solve_is_settled_at_the_root():
    # the greedy over all 1,817 distinct closures meets the root bound, so
    # no search runs
    g = Graph.from_edges(44, random.Random(1).sample(list(combinations(range(44), 2)), 300))
    closures = copy_closures(g, DIAMOND)
    res = iota_exact(g, DIAMOND)
    assert (res.value, res.nodes_explored) == (2, 1)
    assert is_isolating(g, DIAMOND, res.witness)
    assert reference_hitting(closures, g.n, settle_root=True) == (2, res.witness, 1)
    assert reference_hitting(closures, g.n)[0] == 2


def test_small_family_is_settled_at_the_root():
    # the packing {2, 5}, {0, 1, 9}, {3, 4, 6, 7, 8} proves 3, so the greedy
    # over all six closures, {1, 2, 3}, is the answer; the greedy over the
    # five minimal ones ({1, 2, 5} contains {2, 5}) would give {0, 2, 3}
    sets = [472, 515, 38, 36, 153, 654]
    assert _solve_hitting(sorted(set(sets)), 10, 0) == (3, 14, 1)
    assert reference_hitting(sets, 10, settle_root=True) == (3, 14, 1)
    assert reference_hitting(sets, 10)[0] == 3


def test_root_packing_runs_to_the_last_closure_that_fits():
    # by size: {0,3} {1,3} {2,3} {1,4} {2,5} {4,5} {0,2,3,5} {0,2,4,5}; the
    # packing takes {0,3} and {1,4}, then {2,5} exactly fills the two
    # vertices left, so it proves 3; a packing that stops once the vertices
    # left are no more than the size of the closure it just took proves
    # only 2, and the search takes 5 nodes
    sets = [9, 10, 12, 18, 36, 45, 48, 53]
    assert _solve_hitting(sets, 6, 0) == (3, 28, 3)
    assert reference_hitting(sets, 6)[0] == 3


def test_every_search_gets_distinct_nonempty_masks(census, monkeypatch):
    # _solve_hitting leaves the dedupe to its callers: every family, and
    # every any-cycle round after a cycle closure is inserted, must come in
    # as distinct nonempty masks, in any order
    import isolation.solver

    rounds = []
    search = isolation.solver._solve_hitting

    def checked(sets, n, lower, dominate=False):
        assert all(sets) and len(set(sets)) == len(sets)
        rounds.append(len(sets))
        return search(sets, n, lower, dominate)

    monkeypatch.setattr(isolation.solver, "_solve_hitting", checked)
    families = [parse_family(name)
                for name in ("k1", "k2", "p3", "diamond", "k:4", "anycycle")]
    for n in range(1, 7):
        for g in census[n]:
            for f in families:
                iota_exact(g, f)
    searched = len(rounds)
    rng = random.Random(89)
    for _ in range(6):
        g = random_connected_graph(rng, rng.randrange(20, 31), 0.05)
        before = len(rounds)
        res = iota_exact(g, ANY_CYCLE)
        assert is_isolating(g, ANY_CYCLE, res.witness)
        assert len(rounds) - before >= 4  # cycle closures were inserted
    # one search a connected graph and finite family, at least one for
    # any-cycle
    assert searched >= 6 * sum(len(census[n]) for n in range(1, 7))


def test_hit_count_bound_keeps_the_dense_n60_search_small():
    # 792 nodes with the packing bound alone
    res = iota_exact(random_connected_graph(random.Random(1), 60, 0.25), DIAMOND)
    assert res.value == 3
    assert res.nodes_explored <= 100


def test_hit_count_bound_keeps_a_sparse_n80_search_small():
    # 401 edges; 7,091 nodes with the packing bound alone, 401 with both
    res = iota_exact(random_connected_graph(random.Random(4), 80, 0.1), DIAMOND)
    assert res.value == 4
    assert res.nodes_explored <= 802


def test_solves_leave_no_cyclic_garbage():
    # a reference cycle left by the search would keep each solve's closure
    # incidence alive until the cycle collector runs
    graphs = (extremal_witness_15(), y_graph(), circulant_graph(20, (1, 2)))
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            for f in (DIAMOND, K2, ANY_CYCLE):
                iota_exact(g, f)
            greedy_isolating(g, DIAMOND)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_minimality_certified_against_oracle_sample(census):
    # full n<=7 equivalence for three families runs in the acceptance suite;
    # spot-check the smallest orders here
    for n in range(1, 6):
        for g in census[n]:
            assert iota_exact(g, DIAMOND).value == naive_iota(g, DIAMOND)


def test_witness_reported_in_original_labels():
    # embed Y as the high half of a disjoint union; witness must name those
    g = disjoint_union([path_graph(4), y_graph()])
    res = iota_exact(g, DIAMOND)
    assert res.value == 2
    assert all(v >= 4 for v in bits(res.witness))
    assert is_isolating(g, DIAMOND, res.witness)
