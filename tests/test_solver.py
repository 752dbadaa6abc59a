import random

import pytest

from isolation import (
    ANY_CYCLE,
    DIAMOND,
    K1,
    Graph,
    bits,
    circulant_graph,
    complete_graph,
    copy_closures,
    cycle_graph,
    delete_closed_neighborhood,
    diamond_graph,
    extremal_witness_15,
    gamma,
    greedy_isolating,
    iota_exact,
    is_isolating,
    path_graph,
    random_connected_graph,
    y_graph,
)
from oracles import disjoint_union, naive_iota


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
    assert res.elapsed >= 0


def test_iota_deterministic_witness():
    a = iota_exact(y_graph(), DIAMOND)
    b = iota_exact(y_graph(), DIAMOND)
    assert (a.value, a.witness) == (b.value, b.witness)


def test_iota_empty_and_tiny_graphs():
    assert iota_exact(Graph(0, ()), DIAMOND).value == 0
    assert iota_exact(complete_graph(1), K1).value == 1


# --- greedy upper bound -----------------------------------------------------

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
    residual, _ = delete_closed_neighborhood(two_triangles, res.witness)
    assert residual.edge_count() == residual.n - len(components(residual))
    # one triangle closure per component, each hit by the first solve
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


# --- structural invariants --------------------------------------------------

def test_deletion_inequality_exhaustive(census):
    # removing one closed neighborhood costs at most one isolator
    for n in range(1, 9):
        for g in census[n]:
            whole = iota_exact(g, DIAMOND).value
            for v in range(n):
                residual, _ = delete_closed_neighborhood(g, 1 << v)
                assert whole <= 1 + iota_exact(residual, DIAMOND).value


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
