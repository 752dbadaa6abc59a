"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v``.  The order-9 exception
census (criterion 3, about 20 s), the order-9 class count with its stream
digest and distinct canonical forms (criterion 9, about 20 s), the
attachment check over the n <= 8 census (criterion 6, about 11 s) and the
domination bound at n = 9 (criterion 7, about 16 s) only run when
``ISOLATION_EXTENDED=1`` is set.
"""

import hashlib
import os
import random
import time
from itertools import combinations

import pytest

from isolation import (
    DIAMOND,
    K2,
    ANY_CYCLE,
    BoundSpec,
    budget,
    canonical_form,
    complete_graph,
    cycle_graph,
    decode_g6,
    diamond_graph,
    encode_g6,
    enumerate_connected,
    extremal_witness_15,
    gamma,
    induced_subgraph,
    iota_exact,
    is_connected,
    is_exceptional,
    is_isolating,
    isolating_set_n5,
    mask_of,
    path_graph,
    random_connected_graph,
    verify_bound,
    y_graph,
)
from isolation.patterns import P3, clique
from oracles import (
    GADGETS,
    SHARP_GADGETS,
    attach_gadget,
    gadget_closures,
    naive_iota,
    sharp_graph,
)


def report(line):
    print(line)


def exception_keys(rep):
    return {canonical_form(decode_g6(f.g6)) for f in rep.exceptions}


def test_criterion_1_exception_census(census):
    start = time.perf_counter()
    graphs = (g for n in range(1, 9) for g in census[n])
    rep = verify_bound(graphs, BoundSpec(DIAMOND, 1, 5))
    expected = {canonical_form(diamond_graph()), canonical_form(complete_graph(4))}
    assert exception_keys(rep) == expected
    assert all(f.n == 4 for f in rep.exceptions)
    assert not [f for f in rep.exceptions if 5 <= f.n <= 8]
    assert rep.checked_total == sum(len(census[n]) for n in range(1, 9))
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(f"PASS criterion 1: exceptions over n<=8 are exactly the diamond "
           f"and K4 classes, none for 5<=n<=8 ({rep.checked_total} graphs, "
           f"{elapsed:.1f}s)")


def test_criterion_2_y_certification():
    y = y_graph()
    full, adj = y.full_mask, y.adj
    assert all(row.bit_count() == 4 for row in adj)
    assert all((adj[u] & adj[v]).bit_count() <= 2
               for u, v in combinations(range(9), 2))

    # connectivity 4: no set of at most 3 vertices disconnects Y, some 4 do
    def disconnects(cut):
        return not is_connected(induced_subgraph(y, full & ~mask_of(cut))[0])

    assert not any(disconnects(cut) for k in range(4)
                   for cut in combinations(range(9), k))
    assert any(disconnects(cut) for cut in combinations(range(9), 4))
    # for each u, some v leaves Y - u - N[v] a path on three vertices
    p3 = canonical_form(path_graph(3))
    for u in range(9):
        assert any(canonical_form(induced_subgraph(
            y, full & ~(1 << u | 1 << v | adj[v]))[0]) == p3
            for v in range(9) if v != u), u
    value = iota_exact(y, DIAMOND).value
    assert value == 2 > budget(9) == 1
    report("PASS criterion 2: Y is 4-regular and 4-connected, no two vertices "
           "share 3 neighbours, each u has a v with Y - u - N[v] = P3, and its "
           "isolation number 2 violates floor(9/5) = 1")


def extended(seconds):
    return pytest.mark.skipif(
        not os.environ.get("ISOLATION_EXTENDED"),
        reason=f"takes about {seconds} s on a 2-core VM; "
               f"set ISOLATION_EXTENDED=1 to run")


@extended(30)
def test_criterion_3_order_nine_sweep_extended():
    start = time.perf_counter()
    rep = verify_bound(enumerate_connected(9), BoundSpec(DIAMOND, 1, 5))
    assert exception_keys(rep) == {canonical_form(y_graph())}
    assert rep.checked_total == 261080
    report(f"PASS criterion 3 (extended): the only exceptional class at n=9 "
           f"is Y ({rep.checked_total} graphs, "
           f"{time.perf_counter() - start:.0f}s)")


def test_criterion_4_extremal_witness():
    start = time.perf_counter()
    h = extremal_witness_15()
    assert is_connected(h)
    assert h.n == 15
    res = iota_exact(h, DIAMOND)
    assert res.value == 3
    assert is_isolating(h, DIAMOND, res.witness)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(f"PASS criterion 4: the 15-vertex witness is connected with "
           f"isolation number 3 = 15/5 ({elapsed:.2f}s)")


def check_sharp(g, gadgets):
    """The n/5 bound is met with equality: the k gadget closures are
    disjoint (so no k - 1 vertices isolate), and the construction certifies
    a set of k = n/5 vertices."""
    k = len(gadgets)
    closures = gadget_closures(g, gadgets)
    assert all(closures)
    assert sum(map(len, closures)) == len(set().union(*closures))
    s, _ = isolating_set_n5(g)
    assert s.bit_count() == k == budget(g.n)
    assert is_isolating(g, DIAMOND, s)


@pytest.mark.parametrize("shapes", [(shape,) for shape in SHARP_GADGETS]
                         + [tuple(SHARP_GADGETS)],
                         ids=lambda shapes: "mixed" if len(shapes) > 1 else shapes[0])
def test_criterion_4_sharp_family(shapes):
    # h15 is the k = 3 member of a family with isolation number n/5 at every
    # n = 5k: one gadget per vertex of a random connected graph H
    start = time.perf_counter()
    rng = random.Random(f"sharp {shapes}")
    for k in range(1, 41):
        g, gadgets = sharp_graph(rng, k, shapes)
        check_sharp(g, gadgets)
        if g.n <= 60:
            assert iota_exact(g, DIAMOND).value == k
    report(f"PASS criterion 4: {', '.join(shapes)} gadgets on H of order "
           f"1..40 give isolation number n/5, met by the construction "
           f"({time.perf_counter() - start:.2f}s)")


def test_criterion_4_sharp_family_at_order_1000():
    start = time.perf_counter()
    check_sharp(*sharp_graph(random.Random(200), 200))
    report(f"PASS criterion 4: a 1000-vertex sharp graph takes 200 = n/5 "
           f"vertices ({time.perf_counter() - start:.2f}s)")


def test_criterion_5_constructive_soundness(census):
    start = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for g in census[n]:
            if is_exceptional(g):
                continue
            s, _ = isolating_set_n5(g)
            assert is_isolating(g, DIAMOND, s)
            assert s.bit_count() <= budget(g.n)
            checked += 1
    rng = random.Random(20240815)
    sampled = 0
    while sampled < 1000:
        g = random_connected_graph(rng, rng.randrange(10, 41))
        if is_exceptional(g):
            continue
        s, _ = isolating_set_n5(g)
        assert is_isolating(g, DIAMOND, s)
        assert s.bit_count() <= budget(g.n)
        sampled += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(f"PASS criterion 5: certified sets within floor(n/5) on {checked} "
           f"exhaustive graphs (n<=8) and {sampled} random graphs "
           f"(10<=n<=40), zero failures ({elapsed:.1f}s)")


@pytest.mark.parametrize("top", [7, pytest.param(8, marks=extended(11))])
def test_criterion_6_attachment_invariance_on_the_census(census, top):
    # every (graph, vertex, gadget) triple of the census up to order top
    triples = 0
    for n in range(1, top + 1):
        for g in census[n]:
            value = iota_exact(g, DIAMOND).value
            for v in range(n):
                for kind in GADGETS:
                    assert iota_exact(attach_gadget(g, v, kind), DIAMOND).value \
                        == value, (encode_g6(g), v, kind)
                    triples += 1
    assert triples == {7: 20343, 8: 287151}[top]
    report(f"PASS criterion 6: all {triples} attachment triples over n<={top} "
           f"keep the diamond isolation number")


def test_criterion_6_attachment_invariance():
    # beyond the census: 500 seeded random triples of order 9 to 12
    rng = random.Random(1)
    kinds = list(GADGETS)
    for i in range(500):
        g = random_connected_graph(rng, rng.randrange(9, 13))
        v = rng.randrange(g.n)
        kind = kinds[i % len(kinds)]
        assert iota_exact(attach_gadget(g, v, kind), DIAMOND).value \
            == iota_exact(g, DIAMOND).value, (encode_g6(g), v, kind)
    report("PASS criterion 6: 500 random attachment triples (9<=n<=12) keep "
           "the diamond isolation number for all three kinds")


def test_criterion_7_historical_bounds(census):
    k2_rep = verify_bound((g for n in range(3, 9) for g in census[n]),
                          BoundSpec(K2, 1, 3, min_n=3))
    assert exception_keys(k2_rep) == {canonical_form(cycle_graph(5))}

    k3_rep = verify_bound((g for n in range(1, 8) for g in census[n]),
                          BoundSpec(clique(3), 1, 4))
    assert exception_keys(k3_rep) == {canonical_form(complete_graph(3))}

    cyc_rep = verify_bound((g for n in range(1, 8) for g in census[n]),
                           BoundSpec(ANY_CYCLE, 1, 4))
    assert exception_keys(cyc_rep) == {canonical_form(complete_graph(3))}

    p3_rep = verify_bound((g for n in range(1, 8) for g in census[n]),
                          BoundSpec(P3, 2, 7))
    assert exception_keys(p3_rep) == {canonical_form(path_graph(3)),
                                      canonical_form(complete_graph(3)),
                                      canonical_form(cycle_graph(6))}

    extremal = tight_dominations(g for n in range(2, 9) for g in census[n])
    assert extremal == {2: 1, 3: 0, 4: 2, 5: 0, 6: 2, 7: 0, 8: 6}
    report("PASS criterion 7: historical sweeps match exactly "
           "(K2/1-3 -> {C5}; K3/1-4 -> {K3}; cycles/1-4 -> {K3}; "
           "P3/2-7 -> {P3,C3,C6}; domination <= n/2 for n<=8, with "
           "equality exactly on C4 and the coronas: 1, 2, 2, 6 at n = 2..8)")


@extended(16)
def test_criterion_7_order_nine_domination_extended():
    # n is odd, so no graph of order 9 can reach n/2
    assert tight_dominations(enumerate_connected(9)) == {9: 0}
    report("PASS criterion 7 (extended): domination <= 4 on all 261080 "
           "connected graphs of order 9")


def tight_dominations(graphs):
    """Check gamma <= n/2 on each graph, with equality exactly on C4 and the
    coronas H o K1 (Payan & Xuong 1982; Fink, Jacobson, Kinch & Roberts
    1985); return the number of graphs with equality, by order."""
    c4 = canonical_form(cycle_graph(4))
    extremal = {}
    for g in graphs:
        value = gamma(g)
        assert value <= g.n // 2
        tight = 2 * value == g.n
        assert tight == (is_corona(g) or g.n == 4 and canonical_form(g) == c4), \
            encode_g6(g)
        extremal[g.n] = extremal.get(g.n, 0) + tight
    return extremal


def is_corona(g):
    """Whether ``g`` is a corona H o K1, one leaf hung on each vertex of H
    (K2 = K1 o K1 included): the edges at its leaves are disjoint and cover
    every vertex.  Reads leaves and their supports only, with no solver."""
    pendant = {1 << v | row for v, row in enumerate(g.adj) if row.bit_count() == 1}
    covered = 0
    for edge in pendant:
        if covered & edge:
            return False
        covered |= edge
    return covered == g.full_mask


def test_criterion_8_oracle_equivalence(census):
    start = time.perf_counter()
    checked = 0
    for family in (DIAMOND, K2, P3, ANY_CYCLE):
        for n in range(1, 8):
            for g in census[n]:
                assert iota_exact(g, family).value == naive_iota(g, family)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(f"PASS criterion 8: solver agrees with subset-enumeration oracle "
           f"on {checked} (graph, family) pairs over n<=7 ({elapsed:.1f}s)")


def test_criterion_9_census_integrity(census):
    counts = tuple(len(census[n]) for n in range(1, 9))
    assert counts == (1, 1, 2, 6, 21, 112, 853, 11117)
    report(f"PASS criterion 9: connected census counts for n=1..8 are {counts}")


@extended(30)
def test_criterion_9_order_nine_census_extended():
    start = time.perf_counter()
    count = 0
    digest = hashlib.sha256()  # of the graph6 lines in stream order
    keys = set()
    for g in enumerate_connected(9):
        digest.update((encode_g6(g) + "\n").encode("ascii"))
        keys.add(canonical_form(g))
        count += 1
    assert count == 261080
    assert len(keys) == count  # pairwise non-isomorphic
    assert digest.hexdigest() == (
        "0355be212d1fabef46c52abb1768db0d5a86dd9a25aa99877127ad15e6566dac")
    report(f"PASS criterion 9 (extended): {count} pairwise non-isomorphic "
           f"connected classes at n=9 "
           f"({time.perf_counter() - start:.0f}s)")
