"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v``.  The order-9 exception
census (criterion 3, about 30 s) and the order-9 class count with its stream
digest and distinct canonical forms (criterion 9, about 30 s) only run when
``ISOLATION_EXTENDED=1`` is set.
"""

import hashlib
import os
import random
import time

import pytest

from isolation import (
    DIAMOND,
    K2,
    ANY_CYCLE,
    BoundSpec,
    attachment_invariance_suite,
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
    iota_exact,
    is_connected,
    is_exceptional,
    is_isolating,
    isolating_set_n5,
    path_graph,
    random_connected_graph,
    verify_bound,
    verify_y_properties,
    y_graph,
)
from isolation.patterns import P3, clique
from oracles import naive_iota


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
    props = verify_y_properties(y)
    assert props.connectivity_is_4
    assert props.four_regular
    assert props.common_neighbors_at_most_2
    assert props.residual_path_for_every_vertex
    value = iota_exact(y, DIAMOND).value
    assert value == 2
    assert value > budget(9) == 1
    report("PASS criterion 2: Y passes all four structural properties, has "
           "isolation number 2, and violates floor(9/5) = 1")


def extended(seconds):
    return pytest.mark.skipif(
        not os.environ.get("ISOLATION_EXTENDED"),
        reason=f"order-9 run takes about {seconds} s on a 2-core VM; "
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


def test_criterion_6_attachment_invariance():
    rep = attachment_invariance_suite(samples=500, max_n=12, seed=1)
    assert rep.samples == 500
    assert set(rep.by_kind) == {"pendant", "triangle", "k3_bridge"}
    assert all(count > 0 for count in rep.by_kind.values())
    assert rep.passed, rep.violations
    report("PASS criterion 6: 500 random attachment triples (n<=12) preserve "
           "the exact isolation number for all three kinds")


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

    # domination: gamma <= n/2, with equality exactly on C4 and the coronas
    # H o K1 (Payan & Xuong 1982; Fink, Jacobson, Kinch & Roberts 1985)
    c4 = canonical_form(cycle_graph(4))
    extremal = {}
    for n in range(2, 9):
        for g in census[n]:
            value = gamma(g)
            assert value <= n // 2
            tight = 2 * value == n
            assert tight == (is_corona(g) or canonical_form(g) == c4), encode_g6(g)
            extremal[n] = extremal.get(n, 0) + tight
    assert extremal == {2: 1, 3: 0, 4: 2, 5: 0, 6: 2, 7: 0, 8: 6}
    report("PASS criterion 7: historical sweeps match exactly "
           "(K2/1-3 -> {C5}; K3/1-4 -> {K3}; cycles/1-4 -> {K3}; "
           "P3/2-7 -> {P3,C3,C6}; domination <= n/2 for n<=8, with "
           "equality exactly on C4 and the coronas: 1, 2, 2, 6 at n = 2..8)")


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
