import json
import random

import pytest

from isolation import (
    DIAMOND,
    K2,
    BoundSpec,
    attachment_invariance_suite,
    canonical_form,
    complete_graph,
    contains_pattern,
    cycle_graph,
    decode_g6,
    default_known_exceptions,
    diamond_graph,
    encode_g6,
    enumerate_connected,
    extremal_witness_15,
    is_connected,
    path_graph,
    random_connected_graph,
    verify_bound,
    y_graph,
)
from isolation.patterns import P3, clique
from oracles import count_connected_classes, disjoint_union


# --- enumeration --------------------------------------------------------------

def test_counts_match_independent_oracle(census):
    for n in range(1, 7):
        assert len(census[n]) == count_connected_classes(n)


def test_census_covers_diamond_and_k4(census):
    keys = {canonical_form(g) for g in census[4]}
    assert canonical_form(diamond_graph()) in keys
    assert canonical_form(complete_graph(4)) in keys
    assert len(keys) == 6


def test_census_has_no_duplicate_classes(census):
    for n in range(1, 8):
        keys = {canonical_form(g) for g in census[n]}
        assert len(keys) == len(census[n])


def test_census_graphs_are_connected(census):
    for n in range(1, 9):
        assert all(is_connected(g) and g.n == n for g in census[n])


def test_census_graph6_roundtrip(census):
    for n in range(1, 9):
        for g in census[n]:
            assert decode_g6(encode_g6(g)) == g


def test_enumeration_is_deterministic():
    first = [encode_g6(g) for g in enumerate_connected(5)]
    second = [encode_g6(g) for g in enumerate_connected(5)]
    assert first == second


def test_enumeration_range_validation():
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_connected(10))


# --- bound sweeps ---------------------------------------------------------------

def sweep(census, family, p, q, nmax, min_n=1, **kw):
    graphs = (g for n in range(min_n, nmax + 1) for g in census[n])
    return verify_bound(graphs, BoundSpec(family, p, q, min_n=min_n), **kw)


def exception_keys(report):
    return {canonical_form(decode_g6(f.g6)) for f in report.exceptions}


def test_diamond_sweep_small_orders(census):
    report = sweep(census, DIAMOND, 1, 5, 4)
    assert exception_keys(report) == {canonical_form(diamond_graph()),
                                      canonical_form(complete_graph(4))}
    assert all(f.n == 4 and f.iota == 1 and f.bound == 0
               for f in report.exceptions)


def test_k2_sweep_flags_c5(census):
    report = sweep(census, K2, 1, 3, 5, min_n=3)
    assert exception_keys(report) == {canonical_form(cycle_graph(5))}


def test_min_order_filter_counts():
    graphs = [path_graph(2), path_graph(3), path_graph(4)]
    report = verify_bound(graphs, BoundSpec(K2, 1, 3, min_n=3))
    assert report.skipped_below_min == 1
    assert report.checked_total == 2


def test_disconnected_inputs_skipped():
    graphs = [disjoint_union([path_graph(3), path_graph(3)]), cycle_graph(4)]
    report = verify_bound(graphs, BoundSpec(DIAMOND, 1, 5))
    assert report.skipped_disconnected == 1
    assert report.checked_total == 1


def test_records_streamed_in_order_with_schema():
    rows = []
    graphs = [complete_graph(4), cycle_graph(5), diamond_graph()]
    verify_bound(graphs, BoundSpec(DIAMOND, 1, 5), record_sink=rows.append)
    assert [r["g6"] for r in rows] == [encode_g6(g) for g in graphs]
    for r in rows:
        assert set(r) == {"g6", "n", "iota", "bound", "raw_bound", "status"}
        assert r["status"] in ("ok", "extremal", "exception")
        json.dumps(r)
    assert [r["status"] for r in rows] == ["exception", "ok", "exception"]


def test_extremal_status_requires_exact_ratio(census):
    # iota == floor(pn/q) with q*iota != p*n (for instance iota = 0 at n = 3)
    # must stay "ok", not "extremal"
    rows = []
    verify_bound([path_graph(3), cycle_graph(5)], BoundSpec(DIAMOND, 1, 5),
                 record_sink=rows.append)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    rows.clear()
    five = [g for g in census[5] if contains_pattern(g, DIAMOND)]
    report = verify_bound(five, BoundSpec(DIAMOND, 1, 5), record_sink=rows.append)
    assert all(r["status"] == "extremal" for r in rows)
    assert report.extremal_total == len(five)


def test_extremal_cap_limits_list_not_count(census):
    five = [g for g in census[5] if contains_pattern(g, DIAMOND)]
    report = verify_bound(five, BoundSpec(DIAMOND, 1, 5), extremal_cap=2)
    assert len(report.extremal) == 2
    assert report.extremal_total == len(five)


def test_parallel_sweep_matches_sequential(census):
    graphs = [g for n in range(1, 7) for g in census[n]]
    seq_rows, par_rows = [], []
    verify_bound(iter(graphs), BoundSpec(DIAMOND, 1, 5),
                 record_sink=seq_rows.append)
    verify_bound(iter(graphs), BoundSpec(DIAMOND, 1, 5), workers=2,
                 record_sink=par_rows.append)
    assert seq_rows == par_rows


def test_summary_dict_shape(census):
    report = sweep(census, DIAMOND, 1, 5, 4)
    d = report.summary_dict()
    assert d["summary"] is True
    assert d["checked"] == report.checked_total
    assert d["exceptions"] == [f.g6 for f in report.exceptions]
    json.dumps(d)


def test_bound_spec_validation():
    with pytest.raises(ValueError):
        BoundSpec(DIAMOND, 1, 0)
    with pytest.raises(ValueError):
        BoundSpec(DIAMOND, 0, 5)


def test_default_known_exceptions_tables():
    assert set(default_known_exceptions(DIAMOND, 1, 5)) == {
        canonical_form(diamond_graph()), canonical_form(complete_graph(4)),
        canonical_form(y_graph())}
    assert default_known_exceptions(K2, 1, 3) == (canonical_form(cycle_graph(5)),)
    assert default_known_exceptions(clique(3), 1, 4) == (
        canonical_form(complete_graph(3)),)
    assert set(default_known_exceptions(P3, 2, 7)) == {
        canonical_form(path_graph(3)), canonical_form(complete_graph(3)),
        canonical_form(cycle_graph(6))}
    assert default_known_exceptions(DIAMOND, 1, 4) == ()


# --- extremal search --------------------------------------------------------------

def test_find_extremal_order_five_is_diamond_containing(census):
    expected = {encode_g6(g) for g in census[5] if contains_pattern(g, DIAMOND)}
    report = verify_bound(census[5], BoundSpec(DIAMOND, 1, 5))
    got = {f.g6 for f in report.extremal}
    assert got == expected and expected


def test_find_extremal_accepts_external_population():
    spec = BoundSpec(DIAMOND, 1, 5)
    h15 = extremal_witness_15()
    assert [f.g6 for f in verify_bound([h15], spec).extremal] == [encode_g6(h15)]
    assert verify_bound([cycle_graph(5)], spec).extremal == []


def test_find_extremal_nondivisible_order_is_empty(census):
    assert verify_bound(census[4], BoundSpec(DIAMOND, 1, 5)).extremal == []


# --- attachment invariance -----------------------------------------------------------

def test_attachment_suite_passes_quickly():
    report = attachment_invariance_suite(samples=60, max_n=10, seed=3)
    assert report.passed
    assert report.samples == 60
    assert all(count == 20 for count in report.by_kind.values())


def test_attachment_suite_is_deterministic():
    a = attachment_invariance_suite(samples=30, max_n=9, seed=7)
    b = attachment_invariance_suite(samples=30, max_n=9, seed=7)
    assert a.by_kind == b.by_kind and a.violations == b.violations


# --- random graph helper ----------------------------------------------------------

def test_random_connected_graph_contract():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(1, 20)
        g = random_connected_graph(rng, n)
        assert g.n == n and is_connected(g)
    assert random_connected_graph(random.Random(9), 12) == \
        random_connected_graph(random.Random(9), 12)
