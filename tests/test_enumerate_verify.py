import dataclasses
import hashlib
import json
import random

import pytest

from isolation import (
    DIAMOND,
    K2,
    BoundSpec,
    automorphisms,
    bits,
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
    induced_subgraph,
    is_connected,
    path_graph,
    random_connected_graph,
    verify_bound,
    y_graph,
)
from isolation.patterns import K1, P3, book, clique
from oracles import (
    count_connected_classes,
    disjoint_union,
    networkx_graph,
    relabeled,
)


# --- enumeration --------------------------------------------------------------

def test_counts_match_independent_oracle(census):
    for n in range(1, 7):
        assert len(census[n]) == count_connected_classes(n)


def test_census_stream_is_pinned(census):
    # the representatives and their order, not only the class counts: a
    # change to the canonical deletion or to the orbit masks shows here
    digest = hashlib.sha256()
    for n in range(1, 9):
        for g in census[n]:
            digest.update((encode_g6(g) + "\n").encode("ascii"))
    assert digest.hexdigest() == (
        "6c9f9e63de75c197139eaf0387ad2bd53ef754a7b390232790c69b9ae49e225b")


def test_census_covers_diamond_and_k4(census):
    keys = {canonical_form(g) for g in census[4]}
    assert canonical_form(diamond_graph()) in keys
    assert canonical_form(complete_graph(4)) in keys
    assert len(keys) == 6


def test_census_has_no_duplicate_classes(census):
    for n in range(1, 8):
        keys = {canonical_form(g) for g in census[n]}
        assert len(keys) == len(census[n])


@pytest.mark.filterwarnings("ignore:The hashes produced")
def test_census_classes_are_pairwise_non_isomorphic(census):
    # independent of canonical_form, which the census uses to break ties
    nx = pytest.importorskip("networkx")
    for n in (7, 8):
        buckets = {}
        for g in census[n]:
            h = networkx_graph(g)
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
        for bucket in buckets.values():
            for i, a in enumerate(bucket):
                assert not any(nx.is_isomorphic(a, b) for b in bucket[i + 1:])


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


def _orbit_least_brute(k, gens):
    # the least mask of each orbit, by closing every mask under the generators
    least = []
    seen = set()
    for m in range(1, 1 << k):
        if m in seen:
            continue
        orbit, todo = {m}, [m]
        while todo:
            a = todo.pop()
            for sigma in gens:
                b = sum(1 << sigma[v] for v in range(k) if a >> v & 1)
                if b not in orbit:
                    orbit.add(b)
                    todo.append(b)
        seen |= orbit
        least.append(m)
    return least


def test_orbit_least_masks_bound_filters_by_size():
    # the bounded list is the unbounded one filtered to sizes 1 and >= bound,
    # in the same order: generators keep a mask's size
    from isolation.enumerate_verify import _orbit_least_masks

    rng = random.Random(24)
    groups = [(k, []) for k in range(1, 9)]
    groups.append((4, [(1, 0, 2, 3), (1, 2, 3, 0)]))  # the symmetric group
    for _ in range(40):
        k = rng.randrange(1, 9)
        groups.append((k, [tuple(rng.sample(range(k), k))
                           for _ in range(rng.randrange(1, 4))]))
    for k, gens in groups:
        full = _orbit_least_masks(k, gens)
        assert full == _orbit_least_brute(k, gens)
        for bound in range(k + 2):
            assert _orbit_least_masks(k, gens, bound) == [
                m for m in full if m.bit_count() == 1 or m.bit_count() >= bound]


def test_level_without_the_degree_bound_yields_the_same_children(monkeypatch):
    # the bound skips only sets the rivals loop rejects: every parent of
    # order <= 6 gives the same children in the same order without it
    import isolation.enumerate_verify as ev

    parents = [p for n in range(1, 7) for p in ev._census_rows(n)]
    bounded = [list(ev._level([p])) for p in parents]
    unbounded = ev._orbit_least_masks
    monkeypatch.setattr(ev, "_orbit_least_masks",
                        lambda k, gens, bound=0: unbounded(k, gens))
    assert [list(ev._level([p])) for p in parents] == bounded


def _deletions(g):
    """Mask of the vertices w that pass as the census's canonical deletion
    of ``g``: g relabeled with w last and judged as ``_level`` judges a
    child, with a tie set of its own."""
    from isolation.enumerate_verify import _is_canonical_deletion

    noncut = [v for v in range(g.n) if is_connected(
        induced_subgraph(g, g.full_mask ^ 1 << v)[0])]
    top = max(g.degree(v) for v in noncut)
    passing = 0
    for w in noncut:
        if g.degree(w) < top:
            continue
        perm = [v - (v > w) for v in range(g.n)]
        perm[w] = g.n - 1
        rivals = [perm[v] for v in noncut if v != w and g.degree(v) == top]
        if _is_canonical_deletion(list(relabeled(g, perm).adj), rivals, set()):
            passing |= 1 << w
    return passing


def test_canonical_deletion_reads_no_labels(census):
    # the vertices that pass form a union of automorphism orbits, a
    # relabeling maps them onto those of the relabeled graph, and they share
    # the first key of the deletion order: each class is then reached from
    # one parent whatever labels its representatives carry
    rng = random.Random(26)
    for n in range(1, 8):
        for g in census[n]:
            passing = _deletions(g)
            assert passing
            for sigma in automorphisms(g):
                assert sum(1 << sigma[v] for v in bits(passing)) == passing
            perm = list(range(n))
            rng.shuffle(perm)
            assert _deletions(relabeled(g, perm)) == sum(
                1 << perm[v] for v in bits(passing))
            assert len({tuple(sorted(g.degree(u) for u in bits(g.adj[w])))
                        for w in bits(passing)}) == 1


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


def test_exception_recheck_is_independent_of_the_solver(monkeypatch):
    # a solver that overstates iota by one must not confirm its own claim
    import isolation.enumerate_verify as ev

    real = ev.iota_exact

    def inflated(g, family):
        res = real(g, family)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(ev, "iota_exact", inflated)
    with pytest.raises(AssertionError, match="did not re-verify"):
        verify_bound([complete_graph(4)], BoundSpec(DIAMOND, 1, 5))


def test_exception_recheck_above_the_subset_order():
    # order 15 is past the subset re-check and goes through a second solve
    g = extremal_witness_15()
    report = verify_bound([g], BoundSpec(DIAMOND, 1, 6))
    assert [f.iota for f in report.exceptions] == [3]


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


def test_extremal_cap_limits_list_not_count(census, monkeypatch):
    import isolation.enumerate_verify as ev

    monkeypatch.setattr(ev, "_EXTREMAL_CAP", 2)
    five = [g for g in census[5] if contains_pattern(g, DIAMOND)]
    report = verify_bound(five, BoundSpec(DIAMOND, 1, 5))
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


def test_reports_are_values(census):
    # no field of a report depends on the run: two sweeps of one stream,
    # serial or on two workers, give equal reports
    first = sweep(census, DIAMOND, 1, 5, 6)
    assert first.exceptions and first.extremal
    assert sweep(census, DIAMOND, 1, 5, 6) == first
    assert sweep(census, DIAMOND, 1, 5, 6, workers=2) == first


@pytest.mark.parametrize("workers", [0, -3])
def test_verify_bound_refuses_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers"):
        verify_bound(iter([diamond_graph()]), BoundSpec(DIAMOND, 1, 5),
                     workers=workers)


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
    assert default_known_exceptions(K2, 1, 3) == (
        canonical_form(cycle_graph(5)), canonical_form(complete_graph(2)))
    assert default_known_exceptions(clique(3), 1, 4) == (
        canonical_form(complete_graph(3)),)
    assert set(default_known_exceptions(P3, 2, 7)) == {
        canonical_form(path_graph(3)), canonical_form(complete_graph(3)),
        canonical_form(cycle_graph(6))}
    assert default_known_exceptions(DIAMOND, 1, 4) == ()
    # K1 and K2 are cliques, but the K_k table starts at k = 3: their own
    # tables list the graphs their bounds exclude by hypothesis
    assert default_known_exceptions(K1, 1, 2) == (canonical_form(complete_graph(1)),)
    assert default_known_exceptions(K1, 1, 3) == ()
    assert default_known_exceptions(clique(2), 1, 3) == (
        canonical_form(cycle_graph(5)), canonical_form(complete_graph(2)))
    assert default_known_exceptions(book(1), 1, 4) == (
        canonical_form(complete_graph(3)),)
    assert default_known_exceptions(clique(4), 1, 5) == (
        canonical_form(complete_graph(4)),)


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


# --- random graph helper ----------------------------------------------------------

def test_random_connected_graph_contract():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(1, 20)
        g = random_connected_graph(rng, n)
        assert g.n == n and is_connected(g)
    assert random_connected_graph(random.Random(9), 12) == \
        random_connected_graph(random.Random(9), 12)
    for n in (0, 1025):  # the order is checked before any edge is drawn
        with pytest.raises(ValueError):
            random_connected_graph(rng, n)
