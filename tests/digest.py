"""Pinned digests of the exact solves over the connected census, and of the
n/5 construction.

Each class up to the given order is solved in its canonical labeling, order
by order in key order, so the census's choice of representatives does not
enter a digest; one graph with isolated vertices follows them.  Two SHA-256
digests are kept per order, family by family: one of the outputs (value,
witness and ``copies_found``), which a change to the copy or closure layer
must leave alone, and one of ``nodes_explored``, which moves whenever the
searched tree does.  A third digest holds the sets and traces of
``isolating_set_n5`` over the fallback corpus and 2,000 seeded random
connected graphs of order 10 to 60, so a change to the candidate order, the
exceptional-graph test or the canonical forms it reads shows there.  A
fourth digest holds the canonical forms themselves: of every class of the
n <= 7 census under a seeded relabeling, of 300 seeded random connected
graphs of order 10 to 100, and of circulants, complete bipartite graphs
K_{p,p+1} and books, which reach the four-byte graph6 order at n >= 63 and
the search's automorphism pruning.

Stdlib only, so it runs on an interpreter without pytest:

    PYTHONPATH=src python tests/digest.py

recomputes the n <= 7 digests, the construction digest and the canonical-form
digest, prints them, and exits 1 on a mismatch.
The test suite checks the same pins (and n <= 8 in its extended job).
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from isolation import (
    book_graph,
    canonical_form,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    decode_g6,
    enumerate_connected,
    iota_exact,
    isolating_set_n5,
    parse_family,
    path_graph,
    random_connected_graph,
)
from oracles import disjoint_union, relabeled

PINNED_FAMILIES = ("k1", "k2", "p3", "k:3", "diamond", "k:4", "star:2", "book:3",
                   "anycycle", "custom:Ch")  # Ch is the path P4
PINNED_OUTPUTS = {
    7: "de8b70c0b2d0767883f6626656cb8c308caf51d667ae2eceb9ace262f3884ca7",
    8: "235281cc3c685a3f79815c8273ac4f3ba04b20be8ccebb2ec803af773c98b4b6",
}
PINNED_NODES = {
    7: "8184f0bd55cc55f832113d8b25739def13bfac88df252d44db6cf5d9ec1ad228",
    8: "30fda4da77bbceb5343bbff5b1028588474122f849293962f7b6793bbd5128ce",
}

PINNED_CONSTRUCTION = "89cf7d3576584c56a5e4780697cfe99519b0d172a88dc2a513d6bd84daf7472e"
PINNED_CANONICAL = "887ac7e6f252930d38d28f8b2aec2e5ce55d642a74f478b8aafd290ffc25e94e"
FALLBACK_CUT = Path(__file__).with_name("data") / "fallback_cut.g6"


def pinned_graphs(levels):
    """The classes of ``levels`` (the census of orders 1, 2, ... in turn),
    each in its canonical labeling and in key order within its order, then
    one graph with isolated vertices."""
    isolated = disjoint_union([path_graph(1), complete_graph(4), path_graph(1),
                               book_graph(3), cycle_graph(5), path_graph(1)])
    keys = [key for level in levels
            for key in sorted(canonical_form(g) for g in level)]
    return [decode_g6(key) for key in keys] + [isolated]


def solve_digests(graphs):
    """(outputs digest, nodes digest) of every pinned family's solves of
    ``graphs``."""
    outputs, nodes = hashlib.sha256(), hashlib.sha256()
    for spec in PINNED_FAMILIES:
        f = parse_family(spec)
        for g in graphs:
            res = iota_exact(g, f)
            outputs.update(
                f"{spec} {res.value} {res.witness} {res.copies_found}\n".encode())
            nodes.update(f"{spec} {res.nodes_explored}\n".encode())
    return outputs.hexdigest(), nodes.hexdigest()


def construction_graphs():
    """The graphs of the fallback corpus, then 2,000 random connected graphs
    of order 10 to 60 with extra-edge probability 0.03 to 0.25, seed 0."""
    graphs = [decode_g6(line) for line in FALLBACK_CUT.read_text().split()]
    rng = random.Random(0)
    for _ in range(2000):
        n = rng.randint(10, 60)
        graphs.append(random_connected_graph(rng, n, rng.uniform(0.03, 0.25)))
    return graphs


def construction_digest(graphs):
    """Digest of the set and the trace ``isolating_set_n5`` gives each graph."""
    h = hashlib.sha256()
    for g in graphs:
        s, trace = isolating_set_n5(g)
        h.update(json.dumps([s, trace.to_dict()]).encode() + b"\n")
    return h.hexdigest()


def canonical_graphs(levels):
    """Every class of ``levels`` (the census of orders 1, 2, ... in turn)
    under a relabeling, 300 random connected graphs of order 10 to 100 with
    extra-edge probability 0.03 to 0.3, then circulants, complete bipartite
    graphs K_{p,p+1} and books of orders 13 to 82; seed 0."""
    rng = random.Random(0)
    graphs = [relabeled(g, rng=rng) for level in levels for g in level]
    for _ in range(300):
        n = rng.randint(10, 100)
        graphs.append(random_connected_graph(rng, n, rng.uniform(0.03, 0.3)))
    graphs += [circulant_graph(n, offsets) for n in (13, 62, 63, 64, 70)
               for offsets in ((1, 2), (1, 5), (1, 3, 4))]
    graphs += [complete_bipartite_graph(p, p + 1) for p in (6, 31, 40)]
    graphs += [book_graph(p) for p in (11, 60, 61, 80)]
    return graphs


def canonical_digest(graphs):
    """Digest of the canonical form of each graph."""
    h = hashlib.sha256()
    for g in graphs:
        h.update((canonical_form(g) + "\n").encode())
    return h.hexdigest()


def main():
    top = 7
    got = solve_digests(pinned_graphs(enumerate_connected(n)
                                      for n in range(1, top + 1)))
    got += (construction_digest(construction_graphs()),
            canonical_digest(canonical_graphs(enumerate_connected(n)
                                              for n in range(1, top + 1))))
    want = (PINNED_OUTPUTS[top], PINNED_NODES[top], PINNED_CONSTRUCTION,
            PINNED_CANONICAL)
    names = f"outputs[{top}]", f"nodes[{top}]", "construction", "canonical"
    for name, digest, pin in zip(names, got, want):
        verdict = "ok" if digest == pin else f"MISMATCH, pinned {pin}"
        print(f"{name} {digest} {verdict}")
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main())
