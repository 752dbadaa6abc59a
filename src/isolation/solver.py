"""Exact isolation numbers via a minimum hitting set search.

A set S isolates a pattern copy D exactly when S meets the closed
neighborhood of D's vertex support, so the minimum isolating set is a minimum
hitting set over those closures.  Any-cycle has unboundedly many copies, so
after each solve the closure of a shortest cycle left outside N[witness] is
added until none is left (implicit hitting sets; Moreno-Centeno and Karp,
Oper. Res. 61(2), 2013): each round's optimum is a lower bound, so the next
round stops at the first hitting set of that size, and the last witness
isolates.  The solver decomposes by connected components (isolation numbers
are additive over components), uses a greedy upper bound and a
disjoint-closure packing lower bound, and breaks every tie by least vertex
index so results are reproducible bit for bit.

The closures are held once, transposed: bit i of ``cols[v]`` is set iff
vertex v lies in closure i.  The subset filter, the greedy and the branch and
bound work on masks of closure indices, so a vertex's hit count is one
popcount and a child's uncovered closures one AND (bit-parallel search; San
Segundo, Rodriguez-Losada and Jimenez, Comput. Oper. Res. 38(2), 2011).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph_core import (
    Graph,
    bits,
    components,
    closed_neighborhood,
    induced_subgraph,
    mask_of,
)
from .patterns import (
    K1,
    PatternFamily,
    contains_pattern,
    enumerate_copies,
    shortest_cycle,
)


@dataclass(frozen=True)
class SolveResult:
    """Exact isolation number with a witness set (original labels) and search
    statistics: ``copies_found`` closures searched (for any-cycle, the cycle
    closures generated) and ``nodes_explored`` branch-and-bound nodes, summed
    over the any-cycle rounds."""

    value: int
    witness: int
    copies_found: int
    nodes_explored: int
    elapsed: float


def is_isolating(g: Graph, f: PatternFamily, s: int) -> bool:
    """True iff deleting N[s] leaves a graph free of the family ``f``."""
    return not contains_pattern(g, f, g.full_mask & ~closed_neighborhood(g, s))


def copy_closures(g: Graph, f: PatternFamily) -> list[int]:
    """Closed neighborhoods of the copy supports; hitting all of them is
    equivalent to isolating every copy."""
    return [closed_neighborhood(g, c) for c in enumerate_copies(g, f)]


def greedy_isolating(g: Graph, f: PatternFamily) -> int:
    """Valid isolating set built by repeatedly taking the vertex that hits
    the most still-uncovered closures, one per copy (ties to least index)."""
    sets = copy_closures(g, f)
    cols = [0] * g.n
    for i, s in enumerate(sets):
        for v in bits(s):
            cols[v] |= 1 << i
    return _greedy_hitting(cols, (1 << len(sets)) - 1)


def _minimal_sets(sets: list[int], n: int) -> tuple[list[int], list[int], int]:
    """Inclusion-minimal members of ``sets``, ordered by (size, mask), with
    their incidence ``cols`` (bit i of ``cols[v]`` is set iff vertex v lies
    in ``kept[i]``) and the mask of all kept indices."""
    kept: list[int] = []
    cols = [0] * n
    full = 0
    for s in sorted(set(sets), key=lambda s: (s.bit_count(), s)):
        # kept indices with no vertex outside s, i.e. kept subsets of s
        inside = full
        for v in range(n):
            if not s >> v & 1:
                inside &= ~cols[v]
                if not inside:
                    break
        if not inside:
            bit = 1 << len(kept)
            for v in range(n):
                if s >> v & 1:
                    cols[v] |= bit
            kept.append(s)
            full = full << 1 | 1
    return kept, cols, full


def _greedy_hitting(cols: list[int], uncovered: int) -> int:
    chosen = 0
    while uncovered:
        best_v = -1
        best_hits = 0
        for v, col in enumerate(cols):
            hits = (uncovered & col).bit_count()
            if hits > best_hits:
                best_hits = hits
                best_v = v
        chosen |= 1 << best_v
        uncovered &= ~cols[best_v]
    return chosen


def _solve_hitting(sets: list[int], n: int, lower: int) -> tuple[int, int, int]:
    """Minimum hitting set over nonempty vertex masks, given a proven lower
    bound ``lower`` on its size.

    Returns (size, witness mask, nodes explored); the exhausted branch and
    bound certifies that no smaller hitting set exists.  The first hitting
    set of size ``lower`` ends the search: nothing can beat it.
    """
    sets, cols, full = _minimal_sets(sets, n)
    if not sets:
        return 0, 0, 0
    best = _greedy_hitting(cols, full)
    best_size = best.bit_count()
    nodes = 0

    def rec(chosen: int, size: int, uncovered: int, banned: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if not uncovered:
            if size < best_size:
                best, best_size = chosen, size
            return
        # one pass: a packing lower bound over selectable vertices (which also
        # detects closures no longer hittable), and the fail-first pick, the
        # closure with the fewest selectable vertices
        packing = 0
        used = 0
        pick, pick_count = 0, n + 1
        for i in bits(uncovered):
            s = sets[i]
            eff = s & ~banned
            if not eff:
                return
            if not eff & used:
                packing += 1
                used |= eff
            count = eff.bit_count()
            if count < pick_count or count == pick_count and s < pick:
                pick, pick_count = s, count
        if size + packing >= best_size:
            return
        # try high-hit-count vertices first
        branch = sorted((-(uncovered & cols[v]).bit_count(), v)
                        for v in bits(pick & ~banned))
        newly_banned = banned
        for _, v in branch:
            rec(chosen | 1 << v, size + 1, uncovered & ~cols[v], newly_banned)
            if best_size <= lower:
                return
            newly_banned |= 1 << v

    if best_size > lower:
        rec(0, 0, full, 0)
    rec = None  # break the closure's self-reference: free without the gc
    return best_size, best, nodes


def iota_exact(g: Graph, f: PatternFamily) -> SolveResult:
    """Exact minimum size of an ``f``-isolating set, with witness.

    Solves each connected component separately and sums (isolation numbers
    are additive over components).
    """
    start = time.perf_counter()
    value = 0
    witness = 0
    copies = 0
    nodes = 0
    for comp in components(g):
        sub, old = induced_subgraph(g, comp)
        sets = copy_closures(sub, f) if f.finite else []
        size = 0  # each round's optimum bounds the next round from below
        while True:
            size, local, explored = _solve_hitting(sets, sub.n, size)
            nodes += explored
            cycle = 0 if f.finite else shortest_cycle(
                sub, sub.full_mask & ~closed_neighborhood(sub, local))
            if not cycle:
                break
            sets.append(closed_neighborhood(sub, cycle))
        copies += len(sets)
        value += size
        witness |= mask_of(old[v] for v in bits(local))
    return SolveResult(value, witness, copies, nodes, time.perf_counter() - start)


def gamma(g: Graph) -> int:
    """Domination number: the isolation number for the single-vertex family."""
    return iota_exact(g, K1).value

