"""Exact isolation numbers via a minimum hitting set search.

A set S isolates a pattern copy D exactly when S meets the closed
neighborhood of D's vertex support, so the minimum isolating set is a minimum
hitting set over those closures.  Any-cycle has unboundedly many copies, so
after each solve the closure of a shortest cycle left outside N[witness] is
added until none is left (implicit hitting sets; Moreno-Centeno and Karp,
Oper. Res. 61(2), 2013): each round's optimum is a lower bound, so the next
round stops at the first hitting set of that size, and the last witness
isolates.  The solver decomposes by connected components (isolation numbers
are additive over components), uses a greedy upper bound, and breaks every
tie by least vertex index so results are reproducible bit for bit.  Each
branch-and-bound node is pruned by two lower bounds: a disjoint-closure
packing, and ceil(|uncovered| / most), where ``most`` is the largest number of
uncovered closures one selectable vertex hits.  Both prune only subtrees that
cannot beat the incumbent, so they change the node count, never the witness.

The closures are held once, transposed: bit i of ``cols[v]`` is set iff
vertex v lies in closure i.  The greedy and the branch and bound work on
masks of closure indices, so a vertex's hit count is one popcount and a
child's uncovered closures one AND (bit-parallel search; San Segundo,
Rodriguez-Losada and Jimenez, Comput. Oper. Res. 38(2), 2011).  A family of
more than ``_ROOT_GATE`` distinct closures is transposed in C (``_transpose``)
and bounded at its root before any reduction: when the greedy over all its
closures meets max(lower, packing, ceil(m / most)), that greedy is the
answer and no subset filter runs.  Both bounds hold on any family, and the
packing over the closures in (size, mask) order equals the one over the
inclusion-minimal closures, since a superset comes after its subsets and so
always meets the packed vertices.  Otherwise the subset filter reads the
transposed columns, and the greedy and the search run on the minimal
closures.  A smaller family goes straight to a loop filter, which builds its
incidence by insertion.  Each search node selects its uncovered closures,
and the columns of its selectable vertices, in C by ``compress`` over a byte
selector of the mask (``_select``), under 30 ns an element against about
200 ns for a lowest-bit loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress

from .graph_core import (
    Graph,
    _closure,
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

# bin(m) reversed and mapped b"0"/b"1" -> 0/1 bytes: byte i is bit i of m
_SELECT = bytes.maketrans(b"01", b"\0\1")
# a family of more distinct closures than this is transposed and bounded at
# its root before the subset filter; at or below it the loop filter is faster
# (break-even at 6 to 7 closures on the sweep's graphs of order 7 to 11).
# The column filter pays only where the root step has already paid for the
# transposition: with it, the two filters break even at 6 closures; the
# column filter alone, transposition included, is slower up to about 50.
_ROOT_GATE = 6


def _select(m: int) -> bytes:
    """Selector of the nonnegative mask ``m``: ``compress(seq, _select(m))``
    yields ``seq[i]`` for each set bit i of m in increasing order, chosen in C."""
    return bin(m).encode()[:1:-1].translate(_SELECT)


@dataclass(frozen=True)
class SolveResult:
    """Exact isolation number with a witness set (original labels) and search
    statistics: ``copies_found`` closures searched (for any-cycle, the cycle
    closures generated) and ``nodes_explored`` branch-and-bound nodes, summed
    over the any-cycle rounds.  With the hit-count bound next to the packing
    bound, the searched tree, and so this count, is smaller than the packing
    bound alone would give; the value and the witness are the same.  A
    family settled at its root, before the subset filter, counts one node,
    the bounded root; a round whose greedy meets the proven lower bound
    counts none."""

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
    adj = g.adj
    return [_closure(adj, c) for c in enumerate_copies(g, f)]


def greedy_isolating(g: Graph, f: PatternFamily) -> int:
    """Valid isolating set built by repeatedly taking the vertex that hits
    the most still-uncovered closures, one per copy (ties to least index)."""
    sets = copy_closures(g, f)
    return _greedy_hitting(_transpose(sets, g.n), (1 << len(sets)) - 1)


def _transpose(rows: list[int], n: int) -> list[int]:
    """Incidence of the masks ``rows`` over n vertices: bit i of ``cols[v]``
    is set iff vertex v lies in ``rows[i]``.  Built in C: the rows, last
    first, are written as one string of numerals, each ``bin`` of the row
    with a sentinel bit n, so every numeral has n + 3 characters and column
    v is one strided slice read back by one ``int(..., 2)``."""
    if not rows:
        return [0] * n
    text = "".join(map(bin, map((1 << n).__or__, reversed(rows))))
    width = n + 3  # "0b1" and n digits, bit v at offset width - 1 - v
    return [int(text[width - 1 - v::width], 2) for v in range(n)]


def _minimal_sets(sets: list[int], n: int) -> tuple[list[int], list[int]]:
    """Inclusion-minimal members of the distinct ``sets``, given in (size,
    mask) order, with their incidence ``cols``.

    The filter works on the complement: ``outside[v]`` holds the kept
    indices whose set misses v, so the kept subsets of s are the AND of
    ``outside[v]`` over the vertices outside s.  Dense closures cover most
    of the graph, so a test and an insertion touch only the few vertices a
    closure misses."""
    kept: list[int] = []
    outside = [0] * n
    full = 0
    vertices = (1 << n) - 1
    for s in sets:
        missing = vertices & ~s
        rest = missing
        inside = full  # kept indices with no vertex outside s: subsets of s
        while inside and rest:
            low = rest & -rest
            inside &= outside[low.bit_length() - 1]
            rest ^= low
        if not inside:
            bit = 1 << len(kept)
            rest = missing
            while rest:
                low = rest & -rest
                outside[low.bit_length() - 1] |= bit
                rest ^= low
            kept.append(s)
            full |= bit
    return kept, [full & ~out for out in outside]


def _minimal_columns(sets: list[int], cols: list[int],
                     n: int) -> tuple[list[int], list[int]]:
    """``_minimal_sets`` for a family whose incidence ``cols`` is already
    built.  Nothing is inserted: ``full ^ cols[v]`` already holds every index
    whose set misses v, so the test ANDs it with the mask of indices kept so
    far.  The kept sets are transposed afresh only when some set is dropped."""
    full = (1 << len(sets)) - 1
    outside = [full ^ c for c in cols]
    vertices = (1 << n) - 1
    kept = 0
    for i, s in enumerate(sets):
        rest = vertices & ~s
        inside = kept
        while inside and rest:
            low = rest & -rest
            inside &= outside[low.bit_length() - 1]
            rest ^= low
        if not inside:
            kept |= 1 << i
    if kept == full:
        return sets, cols
    sets = list(compress(sets, _select(kept)))
    return sets, _transpose(sets, n)


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


def _settle_root(sets: list[int], cols: list[int],
                 lower: int) -> tuple[int, int, int] | None:
    """(size, witness, nodes) of the greedy over the distinct ``sets``, in
    (size, mask) order with incidence ``cols``, if it meets the root bound
    max(``lower``, disjoint packing, ceil(|sets| / most)); else None.  The
    packing equals the one over the minimal sets: a superset comes after its
    subsets, so it always meets ``used``."""
    m = len(sets)
    best = _greedy_hitting(cols, (1 << m) - 1)
    size = best.bit_count()
    if size <= lower:
        return size, best, 0
    packing = used = 0
    for s in sets:
        if not s & used:
            packing += 1
            used |= s
    if size <= max(packing, -(-m // max(map(int.bit_count, cols)))):
        return size, best, 1
    return None


def _solve_hitting(sets: list[int], n: int, lower: int) -> tuple[int, int, int]:
    """Minimum hitting set over nonempty vertex masks, given a proven lower
    bound ``lower`` on its size.

    Returns (size, witness mask, nodes explored); the exhausted branch and
    bound certifies that no smaller hitting set exists.  The first hitting
    set of size ``lower`` ends the search: nothing can beat it.
    """
    sets = sorted(sorted(set(sets)), key=int.bit_count)  # stable: by (size, mask)
    if len(sets) > _ROOT_GATE:
        cols = _transpose(sets, n)
        settled = _settle_root(sets, cols, lower)
        if settled:
            return settled
        sets, cols = _minimal_columns(sets, cols, n)
    else:
        sets, cols = _minimal_sets(sets, n)
    if not sets:
        return 0, 0, 0
    full = (1 << len(sets)) - 1
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
        # detects closures no longer hittable), the selectable vertices, and
        # the fail-first pick, the closure with the fewest selectable vertices
        packing = 0
        used = 0
        reach = 0
        pick, pick_count = 0, n + 1
        for s in compress(sets, _select(uncovered)):
            eff = s & ~banned
            if not eff:
                return
            if not eff & used:
                packing += 1
                used |= eff
            reach |= eff
            count = eff.bit_count()
            if count < pick_count or count == pick_count and s < pick:
                pick, pick_count = s, count
        if size + packing >= best_size:
            return
        # a hit-count bound: no selectable vertex hits more than `most`
        # uncovered closures, so at least ceil(|uncovered| / most) more
        most = max([(uncovered & c).bit_count()
                    for c in compress(cols, _select(reach))])
        if size - (-uncovered.bit_count() // most) >= best_size:
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
                sub, sub.full_mask & ~_closure(sub.adj, local))
            if not cycle:
                break
            sets.append(_closure(sub.adj, cycle))
        copies += len(sets)
        value += size
        witness |= local if sub is g else mask_of(old[v] for v in bits(local))
    return SolveResult(value, witness, copies, nodes, time.perf_counter() - start)


def gamma(g: Graph) -> int:
    """Domination number: the isolation number for the single-vertex family."""
    return iota_exact(g, K1).value

