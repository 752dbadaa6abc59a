"""Exact isolation numbers via a minimum hitting set search.

A set S isolates a pattern copy D exactly when S meets the closed
neighborhood of D's vertex support, so the minimum isolating set is a minimum
hitting set over those closures.  For a finite family the copy generator
yields the closures themselves, each the OR of ``adj[v] | 1 << v`` over the
copy's vertices (``enumerate_copies(g, f, closed=True)``), so no support
list is built and no closure is taken per copy.  Any-cycle has unboundedly
many copies, so its rounds start from the closure of every triangle, and
after each solve the closure of a shortest cycle left outside N[witness] is
added until none is left (implicit hitting sets; Moreno-Centeno and Karp,
Oper. Res. 61(2), 2013): each round's optimum is a lower bound, so the next
round stops at the first hitting set of that size, and the last witness
isolates.  Before an any-cycle search, vertices dominated by another vertex,
one lying in every closure that holds them, are dropped (``_undominated``);
the finite families skip that step, which costs more than it saves on their
dense instances.
The solver decomposes by connected components (isolation numbers
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
Rodriguez-Losada and Jimenez, Comput. Oper. Res. 38(2), 2011).  The
search takes its family distinct, in any order, and does no dedupe of its
own: ``copy_closures`` keeps each closure once, in the order the copy
generator first yields it, the triangle seed comes sorted, and each cycle
closure goes in by ``insort`` (it is new: the last witness hits every
earlier closure and misses it).  That order cannot change a witness: the
greedy and the branching rank vertices by (hit count, index), the pick ranks
closures by (count, mask), ``most`` is a maximum and a meet is the whole
intersection; only the packings read the order.  The family, sorted stably
by size, is transposed in C (``_transpose``), with no subset filter: a
superset closure is hit whenever its subset is, so it changes no value, and
its extra vertices only widen the search.  The greedy over it is the
incumbent, and the search ends as soon as it meets the root bound,
max(lower, packing, ceil(m / most)); when the greedy meets it already, no
search runs.  A node where only one more vertex can beat the incumbent
places that vertex without visiting a child: it must lie in every uncovered
closure, so the meet of those closures' rows (``_meet``) gives the
candidates, and its least unbanned vertex is the child the branching would
try first.  The meet stops at the first row that leaves it empty, so it
reads a few rows where a pass over the columns reads all n: on 80 vertices
and about 360 edges, a median of 6 rows of 62 uncovered closures.  Each
other search node selects its uncovered closures, and the columns of its
selectable vertices, in C by ``compress`` over a byte selector of the mask
(``_select``), under 30 ns an element against 200 ns for a lowest-bit loop.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import compress

from .graph_core import (
    Graph,
    _closure,
    _select,
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

def _meet(sets: list[int], mask: int, within: int) -> int:
    """``within`` AND ``sets[i]`` for each set bit i of ``mask``: the part of
    ``within`` that lies in every selected set.  The rows are read in index
    order, and the meet returns at the first row that leaves it empty."""
    for s in compress(sets, _select(mask)):
        within &= s
        if not within:
            break
    return within


@dataclass(frozen=True)
class SolveResult:
    """Exact isolation number with a witness set (original labels) and search
    statistics: ``copies_found`` distinct closures searched (for a finite
    family, the closed neighborhoods of its copies, however many copies
    share one; for any-cycle, the triangle closures it is seeded with,
    counted the same way, and the cycle closures generated, each new) and
    ``nodes_explored`` branch-and-bound nodes, summed over the any-cycle
    rounds.  The hit-count bound next to the packing bound, the stop at
    the root bound and the last vertex placed by a meet of the uncovered
    closures, without visiting children, make the searched tree, and so
    this count, smaller than a plain search would give; the value and the
    witness are the same.  A family whose greedy meets the root bound
    counts one node, the bounded root; a round whose greedy meets the
    proven lower bound counts none."""

    value: int
    witness: int
    copies_found: int
    nodes_explored: int


def is_isolating(g: Graph, f: PatternFamily, s: int) -> bool:
    """True iff deleting N[s] leaves a graph free of the family ``f``."""
    return not contains_pattern(g, f, g.full_mask & ~closed_neighborhood(g, s))


def copy_closures(g: Graph, f: PatternFamily) -> list[int]:
    """The distinct closed neighborhoods of the copies, in the order the
    copy generator first yields them; hitting all of them is equivalent to
    isolating every copy.  ``_solve_hitting`` takes them in any order."""
    return enumerate_copies(g, f, closed=True)


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


def _greedy_hitting(cols: list[int], uncovered: int) -> int:
    """Mask of the vertices a greedy takes until the sets of ``uncovered``
    are hit, each time the one whose column hits the most (least index)."""
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


def _undominated(sets: list[int], cols: list[int]) -> int:
    """Mask of the vertices of the ``sets`` (with incidence ``cols``) that no
    other vertex dominates.  v dominates u when v lies in every set holding
    u, so that ``cols[v]`` contains ``cols[u]``, and v has the greater (hit
    count, index): the containment is strict, or the columns are equal and
    v > u.  So the vertices are visited by decreasing (hit count, index),
    and u is dropped when the sets holding u share a vertex visited before
    it: the meet of their rows with the vertices seen so far, which stops
    at the first row that leaves it empty.  Every dropped vertex has an
    undominated dominator, the greatest of a set of twins survives, and so
    some minimum hitting set avoids every dropped vertex (element
    dominance; Weihe, ALEX 1998)."""
    live = seen = 0
    for hits, u in sorted(zip(map(int.bit_count, cols), range(len(cols))),
                          reverse=True):
        if not hits:
            break
        if not _meet(sets, cols[u], seen):
            live |= 1 << u
        seen |= 1 << u
    return live


def _solve_hitting(sets: list[int], n: int, lower: int,
                   dominate: bool = False) -> tuple[int, int, int]:
    """Minimum hitting set over nonempty vertex masks, given a proven lower
    bound ``lower`` on its size.  ``sets`` must be distinct, in any order,
    as ``copy_closures`` returns them: no dedupe is done here, and a repeat
    changes the witness and the node count; the order moves only the node
    count.

    Returns (size, witness mask, nodes explored); the exhausted branch and
    bound certifies that no smaller hitting set exists.  The search, as the
    module docstring describes it, runs on the sets in increasing size and
    ends at the first hitting set of the root bound's size, max(``lower``,
    disjoint packing, ceil(|sets| / most)).  With ``dominate``, it runs
    over the sets restricted to the ``_undominated`` vertices, and reads
    the columns only of vertices in those sets, so it never branches on or
    places a dropped vertex; the greedy incumbent is kept as it is.
    """
    sets = sorted(sets, key=int.bit_count)
    cols = _transpose(sets, n)
    full = (1 << len(sets)) - 1
    best = _greedy_hitting(cols, full)
    best_size = best.bit_count()
    if best_size <= lower:
        return best_size, best, 0
    packing = used = 0
    for s in sets:
        if not s & used:
            packing += 1
            used |= s
            # the later sets are no smaller, so none fits in what is left
            if n - used.bit_count() < s.bit_count():
                break
    bound = max(lower, packing, -(-len(sets) // max(map(int.bit_count, cols))))
    if best_size <= bound:
        return best_size, best, 1  # settled at the root, one node
    if dominate:
        live = _undominated(sets, cols)
        sets = [s & live for s in sets]
    nodes = 0

    def rec(chosen: int, size: int, uncovered: int, banned: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if not uncovered:
            if size < best_size:
                best, best_size = chosen, size
            return
        if size + 2 >= best_size:
            # only one more vertex can beat the incumbent, and it lies in
            # every uncovered closure; such a vertex hits the most, so the
            # least unbanned one is the child the branching would try first
            if size + 2 == best_size:
                common = _meet(sets, uncovered, ~banned)
                if common:
                    best, best_size = chosen | common & -common, size + 1
            return
        # one pass: a packing lower bound over selectable vertices, the
        # selectable vertices, and the fail-first pick, the closure with the
        # fewest selectable vertices
        packing = 0
        used = 0
        reach = 0
        pick, pick_count = 0, n + 1
        for s in compress(sets, _select(uncovered)):
            # nonempty, or the parent's pick had more selectable vertices than s
            eff = s & ~banned
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
            if best_size <= bound:
                return
            newly_banned |= 1 << v

    rec(0, 0, full, 0)
    rec = None  # break the closure's self-reference: free without the gc
    return best_size, best, nodes


def _triangle_closures(adj) -> list[int]:
    """The distinct N[{u, v, w}] = adj[u] | adj[v] | adj[w] over the
    triangles u < v < w of the graph with rows ``adj``, however many share
    one, in increasing order.  The neighbours of u above u are taken lowest
    first, so when v is taken, ``rest & adj[v]`` is the set of common
    neighbours w above v.  Seeding from ``copy_closures(sub, clique(3))``
    gives the same sets, but made the perfbench ``solve_ring`` median 7.5%
    slower (3 of 3 pairs) and ``sweep`` about 5% slower."""
    out = set()
    for u, row in enumerate(adj):
        rest = row >> u + 1 << u + 1
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            third = rest & adj[v]
            if third:
                both = row | adj[v]
                while third:
                    w = third & -third
                    third ^= w
                    out.add(both | adj[w.bit_length() - 1])
    return sorted(out)


def iota_exact(g: Graph, f: PatternFamily) -> SolveResult:
    """Exact minimum size of an ``f``-isolating set, with witness.

    Solves each connected component separately and sums (isolation numbers
    are additive over components).
    """
    value = 0
    witness = 0
    copies = 0
    nodes = 0
    for comp in components(g):
        sub, old = induced_subgraph(g, comp)
        sets = copy_closures(sub, f) if f.finite else _triangle_closures(sub.adj)
        size = 0  # each round's optimum bounds the next round from below
        while True:
            size, local, explored = _solve_hitting(sets, sub.n, size,
                                                   not f.finite)
            nodes += explored
            cycle = 0 if f.finite else shortest_cycle(
                sub, sub.full_mask & ~_closure(sub.adj, local))
            if not cycle:
                break
            insort(sets, _closure(sub.adj, cycle))
        copies += len(sets)
        value += size
        witness |= local if sub is g else mask_of(old[v] for v in bits(local))
    return SolveResult(value, witness, copies, nodes)


def gamma(g: Graph) -> int:
    """Domination number: the isolation number for the single-vertex family."""
    return iota_exact(g, K1).value

