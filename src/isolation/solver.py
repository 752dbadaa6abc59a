"""Exact isolation numbers via a minimum hitting set search.

A set S isolates a pattern copy D exactly when S meets the closed
neighborhood of D's vertex support, so the minimum isolating set is a minimum
hitting set over those closures.  The solver decomposes by connected
components (isolation numbers are additive over components), uses a greedy
upper bound and a disjoint-closure packing lower bound, and breaks every tie
by least vertex index so results are reproducible bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .graph_core import (
    Graph,
    bits,
    components,
    delete_closed_neighborhood,
    closed_neighborhood,
    induced_subgraph,
    mask_of,
)
from .patterns import (
    ANY_CYCLE,
    ANY_CYCLE_KIND,
    K1,
    PatternFamily,
    contains_pattern,
    enumerate_copies,
)


@dataclass(frozen=True)
class SolveResult:
    """Exact isolation number with a witness set (original labels) and search
    statistics."""

    value: int
    witness: int
    copies_found: int
    nodes_explored: int
    elapsed: float


def is_isolating(g: Graph, f: PatternFamily, s: int) -> bool:
    """True iff deleting N[s] leaves a graph free of the family ``f``."""
    residual, _ = delete_closed_neighborhood(g, s)
    return not contains_pattern(residual, f)


def copy_closures(g: Graph, f: PatternFamily) -> list[int]:
    """Closed neighborhoods of the copy supports; hitting all of them is
    equivalent to isolating every copy."""
    return [closed_neighborhood(g, c) for c in enumerate_copies(g, f)]


def greedy_isolating(g: Graph, f: PatternFamily) -> int:
    """Valid isolating set built by repeatedly taking the vertex that hits the
    most still-uncovered copy closures (ties to the least index)."""
    return _greedy_hitting(copy_closures(g, f), g.n)


def _minimal_sets(sets: list[int]) -> list[int]:
    ordered = sorted(set(sets), key=lambda s: (s.bit_count(), s))
    kept: list[int] = []
    for s in ordered:
        if not any(m & s == m for m in kept):
            kept.append(s)
    return kept


def _greedy_hitting(sets: list[int], n: int) -> int:
    chosen = 0
    uncovered = sets
    while uncovered:
        best_v = -1
        best_hits = 0
        for v in range(n):
            hits = sum(1 for s in uncovered if s >> v & 1)
            if hits > best_hits:
                best_hits = hits
                best_v = v
        chosen |= 1 << best_v
        uncovered = [s for s in uncovered if not s >> best_v & 1]
    return chosen


def _solve_hitting(sets: list[int], n: int) -> tuple[int, int, int]:
    """Minimum hitting set over nonempty vertex masks.

    Returns (size, witness mask, nodes explored); the exhausted branch and
    bound certifies that no smaller hitting set exists.
    """
    sets = _minimal_sets(sets)
    if not sets:
        return 0, 0, 0
    best = _greedy_hitting(sets, n)
    best_size = best.bit_count()
    nodes = 0

    def rec(chosen: int, size: int, uncovered: list[int], banned: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if not uncovered:
            if size < best_size:
                best, best_size = chosen, size
            return
        # packing lower bound over selectable vertices; also detects branches
        # where some closure can no longer be hit at all
        packing = 0
        used = 0
        for s in uncovered:
            eff = s & ~banned
            if not eff:
                return
            if not eff & used:
                packing += 1
                used |= eff
        if size + packing >= best_size:
            return
        # fail-first: branch on the closure with the fewest selectable
        # vertices, trying high-hit-count vertices first
        pick = min(uncovered, key=lambda s: ((s & ~banned).bit_count(), s))
        branch = []
        for v in bits(pick & ~banned):
            hits = sum(1 for s in uncovered if s >> v & 1)
            branch.append((-hits, v))
        branch.sort()
        newly_banned = banned
        for _, v in branch:
            rec(chosen | 1 << v, size + 1,
                [s for s in uncovered if not s >> v & 1], newly_banned)
            newly_banned |= 1 << v

    rec(0, 0, sets, 0)
    return best_size, best, nodes


def _solve_any_cycle(g: Graph) -> tuple[int, int, int]:
    """Iterative deepening over candidate sets with a forest check on the
    residual; exact but exponential, meant for small orders."""
    nodes = 0
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            nodes += 1
            s = mask_of(combo)
            if is_isolating(g, ANY_CYCLE, s):
                return k, s, nodes
    raise AssertionError("deleting every closed neighborhood leaves a forest")


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
        if f.kind == ANY_CYCLE_KIND:
            size, local, explored = _solve_any_cycle(sub)
        else:
            sets = copy_closures(sub, f)
            copies += len(sets)
            size, local, explored = _solve_hitting(sets, sub.n)
        value += size
        nodes += explored
        witness |= mask_of(old[v] for v in bits(local))
    return SolveResult(value, witness, copies, nodes, time.perf_counter() - start)


def gamma(g: Graph) -> int:
    """Domination number: the isolation number for the single-vertex family."""
    return iota_exact(g, K1).value

