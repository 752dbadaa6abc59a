"""Census enumeration of small connected graphs, bound sweeps over graph
populations, and extremal search.

Enumeration generates one representative per isomorphism class by canonical
augmentation (B. D. McKay, Isomorph-free exhaustive generation, J.
Algorithms 26, 1998).  Every connected graph on n vertices is a connected
graph on n-1 vertices (delete a non-cut vertex) plus a new vertex x joined to
a nonempty attachment set.  The canonical deletion is the non-cut vertex
that comes last in an order that reads no labels: by degree, then by the
sorted degrees of its neighbors, then by its cell in the equitable
refinement of the unit partition (``graph_core._refine_degrees``, the root
step of the canonical search, which starts from the degree classes).  A
parent is augmented with one attachment set per orbit of its automorphism
group, and a child is kept only if x is the canonical deletion: at once when
x alone comes last, through a per-level set of canonical forms when it
shares the last cell with others.  Each class is then reached from exactly
one parent and one orbit, so no global set of seen graphs is kept.

A degree bound skips about half of the attachment sets before any orbit or
deletion work.  Let D be the largest degree of a parent vertex whose
deletion leaves the parent connected.  If 2 <= |A| < D, that vertex is still
non-cut in the child (A has a vertex other than it) and has degree at least
D, more than x's degree |A|, so x cannot be the canonical deletion.  Only
sets of one vertex or of at least D vertices are orbit-reduced and tested
(for order 8, 34,289 of the 67,141 orbit-least sets).
"""

from __future__ import annotations

import os
import random
from math import gcd
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations, compress, islice

from .graph_core import (
    MAX_VERTICES,
    Graph,
    _components_within,
    _refine_degrees,
    _select,
    automorphisms,
    canonical_form,
    decode_g6,
    encode_g6,
    is_connected,
    mask_of,
)
from .patterns import PatternFamily, make_named
from .solver import iota_exact, is_isolating

MAX_BUILTIN_ORDER = 9
_BRUTE_RECHECK_ORDER = 10  # exceptions up to this order re-checked by subsets
_EXTREMAL_CAP = 100  # extremal findings listed in a report; all are counted


@cache
def _sized_masks(k: int, bound: int) -> tuple[int, ...]:
    """Masks over ``0..k-1`` of one vertex or of at least ``bound``
    vertices, in increasing order."""
    return tuple(m for m in range(1, 1 << k)
                 if not m & m - 1 or m.bit_count() >= bound)


def _orbit_least_masks(k: int, gens, bound: int = 0) -> list[int]:
    """Nonempty vertex masks over ``0..k-1`` of one vertex or of at least
    ``bound`` vertices that are the least in their orbit under the group
    generated by ``gens``: a union-find over those masks joins each mask to
    its image under each generator.  A generator keeps a mask's size, so no
    orbit crosses the bound, and the result is the unbounded list filtered
    by size, in the same order.  ``_level`` passes the largest degree D of a
    parent vertex whose deletion leaves the parent connected: such a vertex
    stays non-cut in the child whenever the attachment set has another
    vertex, and keeps degree at least D, so a set of 2 to D - 1 vertices
    never makes the new vertex the canonical deletion."""
    masks = _sized_masks(k, bound)
    parent = list(range(1 << k))
    for sigma in gens:
        image = [0]
        for v in range(k):
            image += [m | 1 << sigma[v] for m in image]
        for a in masks:
            b = image[a]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:  # the root of a class is its least mask
                parent[b] = a
            elif b < a:
                parent[a] = b
    return [m for m in masks if parent[m] == m]


def _level(parents):
    """Rows of the accepted children of every parent: the new vertex x
    joined to the least attachment set of each Aut(parent) orbit, kept if it
    is the canonical deletion.  Ties are settled across the whole level.

    Let D be the largest degree of a parent vertex v whose deletion leaves
    the parent connected.  For an attachment set A with 2 <= |A| < D, v is
    a non-cut vertex of the child (A has a vertex other than v) of degree at
    least D > |A|, so x is never the canonical deletion; those sets are
    skipped before the orbit union, and the rivals loop below decides every
    set that remains."""
    tie_keys: set[str] = set()
    for parent in parents:
        k = len(parent)
        # v is a cut vertex of a child iff some component of parent - v
        # misses the attachment set
        splits = [_components_within(parent, ((1 << k) - 1) ^ (1 << v))
                  for v in range(k)]
        degree = [row.bit_count() for row in parent]
        by_degree = sorted(range(k), key=degree.__getitem__, reverse=True)
        bound = max([degree[v] for v in range(k) if len(splits[v]) == 1],
                    default=0)
        gens = automorphisms(Graph._trusted(k, tuple(parent)))
        for attach in _orbit_least_masks(k, gens, bound):
            d = attach.bit_count()
            rivals = []  # the other non-cut vertices of x's degree
            for v in by_degree:  # in the child, degree[v] + 1 at most
                if degree[v] < d - 1:
                    break
                dv = degree[v] + (attach >> v & 1)
                if dv >= d and all(comp & attach for comp in splits[v]):
                    if dv > d:  # the deletion order compares degrees first
                        rivals = None
                        break
                    rivals.append(v)
            if rivals is None:
                continue
            rows = [row | (attach >> v & 1) << k for v, row in enumerate(parent)] + [attach]
            if rivals and not _is_canonical_deletion(rows, rivals, tie_keys):
                continue
            yield tuple(rows)


def _is_canonical_deletion(rows: list[int], rivals: list[int],
                           tie_keys: set[str]) -> bool:
    """Whether x, the last vertex of a child (adjacency ``rows``), comes
    after each of ``rivals``, the other non-cut vertices of its degree, or
    ties and has a canonical form new to ``tie_keys``.  The first key is the
    sorted degrees of a vertex's neighbors, read from one degree list; the
    second is the index of its cell in the refinement of the unit partition
    (``_refine_degrees``, from the degree classes), whose cell order reads
    no labels: x must lie in the last cell that meets x or a rival tied with
    it on the first key.  The first key settles most children before any
    refinement: without it every child with a rival is refined, and the
    order-9 stream took about 40% longer."""
    x = len(rows) - 1
    degrees = [row.bit_count() for row in rows]
    mine = sorted(compress(degrees, _select(rows[x])))
    tied = 0
    for v in rivals:
        theirs = sorted(compress(degrees, _select(rows[v])))
        if theirs > mine:
            return False
        if theirs == mine:
            tied |= 1 << v
    if not tied:
        return True
    last = next(c for c in reversed(_refine_degrees(rows, degrees))
                if c & (tied | 1 << x))
    if not last >> x & 1:
        return False
    if not last & tied:
        return True
    key = canonical_form(Graph._trusted(len(rows), tuple(rows)))
    new = key not in tie_keys
    tie_keys.add(key)
    return new


@cache
def _census_rows(n: int) -> list[bytes]:
    """Adjacency rows of the order-``n`` census, below ``MAX_BUILTIN_ORDER``,
    as bytes: a row of order <= 8 fits in one byte, which takes a third of
    the memory of a tuple."""
    return [bytes(rows) for rows in _level(_census_rows(n - 1))] if n > 1 else [bytes(1)]


def enumerate_connected(n: int):
    """Yield one representative per isomorphism class of connected graphs on
    ``n`` vertices, in a deterministic order.

    Each class is generated once by canonical augmentation (McKay, J.
    Algorithms 26, 1998) from the order ``n - 1`` census: a class is reached
    from the parent left by deleting its canonical non-cut vertex, through
    one attachment set per parent automorphism orbit.  Orders up to 8 are
    cached after the first call; ``n = 9`` streams its 261,080 classes.
    """
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(f"built-in enumeration covers 1..{MAX_BUILTIN_ORDER}")
    top = n == MAX_BUILTIN_ORDER  # streamed, not cached
    for rows in _level(_census_rows(n - 1)) if top else _census_rows(n):
        yield Graph._trusted(n, tuple(rows))


# --- bound sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class BoundSpec:
    """A claimed bound iota(G, family) <= floor(p*n/q) for connected graphs of
    order at least ``min_n``."""

    family: PatternFamily
    numerator: int
    denominator: int
    min_n: int = 1

    def __post_init__(self):
        if self.denominator <= 0 or self.numerator <= 0:
            raise ValueError("bound ratio must be positive")

    def limit(self, n: int) -> int:
        return self.numerator * n // self.denominator

    def raw_bound(self, n: int) -> float:
        return self.numerator * n / self.denominator

    def attains(self, n: int, iota: int) -> bool:
        return self.denominator * iota == self.numerator * n


@dataclass(frozen=True)
class Finding:
    g6: str
    n: int
    iota: int
    bound: int


@dataclass
class BoundReport:
    """Aggregate of one sweep: per-order tallies, the graphs violating the
    bound, and the graphs attaining it exactly."""

    family: str
    numerator: int
    denominator: int
    checked_by_n: dict[int, int] = field(default_factory=dict)
    skipped_disconnected: int = 0
    skipped_below_min: int = 0
    exceptions: list[Finding] = field(default_factory=list)
    extremal: list[Finding] = field(default_factory=list)
    extremal_total: int = 0

    @property
    def checked_total(self) -> int:
        return sum(self.checked_by_n.values())

    def summary_dict(self) -> dict:
        return {
            "summary": True,
            "family": self.family,
            "ratio": f"{self.numerator}/{self.denominator}",
            "checked": self.checked_total,
            "checked_by_n": {str(n): c for n, c in sorted(self.checked_by_n.items())},
            "skipped_disconnected": self.skipped_disconnected,
            "skipped_below_min": self.skipped_below_min,
            "exceptions": [f.g6 for f in self.exceptions],
            "extremal_total": self.extremal_total,
        }


def _iota_value(family: PatternFamily, g: Graph) -> int:
    return iota_exact(g, family).value


def _solved_stream(graphs, family: PatternFamily, workers: int):
    solve = partial(_iota_value, family)
    # more processes than cores only add forks and memory
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        for g in graphs:
            yield g, solve(g)
        return
    # imported here: a serial run does not pay for loading multiprocessing
    from multiprocessing import Pool

    # bounded batches of the iterator ``graphs`` keep memory flat on large
    # streams while preserving the input order of results
    with Pool(workers) as pool:
        while batch := list(islice(graphs, 2048)):
            yield from zip(batch, pool.map(solve, batch, chunksize=64))


def verify_bound(graphs, spec: BoundSpec, workers: int = 1,
                 record_sink=None) -> BoundReport:
    """Solve every connected graph in the stream and test it against the
    bound.

    Disconnected or below-minimum-order inputs are skipped and counted.  Each
    record passed to ``record_sink`` (in input order) is a dict with keys
    g6, n, iota, bound, raw_bound, status (ok | extremal | exception).
    Every exception is re-checked from its graph6 serialization before the
    report is returned, by subset enumeration up to order 10.  ``workers``
    solver processes, at least 1, run the solves; more than
    ``os.cpu_count()`` are cut to that many.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    report = BoundReport(spec.family.label(), spec.numerator, spec.denominator)

    def eligible():
        for g in graphs:
            if g.n < spec.min_n:
                report.skipped_below_min += 1
                continue
            if not is_connected(g):
                report.skipped_disconnected += 1
                continue
            yield g

    for g, value in _solved_stream(eligible(), spec.family, workers):
        n = g.n
        bound = spec.limit(n)
        report.checked_by_n[n] = report.checked_by_n.get(n, 0) + 1
        g6 = encode_g6(g)
        if value > bound:
            status = "exception"
            report.exceptions.append(Finding(g6, n, value, bound))
        elif spec.attains(n, value):
            status = "extremal"
            report.extremal_total += 1
            if len(report.extremal) < _EXTREMAL_CAP:
                report.extremal.append(Finding(g6, n, value, bound))
        else:
            status = "ok"
        if record_sink is not None:
            record_sink({"g6": g6, "n": n, "iota": value, "bound": bound,
                         "raw_bound": spec.raw_bound(n), "status": status})
    for f in report.exceptions:
        if not _confirms(decode_g6(f.g6), spec.family, f.iota):
            raise AssertionError(
                f"exception {f.g6} did not re-verify as iota = {f.iota}")
    return report


def _confirms(g: Graph, family: PatternFamily, value: int) -> bool:
    """Re-check a claimed isolation number ``value >= 1``.  Up to
    ``_BRUTE_RECHECK_ORDER`` vertices this uses only ``is_isolating`` (no set
    one smaller isolates, some set of that size does), independently of the
    solver; above it the graph is solved again."""
    if g.n > _BRUTE_RECHECK_ORDER:
        return iota_exact(g, family).value == value

    def some_isolates(k: int) -> bool:
        return any(is_isolating(g, family, mask_of(c))
                   for c in combinations(range(g.n), k))

    return not some_isolates(value - 1) and some_isolates(value)


# The published exceptions of each bound, keyed by family label and ratio in
# lowest terms, as ``make_named`` specs (``isolation construct --name``).
# The graphs K_1 and K_2 are outside the K1 and K2 bounds by hypothesis:
# n/2 needs no isolated vertex, and K_1 is one; n/3 needs order 3 or more.
_KNOWN_EXCEPTIONS = {
    ("diamond", 1, 5): ("diamond", "complete:4", "y"),
    ("k1", 1, 2): ("complete:1",),
    ("k2", 1, 3): ("cycle:5", "complete:2"),
    ("anycycle", 1, 4): ("complete:3",),
    ("p3", 2, 7): ("path:3", "complete:3", "cycle:6"),
}


def default_known_exceptions(family: PatternFamily, numerator: int,
                             denominator: int) -> tuple[str, ...]:
    """Published exceptional graphs for the classical bounds this tool can
    reproduce; empty for anything unrecognized.  The ratio is read in lowest
    terms, so 2/10 is 1/5."""
    d = gcd(numerator, denominator) or 1
    p, q = numerator // d, denominator // d
    specs = _KNOWN_EXCEPTIONS.get((family.label(), p, q), ())
    # K_k for k >= 3 at 1/(k+1); K1 and K2 are rows of the table
    if family.kind == "clique" and family.k >= 3 and (p, q) == (1, family.k + 1):
        specs = (f"complete:{family.k}",)
    return tuple(canonical_form(make_named(spec)) for spec in specs)


# --- random graphs ---------------------------------------------------------


def random_connected_graph(rng: random.Random, n: int,
                           extra_edge_prob: float | None = None) -> Graph:
    """Random connected graph: a random spanning tree plus independent extra
    edges (default probability drawn from [0.1, 0.6])."""
    if n < 1:
        raise ValueError("graph order must be positive")
    if n > MAX_VERTICES:  # before the O(n^2) edge loop
        raise ValueError(f"graph order {n} exceeds {MAX_VERTICES}")
    if extra_edge_prob is None:
        extra_edge_prob = rng.uniform(0.1, 0.6)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_edge_prob:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))
