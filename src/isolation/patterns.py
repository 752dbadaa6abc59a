"""Pattern families, subgraph containment and copy enumeration, plus the
named-graph catalog (paths, cycles, circulants, the diamond, the exceptional
9-vertex graph Y and the 15-vertex extremal witness).

A family has one of five kinds: clique, star, book, any-cycle or custom.
The named families are members of the first three, so a family compares,
hashes and labels the same however it is spelled.

Containment is subgraph containment, not induced: ``g`` contains a pattern if
some injection of the pattern's vertices maps every pattern edge onto an edge
of ``g``.  A "copy" is represented by a mask: its vertex support, or with
``closed`` its closure N[support]; copies are deduplicated by that mask.
``_copies`` lists the copies of a finite family inside a vertex mask, each
as the OR of a per-vertex row over its vertices: the unit row ``1 << v``
gives the support, the row ``adj[v] | 1 << v`` the closure.  It returns the
family's own generator: one low-bit walk for cliques of every size, one walk
over a core and its common neighbors for books and stars (a star is a book
whose spine is one vertex, its centre), and backtracking for custom
patterns.  Containment asks for a first copy and enumeration takes them all.
Any-cycle, whose copies are unbounded, is decided by comparing the edge
count with that of a spanning forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_

from .graph_core import (
    MAX_VERTICES,
    Graph,
    _check_vertex_set,
    _components_within,
    bits,
    canonical_form,
    decode_g6,
    is_connected,
    mask_of,
)

CLIQUE_KIND = "clique"
STAR_KIND = "star"
BOOK_KIND = "book"
ANY_CYCLE_KIND = "anycycle"
CUSTOM_KIND = "custom"
_KINDS = (CLIQUE_KIND, STAR_KIND, BOOK_KIND, ANY_CYCLE_KIND, CUSTOM_KIND)

MAX_CUSTOM_PATTERN = 8


class UnsupportedFamilyError(ValueError):
    """Raised when an operation cannot handle an infinite pattern family."""


@dataclass(frozen=True)
class PatternFamily:
    """One forbidden-pattern family: the clique K_k, the star K_{1,k+1}, the
    book of k pages, any-cycle, or the custom family of ``pattern``.  ``K1``
    and ``K2`` are cliques, ``P3`` a star and ``DIAMOND`` a book.
    """

    kind: str
    k: int = 0
    pattern: Graph | None = field(default=None, compare=False)
    pattern_key: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.kind == CLIQUE_KIND and self.k < 1:
            raise ValueError("clique family needs k >= 1")
        if self.kind in (STAR_KIND, BOOK_KIND) and self.k < 1:
            raise ValueError(f"{self.kind} family needs a positive parameter")
        if self.kind in (ANY_CYCLE_KIND, CUSTOM_KIND) and self.k:
            raise ValueError(f"{self.kind} family takes no parameter")
        # K_k has k vertices, the star and the book k + 2: no graph holds more
        if self.k + 2 * (self.kind != CLIQUE_KIND) > MAX_VERTICES:
            raise ValueError(
                f"{self.kind} pattern has more than {MAX_VERTICES} vertices")
        if self.kind == BOOK_KIND and self.k == 1:
            raise ValueError("book B_1 is the triangle; use clique(3)")
        if self.kind == CUSTOM_KIND:
            p = self.pattern
            if p is None or p.n == 0:
                raise ValueError("custom family needs a nonempty pattern graph")
            if p.n > MAX_CUSTOM_PATTERN:
                raise ValueError(
                    f"custom pattern capped at {MAX_CUSTOM_PATTERN} vertices")
            if not is_connected(p):
                raise ValueError("custom pattern must be connected")
            object.__setattr__(self, "pattern_key", canonical_form(p))

    @property
    def finite(self) -> bool:
        """False for any-cycle, the one family with unboundedly many copies."""
        return self.kind != ANY_CYCLE_KIND

    def label(self) -> str:
        for name, f in _NAMED.items():
            if f == self:
                return name
        if self.kind == CUSTOM_KIND:
            return f"custom:{self.pattern_key}"
        return f"{'k' if self.kind == CLIQUE_KIND else self.kind}:{self.k}"


def clique(k: int) -> PatternFamily:
    """The clique K_k; K_1 and K_2 are ``K1`` and ``K2``."""
    return PatternFamily(CLIQUE_KIND, k)


def star(k: int) -> PatternFamily:
    """The star K_{1,k+1}: a center with k+1 leaves; K_{1,2} is ``P3``."""
    return PatternFamily(STAR_KIND, k)


def book(p: int) -> PatternFamily:
    """The book B_p: p triangles sharing one common edge; B_1 is K_3 and
    B_2 is ``DIAMOND``."""
    return clique(3) if p == 1 else PatternFamily(BOOK_KIND, p)


def custom(pattern: Graph) -> PatternFamily:
    return PatternFamily(CUSTOM_KIND, pattern=pattern)


K1 = clique(1)
K2 = clique(2)
P3 = star(1)
DIAMOND = book(2)
ANY_CYCLE = PatternFamily(ANY_CYCLE_KIND)
# the families with a name of their own: their CLI spelling and label
_NAMED = {"k1": K1, "k2": K2, "p3": P3, "diamond": DIAMOND,
          "anycycle": ANY_CYCLE}


def parse_family(text: str) -> PatternFamily:
    """Parse a CLI family spec: ``k1 k2 p3 diamond anycycle k:4 star:2 book:3
    custom:<graph6>``."""
    s = text.strip().lower()
    if s in _NAMED:
        return _NAMED[s]
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise ValueError(f"unknown pattern family {text!r}")
    head = head.lower()
    if head == "custom":
        return custom(decode_g6(rest))
    try:
        k = int(rest)
    except ValueError:
        raise ValueError(f"bad parameter in family spec {text!r}") from None
    builders = {"k": clique, "star": star, "book": book}
    if head not in builders:
        raise ValueError(f"unknown pattern family {text!r}")
    return builders[head](k)


# --- containment ----------------------------------------------------------


def shortest_cycle(g: Graph, within: int) -> int:
    """Vertex mask of a shortest (so chordless) cycle of ``g`` inside
    ``within``, or 0.  A BFS from each r over ``within`` above r measures
    closed walks r..u-w..r over non-tree edges uw; the shortest is a cycle."""
    best_len, best = g.n + 1, 0
    for r in bits(within):
        allowed, path, queue = within >> r << r, {r: 1 << r}, [r]
        for u in queue:  # BFS: the queue grows while it is read
            d = path[u].bit_count() - 1  # path[u]: tree path from r to u
            if 2 * d + 1 >= best_len:
                break
            for w in bits(g.adj[u] & allowed & ~path[u]):
                if w not in path:
                    path[w] = path[u] | 1 << w
                    queue.append(w)
                elif d + path[w].bit_count() < best_len:
                    best_len = d + path[w].bit_count()
                    best = path[u] | path[w]
        if best_len == 3:
            break
    return best


def contains_pattern(g: Graph, f: PatternFamily, within: int | None = None) -> bool:
    """True iff ``g``, or its subgraph induced on the mask ``within``,
    contains some member of ``f`` as a subgraph: some copy exists, or for
    any-cycle, the mask holds more edges than a spanning forest."""
    if within is None:
        within = g.full_mask
    _check_vertex_set(g, within)
    if f.kind == ANY_CYCLE_KIND:
        adj = g.adj
        edges = sum((adj[v] & within).bit_count() for v in bits(within)) // 2
        return edges > within.bit_count() - len(_components_within(adj, within))
    # only whether a copy exists is asked, so any rows do: the adjacency
    # rows are at hand, where the unit rows would be built per call
    return next(_copies(g, f, within, g.adj), None) is not None


def enumerate_copies(g: Graph, f: PatternFamily, closed: bool = False) -> list[int]:
    """Vertex-support masks of all copies of ``f`` in ``g``, or with
    ``closed`` their closed neighborhoods N[support], each once, first
    yielded first (a dict's order, defined where a set's is not; no solver
    witness depends on it); raises for the (infinite) any-cycle family."""
    if not f.finite:
        raise UnsupportedFamilyError(
            "the any-cycle family has unbounded copies; use a structural check")
    if closed:
        rows = [row | 1 << v for v, row in enumerate(g.adj)]
    else:
        rows = [1 << v for v in range(g.n)]
    return list(dict.fromkeys(_copies(g, f, g.full_mask, rows)))


def _copies(g: Graph, f: PatternFamily, within: int, rows):
    """The copies of the finite family ``f`` in the subgraph induced on the
    mask ``within``, as the family's own generator: for each copy, the OR of
    ``rows[v]`` over its vertices v, its support when ``rows[v]`` is
    ``1 << v``, its closed neighborhood when it is ``adj[v] | 1 << v``.  A
    value may repeat.  A star K_{1,k+1} is a book of k + 1 pages whose spine
    is one vertex, its centre."""
    kind, k, adj = f.kind, f.k, g.adj
    if kind == CLIQUE_KIND:
        return _cliques(adj, k, within, 0, rows)
    if kind in (STAR_KIND, BOOK_KIND):
        return _books(adj, k + (kind == STAR_KIND), within, rows, kind == BOOK_KIND)
    return _embeddings(g, f.pattern, within, rows)


def _books(adj, r: int, within: int, rows, spine: bool):
    """Yield the OR of ``rows`` over each core and r of its common neighbors
    inside ``within``: the core is a book's spine u < v or, without
    ``spine``, a star's centre u = v.  u, v and the pages are walked by
    inline low-bit loops, least first: once u is taken off ``rest``, what is
    left holds the vertices of ``within`` above u.  Each loop carries the
    OR of the vertices it has fixed, so a copy costs one OR per vertex it
    adds.  Page lists are materialized before ``combinations``, which keeps
    the peak memory of dense solves down."""
    rest = within
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        row = adj[u] & within
        ends = row & rest if spine else low
        while ends:
            end = ends & -ends
            ends ^= end
            v = end.bit_length() - 1
            common = row & adj[v]
            if common.bit_count() >= r:
                core = rows[u] | rows[v]
                pages = []
                while common:
                    w = common & -common
                    common ^= w
                    pages.append(rows[w.bit_length() - 1])
                if r == 2:  # P3 and the diamond, unrolled: the sweep's hot loop
                    for a, b in combinations(pages, 2):
                        yield core | a | b
                else:
                    for combo in combinations(pages, r):
                        yield reduce(or_, combo, core)


def _cliques(adj, k: int, cand: int, acc: int, rows):
    """Yield ``acc`` ORed with the rows of each k-clique inside ``cand``.
    The least vertex v is taken off ``cand`` first, so what is left of
    ``cand & adj[v]`` holds just the neighbors above v: each clique is met
    once, least vertex first, and a (k-1)-clique among them completes it."""
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        if k == 1:
            yield acc | rows[v]
        else:
            yield from _cliques(adj, k - 1, cand & adj[v], acc | rows[v], rows)


def _embeddings(g: Graph, pattern: Graph, within: int, rows):
    """Backtracking injection of a connected pattern into ``within``; pattern
    edges must map onto host edges (extra host edges are allowed).  Yields
    the OR of ``rows`` over the host vertices of each injection found."""
    p = pattern.n
    if p > within.bit_count():
        return
    # placement order: start anywhere, then always a vertex with a placed
    # neighbor, so candidate sets stay constrained
    order = [0]
    seen = 1
    while len(order) < p:
        for v in range(p):
            if not seen >> v & 1 and pattern.adj[v] & seen:
                order.append(v)
                seen |= 1 << v
                break
    # host vertices of ``within`` whose degree inside it can carry order[i]
    host_deg = {v: (g.adj[v] & within).bit_count() for v in bits(within)}
    fits = [mask_of(v for v, d in host_deg.items() if d >= pattern.degree(pv))
            for pv in order]
    # placed_nbrs[i]: the depths j < i with order[j] adjacent to order[i],
    # whose images the image of order[i] must be adjacent to
    placed_nbrs = [[j for j in range(i) if pattern.adj[order[i]] >> order[j] & 1]
                   for i in range(p)]
    image = [0] * p

    def place(i: int, used: int, acc: int):
        if i == p:
            yield acc
            return
        cand = fits[i] & ~used
        for j in placed_nbrs[i]:
            cand &= g.adj[image[j]]
        for hv in bits(cand):
            image[i] = hv
            yield from place(i + 1, used | 1 << hv, acc | rows[hv])

    yield from place(0, 0, 0)


# --- named graphs ---------------------------------------------------------
#
# Edges go to ``Graph.from_edges`` as generators, so an order above
# MAX_VERTICES is rejected before any edge is made.


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_bipartite_graph(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise ValueError("complete bipartite graph needs positive part sizes")
    return Graph.from_edges(p + q, ((i, p + j) for i in range(p) for j in range(q)))


def diamond_graph() -> Graph:
    """K4 minus one edge, the book B_2; vertices 0,1 have degree 3 and 2,3
    have degree 2."""
    return book_graph(2)


def book_graph(p: int) -> Graph:
    """p triangles sharing the edge 0-1; pages are vertices 2..p+1."""
    if p < 1:
        raise ValueError("book needs at least 1 page")
    # the spine 0-1 (i = 1), then the page edges 0-i and 1-i
    return Graph.from_edges(p + 2, ((e, i) for i in range(1, p + 2)
                                    for e in range(min(i, 2))))


def circulant_graph(n: int, offsets) -> Graph:
    """Vertices 0..n-1 with i adjacent to i +- d (mod n) for each offset d."""
    if n < 1:
        raise ValueError("circulant needs at least 1 vertex")
    offs = sorted(set(offsets))
    if not offs:
        raise ValueError("circulant needs at least one offset")
    for d in offs:
        if not 1 <= d <= n // 2:
            raise ValueError(f"offset {d} out of range 1..{n // 2}")
    return Graph.from_edges(n, ((i, (i + d) % n) for i in range(n) for d in offs))


def y_graph() -> Graph:
    """The exceptional 9-vertex graph Y, realized as the circulant C9(1,2)."""
    return circulant_graph(9, (1, 2))


def extremal_witness_15() -> Graph:
    """Connected 15-vertex graph whose diamond isolation number is 3 = 15/5.

    Three 5-vertex gadgets: a diamond on 5i..5i+3 (5i and 5i+1 of degree 3)
    plus a connector 5i+4 pendant on the degree-2 vertex 5i+2; the three
    connectors 4, 9, 14 form a triangle.
    """
    edges = []
    for i in range(3):
        b = 5 * i
        edges += [(b, b + 1), (b, b + 2), (b, b + 3), (b + 1, b + 2),
                  (b + 1, b + 3), (b + 2, b + 4)]
    edges += [(4, 9), (9, 14), (4, 14)]
    return Graph.from_edges(15, edges)


def make_named(name: str) -> Graph:
    """Named-graph constructor used by the CLI.

    Accepted specs: ``diamond``, ``y``, ``h15``, ``path:N``, ``cycle:N``,
    ``complete:N``, ``complete_bipartite:P,Q``, ``book:P`` and
    ``circulant:N:D1,D2,...``.
    """
    s = name.strip().lower()
    if s == "diamond":
        return diamond_graph()
    if s == "y":
        return y_graph()
    if s == "h15":
        return extremal_witness_15()
    head, sep, rest = s.partition(":")
    builders = {
        "path": lambda r: path_graph(int(r)),
        "cycle": lambda r: cycle_graph(int(r)),
        "complete": lambda r: complete_graph(int(r)),
        "complete_bipartite": lambda r: complete_bipartite_graph(
            *(int(x) for x in r.split(","))),
        "book": lambda r: book_graph(int(r)),
        "circulant": lambda r: circulant_graph(
            int(r.partition(":")[0]),
            [int(x) for x in r.partition(":")[2].split(",")]),
    }
    if not sep or head not in builders:
        raise ValueError(f"unknown named graph {name!r}")
    try:
        return builders[head](rest)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad parameters in graph spec {name!r}: {exc}") from None
