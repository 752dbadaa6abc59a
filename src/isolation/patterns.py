"""Pattern families, subgraph containment and copy enumeration, plus the
named-graph catalog (paths, cycles, circulants, the diamond, the exceptional
9-vertex graph Y and the 15-vertex extremal witness).

Containment is subgraph containment, not induced: ``g`` contains a pattern if
some injection of the pattern's vertices maps every pattern edge onto an edge
of ``g``.  A "copy" is represented by its vertex-support mask; copies are
deduplicated by support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graph_core import (
    Graph,
    bits,
    canonical_form,
    components,
    decode_g6,
    induced_subgraph,
    is_connected,
    mask_of,
    vertex_connectivity,
)

K1_KIND = "k1"
K2_KIND = "k2"
CLIQUE_KIND = "clique"
P3_KIND = "p3"
STAR_KIND = "star"
BOOK_KIND = "book"
DIAMOND_KIND = "diamond"
ANY_CYCLE_KIND = "anycycle"
CUSTOM_KIND = "custom"

MAX_CUSTOM_PATTERN = 8


class UnsupportedFamilyError(ValueError):
    """Raised when an operation cannot handle an infinite pattern family."""


@dataclass(frozen=True)
class PatternFamily:
    """One forbidden-pattern family; see the module constants for singletons.

    ``k`` parametrizes cliques (K_k), stars (K_{1,k+1}) and books (p pages);
    ``pattern`` holds the graph of a custom family.
    """

    kind: str
    k: int = 0
    pattern: Graph | None = field(default=None, compare=False)
    pattern_key: bytes = b""

    def __post_init__(self):
        if self.kind == CLIQUE_KIND and self.k < 3:
            raise ValueError("clique family needs k >= 3 (use K1/K2 below)")
        if self.kind in (STAR_KIND, BOOK_KIND) and self.k < 1:
            raise ValueError(f"{self.kind} family needs a positive parameter")
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

    def label(self) -> str:
        if self.kind == CLIQUE_KIND:
            return f"k:{self.k}"
        if self.kind == STAR_KIND:
            return f"star:{self.k}"
        if self.kind == BOOK_KIND:
            return f"book:{self.k}"
        if self.kind == CUSTOM_KIND:
            from .graph_core import encode_g6

            return f"custom:{encode_g6(self.pattern)}"
        return self.kind


K1 = PatternFamily(K1_KIND)
K2 = PatternFamily(K2_KIND)
P3 = PatternFamily(P3_KIND)
DIAMOND = PatternFamily(DIAMOND_KIND)
ANY_CYCLE = PatternFamily(ANY_CYCLE_KIND)


def clique(k: int) -> PatternFamily:
    return PatternFamily(CLIQUE_KIND, k)


def star(k: int) -> PatternFamily:
    """The star K_{1,k+1}: a center with k+1 leaves."""
    return PatternFamily(STAR_KIND, k)


def book(p: int) -> PatternFamily:
    """The book B_p: p triangles sharing one common edge (B_2 is the diamond)."""
    return PatternFamily(BOOK_KIND, p)


def custom(pattern: Graph) -> PatternFamily:
    return PatternFamily(CUSTOM_KIND, pattern=pattern)


def parse_family(text: str) -> PatternFamily:
    """Parse a CLI family spec: ``k1 k2 p3 diamond anycycle k:4 star:2 book:3
    custom:<graph6>``."""
    s = text.strip().lower()
    plain = {"k1": K1, "k2": K2, "p3": P3, "diamond": DIAMOND,
             "anycycle": ANY_CYCLE}
    if s in plain:
        return plain[s]
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
    if head == "k":
        if k == 1:
            return K1
        if k == 2:
            return K2
        return clique(k)
    if head == "star":
        return star(k)
    if head == "book":
        return book(k)
    raise ValueError(f"unknown pattern family {text!r}")


# --- containment ----------------------------------------------------------


def _has_cycle(g: Graph) -> bool:
    return g.edge_count() > g.n - len(components(g))


def contains_pattern(g: Graph, f: PatternFamily) -> bool:
    """True iff ``g`` contains some member of ``f`` as a subgraph."""
    kind = f.kind
    if kind == K1_KIND:
        return g.n >= 1
    if kind == K2_KIND:
        return any(row for row in g.adj)
    if kind == P3_KIND:
        return any(row.bit_count() >= 2 for row in g.adj)
    if kind == STAR_KIND:
        return any(row.bit_count() >= f.k + 1 for row in g.adj)
    if kind == ANY_CYCLE_KIND:
        return _has_cycle(g)
    if kind in (DIAMOND_KIND, BOOK_KIND):
        pages = 2 if kind == DIAMOND_KIND else f.k
        for u in range(g.n):
            for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
                if (g.adj[u] & g.adj[v]).bit_count() >= pages:
                    return True
        return False
    if kind == CLIQUE_KIND:
        return _find_clique(g, f.k, collect=None)
    if kind == CUSTOM_KIND:
        return _embed(g, f.pattern, collect=None)
    raise ValueError(f"unknown pattern kind {kind!r}")


def enumerate_copies(g: Graph, f: PatternFamily) -> list[int]:
    """Vertex-support masks of all copies of ``f`` in ``g``, deduplicated and
    sorted; raises for the (infinite) any-cycle family."""
    kind = f.kind
    if kind == ANY_CYCLE_KIND:
        raise UnsupportedFamilyError(
            "the any-cycle family has unbounded copies; use a structural check")
    found: set[int] = set()
    if kind == K1_KIND:
        found = {1 << v for v in range(g.n)}
    elif kind == K2_KIND:
        found = {1 << u | 1 << v for u, v in g.edges()}
    elif kind == P3_KIND:
        for c in range(g.n):
            nbrs = list(bits(g.adj[c]))
            for a, b in combinations(nbrs, 2):
                found.add(1 << c | 1 << a | 1 << b)
    elif kind == STAR_KIND:
        leaves = f.k + 1
        for c in range(g.n):
            nbrs = list(bits(g.adj[c]))
            if len(nbrs) < leaves:
                continue
            for combo in combinations(nbrs, leaves):
                found.add(1 << c | mask_of(combo))
    elif kind in (DIAMOND_KIND, BOOK_KIND):
        pages = 2 if kind == DIAMOND_KIND else f.k
        for u in range(g.n):
            for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
                common = list(bits(g.adj[u] & g.adj[v]))
                if len(common) < pages:
                    continue
                base = 1 << u | 1 << v
                for combo in combinations(common, pages):
                    found.add(base | mask_of(combo))
    elif kind == CLIQUE_KIND:
        _find_clique(g, f.k, collect=found)
    elif kind == CUSTOM_KIND:
        _embed(g, f.pattern, collect=found)
    else:
        raise ValueError(f"unknown pattern kind {kind!r}")
    return sorted(found)


def _find_clique(g: Graph, k: int, collect: set[int] | None) -> bool:
    full = g.full_mask

    def extend(current: int, size: int, candidates: int) -> bool:
        if size == k:
            if collect is None:
                return True
            collect.add(current)
            return False
        for v in bits(candidates):
            if extend(current | 1 << v,
                      size + 1,
                      candidates & g.adj[v] & ~((1 << (v + 1)) - 1)):
                return True
        return False

    return extend(0, 0, full)


def _embed(g: Graph, pattern: Graph, collect: set[int] | None) -> bool:
    """Backtracking injection of a connected pattern; pattern edges must map
    onto host edges (extra host edges are allowed)."""
    p = pattern.n
    if p > g.n:
        return False
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
    pdeg = [pattern.degree(v) for v in range(p)]
    image = [0] * p

    def place(i: int, used: int) -> bool:
        if i == p:
            if collect is None:
                return True
            collect.add(used)
            return False
        pv = order[i]
        placed_nbrs = [j for j in range(i) if pattern.adj[pv] >> order[j] & 1]
        cand = g.full_mask & ~used
        for j in placed_nbrs:
            cand &= g.adj[image[j]]
        for hv in bits(cand):
            if g.degree(hv) < pdeg[pv]:
                continue
            image[i] = hv
            if place(i + 1, used | 1 << hv):
                return True
        return False

    return place(0, 0)


# --- named graphs ---------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_bipartite_graph(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise ValueError("complete bipartite graph needs positive part sizes")
    return Graph.from_edges(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def diamond_graph() -> Graph:
    """K4 minus one edge; vertices 0,1 have degree 3 and 2,3 have degree 2."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def book_graph(p: int) -> Graph:
    """p triangles sharing the edge 0-1; pages are vertices 2..p+1."""
    if p < 1:
        raise ValueError("book needs at least 1 page")
    return Graph.from_edges(p + 2, [(0, 1)] + [(0, i) for i in range(2, p + 2)]
                            + [(1, i) for i in range(2, p + 2)])


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
    edges = set()
    for i in range(n):
        for d in offs:
            edges.add((min(i, (i + d) % n), max(i, (i + d) % n)))
    return Graph.from_edges(n, sorted(edges))


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


# --- structural certificate for Y -----------------------------------------


@dataclass(frozen=True)
class YPropertyReport:
    """Results of the four structural checks that characterize Y."""

    connectivity_is_4: bool
    four_regular: bool
    common_neighbors_at_most_2: bool
    residual_path_for_every_vertex: bool

    @property
    def all_ok(self) -> bool:
        return (self.connectivity_is_4 and self.four_regular
                and self.common_neighbors_at_most_2
                and self.residual_path_for_every_vertex)


def residual_path_pivot(g: Graph, u: int) -> int | None:
    """Least vertex v other than u such that deleting u and N[v] leaves
    exactly a 3-vertex path, or None if there is no such vertex."""
    for v in range(g.n):
        if v == u:
            continue
        keep = g.full_mask & ~(1 << u) & ~(1 << v) & ~g.adj[v]
        sub, _ = induced_subgraph(g, keep)
        if sub.n == 3 and sub.edge_count() == 2 and is_connected(sub):
            return v
    return None


def verify_y_properties(g: Graph) -> YPropertyReport:
    """Check the four properties of the exceptional graph Y: connectivity 4,
    4-regularity, every vertex pair sharing at most 2 neighbors, and for each
    vertex u some v whose closed neighborhood plus u leaves exactly a 3-path.
    """
    conn4 = g.n >= 2 and is_connected(g) and vertex_connectivity(g) == 4
    regular4 = {row.bit_count() for row in g.adj} == {4}
    common_ok = all(
        (g.adj[u] & g.adj[v]).bit_count() <= 2
        for u, v in combinations(range(g.n), 2))
    residual_ok = g.n > 0 and all(
        residual_path_pivot(g, u) is not None for u in range(g.n))
    return YPropertyReport(conn4, regular4, common_ok, residual_ok)
