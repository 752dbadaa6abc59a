"""Bitmask graphs: representation, vertex-set algebra, graph6 codec, canonical
forms, connectivity, and the isolation-preserving attachment transforms.

Vertices are integers ``0..n-1``.  A vertex set is a plain Python ``int`` used
as a dense bit vector (bit ``v`` set means vertex ``v`` is in the set), which
keeps unions/intersections/popcounts cheap for the orders this library targets
(``n <= 1024``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

MAX_VERTICES = 1024

_G6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the defect
    within its line, and ``line`` the line number when the text was read by
    :func:`parse_graph6_lines`."""

    line: int | None = None

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset

    def __str__(self) -> str:
        text = self.args[0]
        return text if self.line is None else f"line {self.line}: {text}"


def bits(mask: int):
    """Iterate the set bit indices of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    """Bit mask with exactly the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``adj[v]`` is the open neighborhood of ``v``.

    Instances are immutable after construction (the constructor validates
    symmetry, irreflexivity and bit range) and safe to share across workers.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency bit >= n in row {v}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def _check_vertex_set(g: Graph, s: int) -> None:
    if s < 0 or s & ~g.full_mask:
        raise ValueError("vertex set contains a bit index >= n")


def closed_neighborhood(g: Graph, s: int) -> int:
    """N[s]: the set ``s`` together with every neighbor of a member of ``s``."""
    _check_vertex_set(g, s)
    out = s
    for v in bits(s):
        out |= g.adj[v]
    return out


def induced_subgraph(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the vertex set ``keep``, relabeled to ``0..m-1``.

    Returns the compact graph and the index map ``new -> old`` so that
    certificates can be reported in the original labels.
    """
    _check_vertex_set(g, keep)
    old = tuple(bits(keep))
    pos = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        row = 0
        for u in bits(g.adj[v] & keep):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(old), tuple(rows)), old


def delete_closed_neighborhood(g: Graph, s: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``V(g) - N[s]`` plus the new->old index map."""
    return induced_subgraph(g, g.full_mask & ~closed_neighborhood(g, s))


def _component_of(adj, start: int, within: int) -> int:
    comp = 1 << start
    frontier = comp
    while frontier:
        grown = 0
        for v in bits(frontier):
            grown |= adj[v]
        frontier = grown & within & ~comp
        comp |= frontier
    return comp


def components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, ordered by least vertex."""
    out = []
    remaining = g.full_mask
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = _component_of(g.adj, start, remaining)
        out.append(comp)
        remaining &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return _component_of(g.adj, 0, g.full_mask) == g.full_mask


def vertex_connectivity(g: Graph) -> int:
    """Size of a minimum vertex cut; ``n - 1`` for complete graphs, 0 if
    disconnected.

    Brute-force search over cut candidates in increasing size; intended for
    the small orders this library works at.
    """
    if g.n < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    if not is_connected(g):
        return 0
    full = g.full_mask
    if all(row == full & ~(1 << v) for v, row in enumerate(g.adj)):
        return g.n - 1
    for k in range(1, g.n - 1):
        for cut in combinations(range(g.n), k):
            rest = full & ~mask_of(cut)
            start = (rest & -rest).bit_length() - 1
            if _component_of(g.adj, start, rest) != rest:
                return k
    return g.n - 1


# --- graph6 codec ---------------------------------------------------------
#
# Standard printable encoding: the order n, then the upper-triangle adjacency
# bits in column order x(0,1), x(0,2), x(1,2), x(0,3), ..., packed into 6-bit
# groups, each offset by 63.


def encode_g6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    buf = []
    acc = 0
    nbits = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | (g.adj[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                buf.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        buf.append(chr(63 + (acc << (6 - nbits))))
    return head + "".join(buf)


def decode_g6(text: str) -> Graph:
    """Parse one graph6 line (an optional ``>>graph6<<`` header is skipped)."""
    s = text.strip()
    base = text.find(s) if s else 0
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
        base += len(_G6_HEADER)
    if not s:
        raise Graph6Error("empty graph6 string", base)

    def val(i: int) -> int:
        c = ord(s[i])
        if not 63 <= c <= 126:
            raise Graph6Error(f"invalid graph6 character {s[i]!r}", base + i)
        return c - 63

    idx = 0
    if val(0) < 63:
        n = val(0)
        idx = 1
    else:
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph order beyond supported range", base + 1)
        if len(s) < 4:
            raise Graph6Error("truncated graph6 order", base + len(s))
        n = val(1) << 12 | val(2) << 6 | val(3)
        idx = 4
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph order {n} exceeds {MAX_VERTICES}", base)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) - idx < need:
        raise Graph6Error("truncated graph6 adjacency bits", base + len(s))
    if len(s) - idx > need:
        raise Graph6Error("trailing characters after graph6 data", base + idx + need)
    rows = [0] * n
    pos = 0
    for i in range(need):
        group = val(idx + i)
        for b in range(5, -1, -1):
            if pos >= n * (n - 1) // 2:
                if group >> b & 1:
                    raise Graph6Error("nonzero padding bits", base + idx + i)
                continue
            if group >> b & 1:
                col = _g6_col(pos)
                row = pos - col * (col - 1) // 2
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            pos += 1
    return Graph(n, tuple(rows))


def _g6_col(pos: int) -> int:
    # column c covers bit positions c(c-1)/2 .. c(c+1)/2 - 1
    c = int(((8 * pos + 1) ** 0.5 + 1) / 2)
    while c * (c - 1) // 2 > pos:
        c -= 1
    while (c + 1) * c // 2 <= pos:
        c += 1
    return c


def parse_graph6_lines(lines):
    """Yield ``(line_number, Graph)`` from an iterable of graph6 lines.

    Blank lines and a standalone header line are skipped.  A malformed line
    raises :class:`Graph6Error` with its ``line`` set.
    """
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped == _G6_HEADER:
            continue
        try:
            yield lineno, decode_g6(stripped)
        except Graph6Error as exc:
            exc.line = lineno
            raise


# --- canonical form -------------------------------------------------------


def _refined_colors(n: int, adj) -> list[int]:
    # iterated degree refinement; color ids are isomorphism-invariant because
    # they are ranks of the (color, sorted neighbor colors) signatures
    colors = [adj[v].bit_count() for v in range(n)]
    classes = len(set(colors))
    while True:
        raws = []
        for v in range(n):
            nb = sorted(colors[u] for u in bits(adj[v]))
            raws.append((colors[v], tuple(nb)))
        rank = {r: i for i, r in enumerate(sorted(set(raws)))}
        new = [rank[r] for r in raws]
        if len(rank) == classes:
            return new
        colors, classes = new, len(rank)


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Permutation ``perm[position] = vertex`` of a canonical relabeling.

    Minimizes the graph6 bit string over all relabelings that respect the
    refined color classes; the restriction is isomorphism-invariant, so equal
    canonical forms still characterize isomorphism exactly.
    """
    n = g.n
    if n == 0:
        return ()
    adj = g.adj
    colors = _refined_colors(n, adj)
    target = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)

    best_cols: list[int] | None = None
    best_perm: list[int] | None = None
    cols = [0] * n
    perm = [0] * n
    gen = 0

    def rec(i: int, placed: int, state: int) -> None:
        nonlocal best_cols, best_perm, gen
        if i == n:
            best_cols = cols.copy()
            best_perm = perm.copy()
            gen += 1
            return
        scored = []
        for v in by_color[target[i]]:
            if placed >> v & 1:
                continue
            av = adj[v]
            c = 0
            for j in range(i):
                c = c << 1 | (av >> perm[j] & 1)
            scored.append((c, v))
        scored.sort()
        my_gen = gen
        st = state
        for c, v in scored:
            if st == 0 and best_cols is not None:
                if c > best_cols[i]:
                    break
                ns = -1 if c < best_cols[i] else 0
            else:
                ns = st
            cols[i] = c
            perm[i] = v
            rec(i + 1, placed | 1 << v, ns)
            if gen != my_gen:
                my_gen = gen
                st = 0

    rec(0, 0, -1)
    assert best_perm is not None
    return tuple(best_perm)


def relabeled(g: Graph, perm) -> Graph:
    """Graph with vertex ``perm[i]`` renamed to ``i``."""
    pos = {v: i for i, v in enumerate(perm)}
    rows = [0] * g.n
    for i, v in enumerate(perm):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << pos[u]
        rows[i] = row
    return Graph(g.n, tuple(rows))


def canonical_form(g: Graph) -> bytes:
    """Labeling-invariant key: the graph6 encoding of a canonical relabeling.

    Equal outputs hold exactly for isomorphic graphs.
    """
    return encode_g6(relabeled(g, canonical_labeling(g))).encode("ascii")


# --- attachment transforms ------------------------------------------------

ATTACH_KINDS = ("pendant", "triangle", "k3_bridge")


def attach_gadget(g: Graph, v: int, kind: str) -> Graph:
    """Attach a gadget at vertex ``v``; each kind preserves the diamond
    isolation number.

    ``pendant``   adds one vertex joined to ``v``;
    ``triangle``  adds two vertices forming a triangle with ``v``;
    ``k3_bridge`` adds a separate triangle plus one edge from ``v`` into it.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    edges = list(g.edges())
    n = g.n
    if kind == "pendant":
        return Graph.from_edges(n + 1, edges + [(v, n)])
    if kind == "triangle":
        return Graph.from_edges(n + 2, edges + [(v, n), (v, n + 1), (n, n + 1)])
    if kind == "k3_bridge":
        tri = [(n, n + 1), (n, n + 2), (n + 1, n + 2)]
        return Graph.from_edges(n + 3, edges + tri + [(v, n)])
    raise ValueError(f"unknown attachment kind {kind!r}")
