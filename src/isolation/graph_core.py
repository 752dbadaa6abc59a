"""Bitmask graphs: representation, vertex-set algebra, graph6 codec, canonical
forms and connectivity.

Vertices are integers ``0..n-1``.  A vertex set is a plain Python ``int`` used
as a dense bit vector (bit ``v`` set means vertex ``v`` is in the set), which
keeps unions/intersections/popcounts cheap for the orders this library targets
(``n <= 1024``).
"""

from __future__ import annotations

from dataclasses import dataclass

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


# bin(m) reversed and mapped b"0"/b"1" -> 0/1 bytes: byte i is bit i of m
_SELECT = bytes.maketrans(b"01", b"\0\1")


def _select(m: int) -> bytes:
    """Selector of the nonnegative mask ``m``: ``compress(seq, _select(m))``
    yields ``seq[i]`` for each set bit i of m in increasing order, chosen in C."""
    return bin(m).encode()[:1:-1].translate(_SELECT)


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
            while row:
                u = (row & -row).bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row &= row - 1

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if not 0 <= n <= MAX_VERTICES:  # before any row is allocated
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._trusted(n, tuple(rows))

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Instance from rows valid by construction, skipping the checks."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

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


def _check_vertex_set(g: Graph, s: int) -> None:
    if s < 0 or s & ~g.full_mask:
        raise ValueError("vertex set contains a bit index >= n")


def closed_neighborhood(g: Graph, s: int) -> int:
    """N[s]: the set ``s`` together with every neighbor of a member of ``s``."""
    _check_vertex_set(g, s)
    return _closure(g.adj, s)


def _closure(adj, s: int) -> int:
    """N[s] over the adjacency rows ``adj``, unchecked: ``s`` must be a
    vertex set of the graph, as every copy support and cycle found in it is."""
    out = s
    while s:
        low = s & -s
        out |= adj[low.bit_length() - 1]
        s ^= low
    return out


def induced_subgraph(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the vertex set ``keep``, relabeled to ``0..m-1``.

    Returns the compact graph (``g`` itself for the whole vertex set) and the
    index map ``new -> old``, so certificates name the original labels.
    """
    _check_vertex_set(g, keep)
    if keep == g.full_mask:
        return g, tuple(range(g.n))
    old = tuple(bits(keep))
    pos = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        row = 0
        for u in bits(g.adj[v] & keep):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph._trusted(len(old), tuple(rows)), old


def components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, ordered by least vertex."""
    return _components_within(g.adj, g.full_mask)


def _components_within(adj, remaining: int) -> list[int]:
    out = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            frontier = _closure(adj, frontier) & remaining & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    return len(_components_within(g.adj, g.full_mask)) <= 1


# --- graph6 codec ---------------------------------------------------------
#
# Standard printable encoding: the order n, then the upper-triangle adjacency
# bits in column order x(0,1), x(0,2), x(1,2), x(0,3), ..., packed into 6-bit
# groups, each offset by 63.  In memory the bits are one '0'/'1' string, the
# field; column c is its run of c bits x(0,c) .. x(c-1,c) from bit c(c-1)/2
# on, bits 0 .. c-1 of vertex c's row in increasing order.  _G6_BITS maps
# each data character to its six bits, the high bit first; _G6_CHARS back.
_G6_BITS = {63 + i: format(i, "06b") for i in range(64)}
_G6_CHARS = {six: chr(code) for code, six in _G6_BITS.items()}


def encode_g6(g: Graph) -> str:
    """graph6 text of ``g``; column c is ``adj[c]``'s bits below c, read from
    its ``bin`` reversed, with bit c set (and dropped) so that no zero is lost."""
    return _pack_g6(g.n, "".join([bin(row & (1 << c) - 1 | 1 << c)[:2:-1]
                                  for c, row in enumerate(g.adj)]))


def _pack_g6(n: int, field: str) -> str:
    """graph6 text of an ``n``-vertex graph given its field, zero-padded to
    whole characters."""
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    field += "0" * (-len(field) % 6)
    return head + "".join([_G6_CHARS[field[i:i + 6]] for i in range(0, len(field), 6)])


def decode_g6(text: str) -> Graph:
    """Parse one graph6 line (an optional ``>>graph6<<`` header is skipped).
    The data become one bit string and column c one slice of it, vertex c's
    lower neighbors.  Errors, their order and offsets are those of reading
    bit by bit: order bytes, length, first invalid character, padding."""
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
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(s) - idx < need:
        raise Graph6Error("truncated graph6 adjacency bits", base + len(s))
    if len(s) - idx > need:
        raise Graph6Error("trailing characters after graph6 data", base + idx + need)
    data = s[idx:]
    if data and (min(data) < "?" or max(data) > "~"):
        for i in range(idx, len(s)):
            val(i)
    field = data.translate(_G6_BITS)
    if "1" in field[total:]:  # padding only fills out the last character
        raise Graph6Error("nonzero padding bits", base + len(s) - 1)
    rows = [0] * n
    start = 0
    for c in range(1, n):
        rows[c] = low = int(field[start:start + c][::-1], 2)
        start += c
        bit = 1 << c
        while low:
            top = low & -low
            rows[top.bit_length() - 1] |= bit
            low ^= top
    return Graph._trusted(n, tuple(rows))  # symmetric and loopless by construction


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
#
# Individualization-refinement (McKay, Congr. Numer. 30, 1981; McKay and
# Piperno, J. Symb. Comput. 60, 2014).  A node is an ordered partition into
# cells (bit masks), refined until equitable; its children individualize
# each vertex of its first non-singleton cell.  A discrete partition is a
# leaf, labeling the vertex of cell i as i.  No step reads vertex labels.
# Most splitters in the search are one individualized vertex, whose row
# splits each cell in one pass; the root starts from the degree classes,
# the split the whole vertex set makes of itself (``_refine_degrees``).


def _refine(adj, cells: list[int], queue: list[int]) -> list[int]:
    """Equitable refinement of ``cells``, equitable already for every
    splitter not in ``queue``.  A splitter splits each cell by the neighbor
    counts of its vertices in it, in count order (``planes[i]`` masks the
    counts with bit ``i`` set); a one-vertex splitter has the single plane
    of its row, so a cell ``c`` splits into ``c & ~row`` and ``c & row``.
    All fragments but the first largest join the queue (Hopcroft): their
    cell was a splitter already, or still is."""
    size = sum(map(int.bit_count, cells))
    while queue and len(cells) < size:
        w = queue.pop()
        out = []
        if not w & (w - 1):  # one vertex: its row is the one plane
            row = adj[w.bit_length() - 1]
            for c in cells:
                a = c & row
                if a and a != c:
                    b = c ^ a
                    out += b, a
                    queue.append(a if b.bit_count() >= a.bit_count() else b)
                else:
                    out.append(c)
            cells = out
            continue
        planes: list[int] = []
        touched = 0  # only a cell meeting N(w) can split
        for u in bits(w):
            carry, i = adj[u], 0
            touched |= carry
            while carry:
                if i == len(planes):
                    planes.append(0)
                planes[i], carry = planes[i] ^ carry, planes[i] & carry
                i += 1
        planes.reverse()  # the high bit first: count order
        for c in cells:
            if not c & touched or not c & (c - 1):
                out.append(c)
                continue
            parts = [c]
            for plane in planes:
                parts = [q for p in parts for q in (p & ~plane, p & plane) if q]
            out += parts
            if len(parts) > 1:
                big = max(parts, key=int.bit_count)
                queue += [p for p in parts if p != big]
        cells = out
    return cells


def _refine_degrees(adj, degrees: list[int]) -> list[int]:
    """``_refine(adj, [full], [full])`` from its first split: the degree
    classes in increasing degree, all but the first largest queued."""
    classes = [0] * len(degrees)  # a degree is below the order
    for v, d in enumerate(degrees):
        classes[d] |= 1 << v
    cells = [c for c in classes if c]
    big = max(cells, key=int.bit_count, default=0)
    return _refine(adj, cells, [c for c in cells if c != big])


def _leaf_field(adj, perm) -> str:
    """graph6 field of the graph relabeled so that ``perm[i]`` is vertex
    ``i``: column i is bits ``perm[:i]`` of ``adj[perm[i]]``, each read from
    that row's ``bin`` reversed (with bit n set, so that it has n bits)."""
    top = 1 << len(perm)
    rows = [bin(adj[v] | top)[:2:-1] for v in perm]
    return "".join([row[u] for i, row in enumerate(rows) for u in perm[:i]])


def _automorphism_between(adj, p, q):
    """The map ``gamma[p[i]] = q[i]`` and the mask of the vertices it moves,
    or ``(None, 0)`` when it is not an automorphism."""
    gamma = list(range(len(p)))
    moves = 0
    for a, b in zip(p, q):
        if a != b:
            gamma[a] = b
            moves |= 1 << a
    rows = _closure(adj, moves)  # the rows that hold or meet a moved vertex
    while rows:
        v = (rows & -rows).bit_length() - 1
        rows &= rows - 1
        moved = adj[v] & moves
        image = adj[v] ^ moved
        while moved:
            image |= 1 << gamma[(moved & -moved).bit_length() - 1]
            moved &= moved - 1
        if image != adj[gamma[v]]:
            return None, 0
    return tuple(gamma), moves


def _canonical_search(n: int, adj):
    """graph6 field and labeling of the least leaf, and generators of the
    automorphism group.  A leaf with the relabeled graph of the first or
    the least leaf gives an automorphism, and the search jumps back to where
    the two paths split: the subtree left is an image of one searched.  A
    child is skipped when an automorphism found fixes the node's
    individualized vertices and the child is not the least of its cycle.
    The path is an explicit stack, so the depth (up to n) is not bounded by
    Python's recursion limit."""
    full = (1 << n) - 1
    found: list[tuple] = []  # automorphism, its fixed points, and those plus the least of each cycle
    first = best = None  # field, labeling and path of the first and the least leaf
    # one entry per node on the path: its cells, the index of its target cell,
    # its individualized vertices, the target's vertices not yet tried, the
    # child now searched, and the pruning mask with the count of `found` it covers
    stack: list[list] = []
    cells, t, prefix = _refine_degrees(adj, [row.bit_count() for row in adj]), 0, 0
    while True:
        for t in range(t, len(cells)):  # cells[:t] are singletons, which never split
            target = cells[t]
            if target & (target - 1):
                stack.append([cells, t, prefix, target, -1, -1, full])
                break
        else:  # a leaf; by default its parent goes on
            back = len(stack) - 1
            perm = [c.bit_length() - 1 for c in cells]
            path = [node[4] for node in stack]
            if first is None:
                first = best = _leaf_field(adj, perm), perm, path
            else:
                for ref in (first, best) if best is not first else (first,):
                    gamma, moves = _automorphism_between(adj, ref[1], perm)
                    if gamma:
                        keep = full ^ moves
                        for v in bits(moves):  # the least vertex of each cycle
                            u = gamma[v]
                            while u > v:
                                u = gamma[u]
                            keep |= (u == v) << v
                        found.append((gamma, full ^ moves, keep))
                        back = next(i for i, v in enumerate(ref[2]) if v != path[i])
                        break
                else:
                    field = _leaf_field(adj, perm)
                    if field < best[0]:
                        best = field, perm, path
            del stack[back + 1:]
        while stack:  # the next child of the deepest node with one left
            node = stack[-1]
            cells, t, prefix, untried, _, checked, allowed = node
            target = cells[t]
            while untried:
                w = (untried & -untried).bit_length() - 1
                untried ^= 1 << w
                if target & ((1 << w) - 1):  # the least vertex is never skipped
                    if checked != len(found):
                        checked, allowed = len(found), full
                        for _, fixed, keep in found:
                            if not prefix & ~fixed:
                                allowed &= keep
                    if not allowed >> w & 1:
                        continue
                break
            else:
                stack.pop()
                continue
            node[3:] = untried, w, checked, allowed
            bit = 1 << w
            cells = cells[:t] + _refine(adj, [bit, target ^ bit] + cells[t + 1:], [bit])
            t, prefix = t + 1, prefix | bit
            break
        else:
            return best[0], best[1], [gamma for gamma, _, _ in found]


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of ``g``, each a map
    ``sigma[v]``; none when the identity is the only automorphism."""
    return _canonical_search(g.n, g.adj)[2]


def canonical_form(g: Graph) -> str:
    """Labeling-invariant key: the graph6 text of a canonical relabeling.

    Equal outputs hold exactly for isomorphic graphs.
    """
    return _pack_g6(g.n, _canonical_search(g.n, g.adj)[0])
