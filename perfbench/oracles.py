"""Output checks for the benchmark, independent of the code they check.

Nothing here imports the isolation package: graphs arrive as adjacency
bit rows (``adj[v]`` is the neighbour mask of ``v``) or graph6 text, and every
check is written from the definitions, so a defect in the library cannot
hide itself by also breaking its oracle.
"""

from __future__ import annotations

from itertools import permutations

# Connected classes on n = 1..8 vertices (OEIS A001349).
CENSUS_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


def _members(mask: int):
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


def residual(adj, s: int) -> int:
    """Vertex mask left after deleting the closed neighbourhood N[s]."""
    closed = s
    for v in _members(s):
        closed |= adj[v]
    return ((1 << len(adj)) - 1) & ~closed


def is_diamond_free(adj, keep: int) -> bool:
    """No edge inside ``keep`` has two common neighbours inside ``keep``.

    A diamond (K4 minus an edge) is exactly an edge plus two common
    neighbours of its ends.
    """
    for u in _members(keep):
        for v in _members(adj[u] & keep):
            if u < v and bin(adj[u] & adj[v] & keep).count("1") >= 2:
                return False
    return True


def is_forest(adj, keep: int) -> bool:
    """The subgraph induced on ``keep`` has no cycle (union-find on edges)."""
    parent = {v: v for v in _members(keep)}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u in parent:
        for v in _members(adj[u] & keep):
            if u < v:
                ru, rv = root(u), root(v)
                if ru == rv:
                    return False
                parent[ru] = rv
    return True


def decode_graph6(text: str) -> list[int]:
    """Adjacency rows of a graph6 string with order at most 62."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 order out of range in {text!r}")
    bitstream = []
    for ch in text[1:]:
        group = ord(ch) - 63
        bitstream.extend(group >> b & 1 for b in range(5, -1, -1))
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def isomorphic(a, b) -> bool:
    """Brute-force isomorphism test, pruned by degree; meant for n <= 9."""
    n = len(a)
    if n != len(b):
        return False
    deg_a = [bin(r).count("1") for r in a]
    deg_b = [bin(r).count("1") for r in b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    for perm in permutations(range(n)):
        if any(deg_a[v] != deg_b[perm[v]] for v in range(n)):
            continue
        if all((b[perm[u]] >> perm[v] & 1) == (a[u] >> v & 1)
               for u in range(n) for v in range(u + 1, n)):
            return True
    return False


def _cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# Published exceptional graphs of the swept bounds.  Y is the circulant
# C9(1, 2).
KNOWN_EXCEPTIONS = {
    "diamond": [from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
                _complete(4),
                from_edges(9, [(i, (i + d) % 9) for i in range(9) for d in (1, 2)])],
    "k2": [_cycle(5)],
    "p3": [from_edges(3, [(0, 1), (1, 2)]), _cycle(3), _cycle(6)],
    "anycycle": [_cycle(3)],
    "k1": [],
}


def is_known_exception(family: str, g6: str) -> bool:
    adj = decode_graph6(g6)
    return any(isomorphic(adj, known) for known in KNOWN_EXCEPTIONS[family])
