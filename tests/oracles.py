"""Independent test oracles.

``naive_iota`` certifies isolation numbers by trying every vertex subset in
increasing size order; ``count_connected_classes`` counts isomorphism classes
of connected graphs by exhaustive labeled enumeration with a permutation
isomorphism check; ``count_automorphisms`` tries every vertex permutation,
and ``group_order`` closes a set of permutations under composition;
``minimal_family`` is the plain-list definition of the inclusion-minimal
sets, ``list_greedy`` that of the solver's greedy, and ``reference_hitting``
is the plain branch and bound built on them, with a model of the solver's
engine as an option;
``contains_brute`` decides containment inside a vertex mask by trying
injections of the pattern (a union-find
forest for any-cycle), ``copies_brute`` collects the supports of all
such injections and ``closures_brute`` their closed neighborhoods, all
without the ``patterns`` module, ``induced_subgraph`` or the library's
closed-neighborhood routine.
``decode_g6_reference`` is the plain graph6 reader: one step per
upper-triangle bit, with the same checks, messages and offsets as the
library's column-wise ``decode_g6``.
None of them touches the hitting-set solver, the census augmentation, or the
canonical-form search.
``networkx_graph`` hands a graph to networkx, an optional oracle that tests
skip when it is missing.
"""

from itertools import combinations, permutations, product

from isolation import (
    Graph,
    Graph6Error,
    closed_neighborhood,
    contains_pattern,
    induced_subgraph,
    mask_of,
)


def naive_iota(g, family):
    """Smallest k such that some k-subset isolates the family, by brute force."""
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            left = g.full_mask & ~closed_neighborhood(g, mask_of(combo))
            residual, _ = induced_subgraph(g, left)
            if not contains_pattern(residual, family):
                return k
    raise AssertionError("the full vertex set always isolates")


def _edge_sets_connected(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == n:
            yield frozenset(edges), adj


def _vertex_signature(n, adj):
    return tuple(sorted((len(adj[v]), tuple(sorted(len(adj[u]) for u in adj[v])))
                        for v in range(n)))


def _isomorphic_brute(n, e1, adj1, e2, adj2):
    if len(e1) != len(e2):
        return False
    sig = lambda adj, v: (len(adj[v]), tuple(sorted(len(adj[u]) for u in adj[v])))
    groups1 = {}
    groups2 = {}
    for v in range(n):
        groups1.setdefault(sig(adj1, v), []).append(v)
        groups2.setdefault(sig(adj2, v), []).append(v)
    if set(groups1) != set(groups2):
        return False
    if any(len(groups1[k]) != len(groups2[k]) for k in groups1):
        return False
    keys = sorted(groups1)
    e2set = {frozenset(e) for e in e2}
    for perm_parts in product(*(permutations(groups2[k]) for k in keys)):
        mapping = {}
        for k, part in zip(keys, perm_parts):
            for src, dst in zip(groups1[k], part):
                mapping[src] = dst
        if all(frozenset((mapping[u], mapping[v])) in e2set for u, v in e1):
            return True
    return False


def count_connected_classes(n):
    """Isomorphism classes of connected graphs on n labeled vertices, counted
    without canonical forms (bucket by degree data, brute-force within)."""
    if n == 1:
        return 1
    buckets = {}
    count = 0
    for edges, adj in _edge_sets_connected(n):
        tri = sum(1 for a, b, c in combinations(range(n), 3)
                  if b in adj[a] and c in adj[a] and c in adj[b])
        key = (_vertex_signature(n, adj), len(edges), tri)
        bucket = buckets.setdefault(key, [])
        for rep_edges, rep_adj in bucket:
            if _isomorphic_brute(n, edges, adj, rep_edges, rep_adj):
                break
        else:
            bucket.append((edges, adj))
            count += 1
    return count


def disjoint_union(graphs):
    """One graph holding the given graphs side by side, relabeled."""
    offset = 0
    edges = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph.from_edges(offset, edges)


def count_automorphisms(g):
    """Number of vertex permutations that map the edge set onto itself, by
    trying all n! of them."""
    edges = set(g.edges())
    return sum(1 for p in permutations(range(g.n))
               if all((min(p[u], p[v]), max(p[u], p[v])) in edges
                      for u, v in edges))


def group_order(gens, n):
    """Order of the group of permutations of ``0..n-1`` generated by
    ``gens``, by closing the identity under composition with each generator
    (in a finite group every inverse is a positive power)."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for p in frontier:
            for sigma in gens:
                q = tuple([sigma[v] for v in p])
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    return len(seen)


def minimal_family(sets):
    """The inclusion-minimal members of ``sets``, each once, ordered by
    (size, mask): a set is kept when no other member is a proper subset."""
    unique = set(sets)
    minimal = [s for s in unique if not any(m != s and m & s == m for m in unique)]
    return sorted(minimal, key=lambda s: (s.bit_count(), s))


def list_greedy(sets, n):
    """Greedy hitting set over a list of vertex masks, every entry counted
    (duplicates too): take the vertex lying in the most masks not yet hit,
    ties to the least index, until every mask is hit."""
    chosen = 0
    left = list(sets)
    while left:
        hits = [sum(1 for s in left if s >> v & 1) for v in range(n)]
        v = hits.index(max(hits))
        chosen |= 1 << v
        left = [s for s in left if not s >> v & 1]
    return chosen


def reference_hitting(sets, n, lower=0, settle_root=False):
    """Minimum hitting set of the vertex masks ``sets`` by a plain branch and
    bound over lists: the inclusion-minimal sets, ``list_greedy`` as the
    first incumbent, a disjoint packing as the only lower bound, branching on
    the set with the fewest selectable vertices (ties to the least mask) and
    on its vertices by decreasing hit count (ties to the least index), each
    tried vertex banned in its later siblings.  A hitting set of size
    ``lower`` ends the search.  Returns (size, witness mask, nodes).

    With ``settle_root``, the search models the solver's engine: it runs on
    all the distinct sets in (size, mask) order, from ``list_greedy`` over
    them, and ends at the root bound, the largest of ``lower``, a disjoint
    packing over the sets in that order and ceil(count / most sets one
    vertex lies in).  A greedy that meets ``lower`` is returned with no
    node, one that meets the root bound with one node."""
    stop = lower
    if settle_root:
        family = sorted(set(sets), key=lambda s: (s.bit_count(), s))
        best = list_greedy(family, n)
        size = best.bit_count()
        if size <= lower:
            return size, best, 0
        packed = []
        for s in family:
            if all(not s & p for p in packed):
                packed.append(s)
        most = max(sum(1 for s in family if s >> v & 1) for v in range(n))
        stop = max(lower, len(packed), -(-len(family) // most))
        if size <= stop:
            return size, best, 1
    else:
        family = minimal_family(sets)
        if not family:
            return 0, 0, 0
        best = list_greedy(family, n)
    state = {"best": best, "size": best.bit_count(), "nodes": 0}

    def rec(chosen, size, left, banned):
        state["nodes"] += 1
        if not left:
            if size < state["size"]:
                state.update(best=chosen, size=size)
            return
        packing = used = 0
        for s in left:
            eff = s & ~banned
            if not eff:
                return
            if not eff & used:
                packing += 1
                used |= eff
        if size + packing >= state["size"]:
            return
        pick = min(left, key=lambda s: ((s & ~banned).bit_count(), s))
        hits = {v: sum(1 for s in left if s >> v & 1)
                for v in range(n) if pick >> v & 1 and not banned >> v & 1}
        for v in sorted(hits, key=lambda v: (-hits[v], v)):
            rec(chosen | 1 << v, size + 1, [s for s in left if not s >> v & 1],
                banned)
            if state["size"] <= stop:
                return
            banned |= 1 << v

    if state["size"] > stop:
        rec(0, 0, family, 0)
    return state["size"], state["best"], state["nodes"]


def _pattern_edges(family):
    """Order and edge list of the one member of a finite ``family``."""
    kind, k = family.kind, family.k
    if kind == "star":
        return k + 2, [(0, i) for i in range(1, k + 2)]
    if kind == "book":
        return k + 2, [(0, 1)] + [(e, i) for i in range(2, k + 2)
                                  for e in (0, 1)]
    if kind == "clique":
        return k, list(combinations(range(k), 2))
    if kind == "custom":
        return family.pattern.n, list(family.pattern.edges())
    raise ValueError(f"no fixed pattern for {kind!r}")


def contains_brute(adj, within, family):
    """Whether the graph with rows ``adj``, restricted to the vertex mask
    ``within``, contains a member of ``family``: for any-cycle, whether some
    edge inside ``within`` joins two vertices a union-find forest of the
    earlier edges already connects; otherwise whether some injection of the
    pattern's vertices into ``within`` maps every pattern edge onto an edge."""
    verts = [v for v in range(len(adj)) if within >> v & 1]
    if family.kind == "anycycle":
        parent = {v: v for v in verts}

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for u, v in combinations(verts, 2):
            if adj[u] >> v & 1:
                ru, rv = root(u), root(v)
                if ru == rv:
                    return True
                parent[ru] = rv
        return False
    return next(_injected_supports(adj, verts, family), 0) != 0


def copies_brute(adj, within, family):
    """Vertex supports of every injection of the pattern of the finite
    ``family`` into the vertex mask ``within`` of the graph with rows
    ``adj`` that maps every pattern edge onto an edge, as a set."""
    verts = [v for v in range(len(adj)) if within >> v & 1]
    return set(_injected_supports(adj, verts, family))


def closures_brute(adj, family):
    """The closed neighborhoods N[c] of the supports c of ``copies_brute``
    over every vertex, each c together with the rows of its members, read
    one bit at a time, sorted and without repeats."""
    out = set()
    for c in copies_brute(adj, (1 << len(adj)) - 1, family):
        closure = c
        for v in range(len(adj)):
            if c >> v & 1:
                closure |= adj[v]
        out.add(closure)
    return sorted(out)


def _injected_supports(adj, verts, family):
    order, edges = _pattern_edges(family)
    for image in permutations(verts, order):
        if all(adj[image[a]] >> image[b] & 1 for a, b in edges):
            yield sum(1 << v for v in image)


def decode_g6_reference(text):
    """Adjacency rows of one graph6 line, read bit by bit in the order
    x(0,1), x(0,2), x(1,2), x(0,3), ...; raises ``Graph6Error`` exactly where
    ``decode_g6`` does, with the same message and offset."""
    header = ">>graph6<<"
    s = text.strip()
    base = text.find(s) if s else 0
    if s.startswith(header):
        s = s[len(header):]
        base += len(header)
    if not s:
        raise Graph6Error("empty graph6 string", base)

    def val(i):
        c = ord(s[i])
        if not 63 <= c <= 126:
            raise Graph6Error(f"invalid graph6 character {s[i]!r}", base + i)
        return c - 63

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
    if n > 1024:
        raise Graph6Error(f"graph order {n} exceeds 1024", base)
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(s) - idx < need:
        raise Graph6Error("truncated graph6 adjacency bits", base + len(s))
    if len(s) - idx > need:
        raise Graph6Error("trailing characters after graph6 data", base + idx + need)
    rows = [0] * n
    row, col = 0, 1
    for i in range(need):
        group = val(idx + i)
        for b in range(5, -1, -1):
            if col >= n:
                if group >> b & 1:
                    raise Graph6Error("nonzero padding bits", base + idx + i)
                continue
            if group >> b & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            row += 1
            if row == col:
                row, col = 0, col + 1
    return tuple(rows)


def networkx_graph(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h
