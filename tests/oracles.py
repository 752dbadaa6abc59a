"""Independent test oracles.

``naive_iota`` certifies isolation numbers by trying every vertex subset in
increasing size order; ``count_connected_classes`` counts isomorphism classes
of connected graphs by exhaustive labeled enumeration with a permutation
isomorphism check; ``count_automorphisms`` tries every vertex permutation;
``minimal_family`` and ``list_greedy`` are the plain-list definitions of the
solver's subset filter and greedy.  None of them touches the hitting-set
solver, the census augmentation, or the canonical-form search.
``networkx_graph`` hands a graph to networkx, an optional oracle that tests
skip when it is missing.
"""

from itertools import combinations, permutations, product

from isolation import Graph, contains_pattern, delete_closed_neighborhood, mask_of


def naive_iota(g, family):
    """Smallest k such that some k-subset isolates the family, by brute force."""
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            residual, _ = delete_closed_neighborhood(g, mask_of(combo))
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


def networkx_graph(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h
