"""The benchmark workloads: seeded inputs, the timed operation, and the
output check that follows it.

Each workload object is built in the set-up phase (its constructor generates
every input from the seed), then ``op(i)`` performs operation ``i`` and
returns what it produced, and ``check(i, out)`` returns an error message or
None.  ``op`` holds only the calls a user of the library or CLI would make;
``check`` runs outside the timed region and relies on ``oracles`` only.
Runs end on a multiple of ``round_ops`` operations, so every kind of
operation a workload mixes keeps its share of the samples.

Library functions are looked up on the package at call time
(``isolation.iota_exact``), so the tracer's wrappers see these calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import isolation
import isolation.cli

import oracles

HERE = Path(__file__).resolve().parent
EXPECTED_SOLVE = HERE / "expected_solve_seed0.json"

# Full sizes, and the tiny ones of --smoke.  Solve strata: (family, order,
# edge count or rewiring probability, pool size).
SIZES = {
    "full": {
        "census_max_n": 8,
        "sweep_graphs": 2000, "sweep_orders": (7, 11),
        "solve": {
            "dense": ("diamond", 44, 300, 200),
            "sparse": ("diamond", 80, 360, 600),
            "ring": ("anycycle", 26, 0.3, 400),
        },
        "construct_random": ((40, 120), (4, 8), 300), "construct_blocks": ((3, 12), 2000),
    },
    "smoke": {
        "census_max_n": 5,
        "sweep_graphs": 40, "sweep_orders": (5, 7),
        "solve": {
            "dense": ("diamond", 12, 30, 8),
            "sparse": ("diamond", 16, 24, 2),
            "ring": ("anycycle", 10, 0.2, 2),
        },
        "construct_random": ((12, 20), (3, 6), 4), "construct_blocks": ((2, 3), 4),
    },
}

# The published bounds the sweep checks: (family, ratio, extra CLI flags).
BOUNDS = (
    ("diamond", "1/5", ()),
    ("k2", "1/3", ("--min-n", "3")),
    ("p3", "2/7", ()),
    ("anycycle", "1/4", ()),
    ("k1", "1/2", ()),
)


def random_graph_nm(rng: random.Random, n: int, m: int) -> isolation.Graph:
    """Connected graph with exactly ``m`` edges: a random spanning tree plus
    uniformly chosen extra edges.  A fixed edge count keeps the copy count,
    and so the solve time, far steadier than independent edge coins."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph has {n} vertices and {m} edges")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return isolation.Graph.from_edges(n, sorted(edges))


def ring_lattice(rng: random.Random, n: int, beta: float) -> isolation.Graph:
    """Each vertex joined to the two nearest vertices on either side, then
    each edge rewired with probability ``beta`` to a random new endpoint
    (the Watts-Strogatz model)."""
    lattice = {(v, (v + d) % n) for v in range(n) for d in (1, 2)}
    lattice = {(min(e), max(e)) for e in lattice}
    edges = set()
    for u, v in sorted(lattice):
        if rng.random() < beta:
            while True:
                w = rng.randrange(n)
                e = (min(u, w), max(u, w))
                if w != u and e not in lattice and e not in edges:
                    break
            edges.add(e)
        else:
            edges.add((u, v))
    return isolation.Graph.from_edges(n, sorted(edges))


def block_composition(rng: random.Random, blocks: tuple[int, int]) -> isolation.Graph:
    """Diamond, K4 and Y blocks, each joined by one edge to a random
    connected core of 2..5 vertices (the shape of the 15-vertex extremal
    witness); these reach the exceptional-component and cut:neighbor rules."""
    core = isolation.random_connected_graph(rng, rng.randint(2, 5))
    kinds = (isolation.diamond_graph(), isolation.complete_graph(4),
             isolation.y_graph())
    edges = list(core.edges())
    n = core.n
    for _ in range(rng.randint(*blocks)):
        block = rng.choice(kinds)
        edges += [(u + n, v + n) for u, v in block.edges()]
        edges.append((rng.randrange(core.n), n + rng.randrange(block.n)))
        n += block.n
    return isolation.Graph.from_edges(n, edges)


class Census:
    """``enumerate_connected(n)`` for n = 1..8 from cold, one census per
    fresh process: the level cache lives only as long as the process."""

    name = "census"
    one_op_per_process = True
    round_ops = 1

    def __init__(self, seed: int, size: dict):
        self.max_n = size["census_max_n"]

    def op(self, i: int):
        return [sum(1 for _ in isolation.enumerate_connected(n))
                for n in range(1, self.max_n + 1)]

    def units(self, out) -> int:
        return sum(out)

    def check(self, i: int, out) -> str | None:
        want = list(oracles.CENSUS_COUNTS[:self.max_n])
        return None if out == want else f"census counts {out} != {want}"


class Sweep:
    """``isolation bound`` over a seeded graph6 stream, once per published
    bound, with stdin and stdout held in memory."""

    name = "sweep"
    one_op_per_process = False
    round_ops = len(BOUNDS)

    def __init__(self, seed: int, size: dict):
        rng = random.Random(seed)
        lo, hi = size["sweep_orders"]
        graphs = [isolation.random_connected_graph(rng, rng.randint(lo, hi))
                  for _ in range(size["sweep_graphs"])]
        self.count = len(graphs)
        self.text = "".join(isolation.encode_g6(g) + "\n" for g in graphs)

    def op(self, i: int):
        family, ratio, extra = BOUNDS[i % len(BOUNDS)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), _stdin(self.text):
            code = isolation.cli.main(["bound", "--family", family, "--ratio", ratio,
                                       *extra, "--allow-known", "--workers", "1"])
        return family, code, out.getvalue()

    def units(self, out) -> int:
        return self.count

    def check(self, i: int, out) -> str | None:
        family, code, text = out
        if code != 0:
            return f"{family}: exit code {code}"
        lines = text.splitlines()
        summary = json.loads(lines[-1])
        if summary.get("checked") != self.count or len(lines) - 1 != self.count:
            return (f"{family}: checked {summary.get('checked')} and "
                    f"{len(lines) - 1} records for {self.count} inputs")
        for g6 in summary["exceptions"]:
            if not oracles.is_known_exception(family, g6):
                return f"{family}: exception {g6} is not a known exceptional graph"
        return None


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def solve_pool(stratum: str, seed: int, size: dict):
    """Family and input graphs of one solve stratum.  Each stratum draws
    from its own generator, so its inputs do not depend on the others'."""
    family, n, shape, count = size["solve"][stratum]
    rng = random.Random(f"{stratum}-{seed}")
    make = ring_lattice if family == "anycycle" else random_graph_nm
    return isolation.parse_family(family), [make(rng, n, shape) for _ in range(count)]


class Solve:
    """Exact ``iota_exact`` solves over one stratum's pool of graphs, taken
    in order; each stratum is a workload of its own, so each solver path
    has its own gated figures."""

    one_op_per_process = False
    round_ops = 1
    stratum = ""

    def __init__(self, seed: int, size: dict):
        self.family, self.pool = solve_pool(self.stratum, seed, size)
        self.expected = None  # values are recorded for full-size seed 0 only
        if seed == 0 and size is SIZES["full"]:
            self.expected = json.loads(EXPECTED_SOLVE.read_text())[self.stratum]

    def op(self, i: int):
        return isolation.iota_exact(self.pool[i % len(self.pool)], self.family)

    def units(self, out) -> int:
        return 1

    def check(self, i: int, out) -> str | None:
        index = i % len(self.pool)
        g = self.pool[index]
        if out.witness.bit_count() != out.value:
            return f"graph {index}: witness size != value {out.value}"
        left = oracles.residual(g.adj, out.witness)
        ok = oracles.is_forest if self.stratum == "ring" else oracles.is_diamond_free
        if not ok(g.adj, left):
            return f"graph {index}: witness does not isolate"
        if self.expected is not None and self.expected[index] != out.value:
            return f"graph {index}: value {out.value} != recorded {self.expected[index]}"
        return None


class SolveDense(Solve):
    """Diamond on dense graphs: thousands of copies, so the copy reduction
    (``_minimal_sets``) is the bottleneck."""

    name = "solve_dense"
    stratum = "dense"


class SolveSparse(Solve):
    """Diamond on sparse graphs: a few hundred copies and many
    branch-and-bound nodes, so the search is the bottleneck."""

    name = "solve_sparse"
    stratum = "sparse"


class SolveRing(Solve):
    """Any-cycle on rewired ring lattices: the separate any-cycle search."""

    name = "solve_ring"
    stratum = "ring"


class Construct:
    """``isolating_set_n5`` on random connected graphs (average degree 4 to
    8) and block compositions, taken in turn.  There are many more
    compositions, which are cheap to make: a few of them are the slowest
    inputs, and a large pool keeps the tail from hanging on a handful."""

    name = "construct"
    one_op_per_process = False
    round_ops = 2

    def __init__(self, seed: int, size: dict):
        rng = random.Random(seed)
        orders, degrees, count = size["construct_random"]
        self.randoms = []
        for _ in range(count):
            n = rng.randint(*orders)
            self.randoms.append(random_graph_nm(rng, n, round(n * rng.uniform(*degrees) / 2)))
        blocks, count = size["construct_blocks"]
        self.composed = [block_composition(rng, blocks) for _ in range(count)]

    def graph(self, i: int) -> isolation.Graph:
        pool = self.composed if i % 2 else self.randoms
        return pool[i // 2 % len(pool)]

    def op(self, i: int):
        return isolation.isolating_set_n5(self.graph(i))

    def units(self, out) -> int:
        return 1

    def check(self, i: int, out) -> str | None:
        g = self.graph(i)
        s, _ = out
        if s.bit_count() > g.n // 5:
            return f"|S| = {s.bit_count()} > {g.n // 5} on {g.n} vertices"
        if not oracles.is_diamond_free(g.adj, oracles.residual(g.adj, s)):
            return "set does not isolate"
        return None


WORKLOADS = {w.name: w for w in (Census, Sweep, SolveDense, SolveSparse, SolveRing,
                                  Construct)}
