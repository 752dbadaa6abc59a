"""Census enumeration of small connected graphs, bound sweeps over graph
populations, extremal search, and the attachment-invariance property suite.

Enumeration generates one representative per isomorphism class by canonical
augmentation (B. D. McKay, Isomorph-free exhaustive generation, J.
Algorithms 26, 1998).  Every connected graph on n vertices is a connected
graph on n-1 vertices (delete a non-cut vertex) plus a new vertex x joined to
a nonempty attachment set.  The canonical deletion is a non-cut vertex of
maximal refined color (degree first).  A parent is augmented with one
attachment set per orbit of its automorphism group, and a child is kept only
if x is the canonical deletion: at once when x is the only non-cut vertex of
its color, through a per-level set of canonical forms when it ties with
others.  Each class is then reached from exactly one parent and one orbit,
so no global set of seen graphs is kept.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from multiprocessing import Pool

from .graph_core import (
    Graph,
    _components_within,
    _refined_colors,
    automorphisms,
    canonical_form,
    decode_g6,
    encode_g6,
    is_connected,
    mask_of,
    ATTACH_KINDS,
    attach_gadget,
)
from .patterns import (
    ANY_CYCLE,
    DIAMOND,
    K2,
    P3,
    PatternFamily,
    complete_graph,
    cycle_graph,
    diamond_graph,
    path_graph,
    y_graph,
)
from .solver import iota_exact, is_isolating

MAX_BUILTIN_ORDER = 9
_BRUTE_RECHECK_ORDER = 10  # exceptions up to this order re-checked by subsets
_CACHED_LEVELS = 8  # orders above this are streamed, not cached

# adjacency rows of each cached order, as bytes: a row of order <= 8 fits in
# one byte, which takes a third of the memory of a tuple
_levels: list[list[bytes]] = [[bytes(1)]]


def _orbit_least_masks(k: int, group) -> list[int]:
    """Nonempty vertex masks over ``0..k-1`` that are the least in their orbit
    under ``group`` (a list of permutations closed under composition)."""
    masks = list(range(1, 1 << k))
    for sigma in group[1:]:  # group[0] is the identity
        image = [0]
        for v in range(k):
            bit = 1 << sigma[v]
            image += [m | bit for m in image]
        masks = [m for m in masks if image[m] >= m]
    return masks


def _level(parents):
    """Rows of the accepted children of every parent: the new vertex joined
    to the least attachment set of each Aut(parent) orbit, kept if it is the
    canonical deletion.  Ties are settled across the whole level."""
    tie_keys: set[bytes] = set()
    for parent in parents:
        k = len(parent)
        # v is a cut vertex of a child iff some component of parent - v
        # misses the attachment set
        splits = [_components_within(parent, ((1 << k) - 1) ^ (1 << v))
                  for v in range(k)]
        group = automorphisms(Graph._trusted(k, tuple(parent)))
        for attach in _orbit_least_masks(k, group):
            rows = [row | (attach >> v & 1) << k for v, row in enumerate(parent)]
            rows.append(attach)
            if _is_canonical_deletion(rows, splits, tie_keys):
                yield tuple(rows)


def _is_canonical_deletion(rows: list[int], splits, tie_keys: set[bytes]) -> bool:
    """Whether the last vertex x of a child has maximal refined color among
    its non-cut vertices, and, when other non-cut vertices share that color,
    whether the child's canonical form is new to ``tie_keys``."""
    x = len(rows) - 1
    degree = rows[x].bit_count()
    rivals = []  # the other non-cut vertices of x's degree
    for v in range(x):
        dv = rows[v].bit_count()
        if dv >= degree and all(comp & rows[x] for comp in splits[v]):
            if dv > degree:  # refined colors order vertices by degree first
                return False
            rivals.append(v)
    if not rivals:
        return True
    colors = _refined_colors(len(rows), rows)
    if any(colors[v] > colors[x] for v in rivals):
        return False
    if all(colors[v] < colors[x] for v in rivals):
        return True
    key = canonical_form(Graph._trusted(len(rows), tuple(rows)))
    if key in tie_keys:
        return False
    tie_keys.add(key)
    return True


def _ensure_level(n: int) -> None:
    while len(_levels) < n:
        _levels.append([bytes(rows) for rows in _level(_levels[-1])])


def enumerate_connected(n: int):
    """Yield one representative per isomorphism class of connected graphs on
    ``n`` vertices, in a deterministic order.

    Each class is generated once by canonical augmentation (McKay, J.
    Algorithms 26, 1998) from the order ``n - 1`` census: a class is reached
    from the parent left by deleting its canonical non-cut vertex, through
    one attachment set per parent automorphism orbit.  Orders up to 8 are
    cached after the first call; ``n = 9`` streams its 261,080 classes in
    about 40 s on a 2-core VM.
    """
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(f"built-in enumeration covers 1..{MAX_BUILTIN_ORDER}")
    if n <= _CACHED_LEVELS:
        _ensure_level(n)
        rows_of_level = _levels[n - 1]
    else:
        _ensure_level(_CACHED_LEVELS)
        rows_of_level = _level(_levels[_CACHED_LEVELS - 1])
    for rows in rows_of_level:
        yield Graph._trusted(n, tuple(rows))


# --- bound sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class BoundSpec:
    """A claimed bound iota(G, family) <= floor(p*n/q) for connected graphs of
    order at least ``min_n``, with the published exceptional graphs listed by
    canonical form."""

    family: PatternFamily
    numerator: int
    denominator: int
    known_exceptions: tuple[bytes, ...] = ()
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
    elapsed: float = 0.0

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
            "elapsed": round(self.elapsed, 3),
        }


def _iota_value(family: PatternFamily, g: Graph) -> int:
    return iota_exact(g, family).value


def _solved_stream(graphs, family: PatternFamily, workers: int, block: int = 2048):
    solve = partial(_iota_value, family)
    if workers <= 1:
        for g in graphs:
            yield g, solve(g)
        return
    # bounded batches keep memory flat on large streams while preserving the
    # input order of results
    with Pool(workers) as pool:
        batch: list[Graph] = []

        def flush():
            values = pool.map(solve, batch, chunksize=64)
            yield from zip(batch, values)

        for g in graphs:
            batch.append(g)
            if len(batch) >= block:
                yield from flush()
                batch = []
        if batch:
            yield from flush()


def verify_bound(graphs, spec: BoundSpec, workers: int = 1,
                 extremal_cap: int = 100, record_sink=None) -> BoundReport:
    """Solve every connected graph in the stream and test it against the
    bound.

    Disconnected or below-minimum-order inputs are skipped and counted.  Each
    record passed to ``record_sink`` (in input order) is a dict with keys
    g6, n, iota, bound, raw_bound, status (ok | extremal | exception).
    Every exception is re-checked from its graph6 serialization before the
    report is returned, by subset enumeration up to order 10.
    """
    start = time.perf_counter()
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
        if value > bound:
            status = "exception"
        elif spec.attains(n, value):
            status = "extremal"
        else:
            status = "ok"
        g6 = encode_g6(g)
        if status == "exception":
            report.exceptions.append(Finding(g6, n, value, bound))
        elif status == "extremal":
            report.extremal_total += 1
            if len(report.extremal) < extremal_cap:
                report.extremal.append(Finding(g6, n, value, bound))
        if record_sink is not None:
            record_sink({"g6": g6, "n": n, "iota": value, "bound": bound,
                         "raw_bound": spec.raw_bound(n), "status": status})
    for f in report.exceptions:
        if not _confirms(decode_g6(f.g6), spec.family, f.iota):
            raise AssertionError(
                f"exception {f.g6} did not re-verify as iota = {f.iota}")
    report.elapsed = time.perf_counter() - start
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


def exception_classes(report: BoundReport) -> set[bytes]:
    """Canonical forms of the exception graphs in a report."""
    return {canonical_form(decode_g6(f.g6)) for f in report.exceptions}


def default_known_exceptions(family: PatternFamily, numerator: int,
                             denominator: int) -> tuple[bytes, ...]:
    """Published exceptional graphs for the classical bounds this tool can
    reproduce; empty for anything unrecognized."""
    ratio = (numerator, denominator)
    if family == DIAMOND and ratio == (1, 5):
        return (canonical_form(diamond_graph()),
                canonical_form(complete_graph(4)),
                canonical_form(y_graph()))
    if family == K2 and ratio == (1, 3):
        return (canonical_form(cycle_graph(5)),)
    if family.kind == "clique" and ratio == (1, family.k + 1):
        return (canonical_form(complete_graph(family.k)),)
    if family == ANY_CYCLE and ratio == (1, 4):
        return (canonical_form(complete_graph(3)),)
    if family == P3 and ratio == (2, 7):
        return (canonical_form(path_graph(3)),
                canonical_form(complete_graph(3)),
                canonical_form(cycle_graph(6)))
    return ()


# --- attachment invariance (property suite) --------------------------------


def random_connected_graph(rng: random.Random, n: int,
                           extra_edge_prob: float | None = None) -> Graph:
    """Random connected graph: a random spanning tree plus independent extra
    edges (default probability drawn from [0.1, 0.6])."""
    if n < 1:
        raise ValueError("graph order must be positive")
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


@dataclass(frozen=True)
class AttachViolation:
    g6: str
    vertex: int
    kind: str
    before: int
    after: int


@dataclass
class AttachReport:
    samples: int
    by_kind: dict[str, int]
    violations: list[AttachViolation]

    @property
    def passed(self) -> bool:
        return not self.violations


def attachment_invariance_suite(samples: int = 500, max_n: int = 12,
                                seed: int = 0) -> AttachReport:
    """Check on random (graph, vertex, kind) triples that attaching a pendant
    edge, a triangle, or a bridged triangle never changes the exact diamond
    isolation number."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    rng = random.Random(seed)
    by_kind = {kind: 0 for kind in ATTACH_KINDS}
    violations: list[AttachViolation] = []
    for i in range(samples):
        n = rng.randrange(3, max_n + 1)
        g = random_connected_graph(rng, n)
        v = rng.randrange(n)
        kind = ATTACH_KINDS[i % len(ATTACH_KINDS)]
        by_kind[kind] += 1
        before = iota_exact(g, DIAMOND).value
        after = iota_exact(attach_gadget(g, v, kind), DIAMOND).value
        if before != after:
            violations.append(AttachViolation(encode_g6(g), v, kind, before, after))
    return AttachReport(samples, by_kind, violations)
