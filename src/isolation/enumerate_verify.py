"""Census enumeration of small connected graphs, bound sweeps over graph
populations, extremal search, and the attachment-invariance property suite.

Enumeration generates one representative per isomorphism class by vertex
augmentation: every connected graph on n vertices arises from a connected
graph on n-1 vertices (delete a non-cut vertex) plus a new vertex joined to a
nonempty attachment set, so augmenting all parents with all nonempty subsets
and deduplicating by canonical form is exhaustive.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import Pool

from .graph_core import (
    Graph,
    canonical_form,
    decode_g6,
    encode_g6,
    is_connected,
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
from .solver import iota_exact

MAX_BUILTIN_ORDER = 9
_CACHED_LEVELS = 8  # orders above this are streamed, not cached

_levels: list[list[tuple[int, ...]]] = [[(0,)]]


def _augment(parent: tuple[int, ...], attach: int) -> tuple[int, ...]:
    k = len(parent)
    rows = [row | ((attach >> v & 1) << k) for v, row in enumerate(parent)]
    rows.append(attach)
    return tuple(rows)


def _augmented(parents, n: int):
    """Distinct graphs on ``n`` vertices, by canonical form, from joining a
    new vertex to every nonempty subset of each parent's vertices."""
    seen: set[bytes] = set()
    for parent in parents:
        for attach in range(1, 1 << (n - 1)):
            g = Graph(n, _augment(parent, attach))
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                yield g


def _ensure_level(n: int) -> None:
    while len(_levels) < n:
        level = _augmented(_levels[-1], len(_levels) + 1)
        _levels.append([g.adj for g in level])


def enumerate_connected(n: int):
    """Yield one representative per isomorphism class of connected graphs on
    ``n`` vertices, in a deterministic order.

    Orders up to 8 are cached after the first call; ``n = 9`` streams its
    roughly 261k classes and takes appreciably longer.
    """
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(f"built-in enumeration covers 1..{MAX_BUILTIN_ORDER}")
    if n <= _CACHED_LEVELS:
        _ensure_level(n)
        for rows in _levels[n - 1]:
            yield Graph(n, rows)
        return
    _ensure_level(_CACHED_LEVELS)
    yield from _augmented(_levels[_CACHED_LEVELS - 1], n)


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
    Every exception is re-solved from its graph6 serialization before the
    report is returned.
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
        again = iota_exact(decode_g6(f.g6), spec.family).value
        if again != f.iota:
            raise AssertionError(
                f"exception {f.g6} did not re-verify: {again} != {f.iota}")
    report.elapsed = time.perf_counter() - start
    return report


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
