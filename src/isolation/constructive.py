"""Certified construction of diamond-isolating sets of size at most n//5.

For any connected graph other than the three exceptional ones (the diamond,
K4 and the 9-vertex graph Y), a diamond-isolating set of size at most
floor(n/5) exists.  The construction here follows the inductive shape of that
guarantee: small orders are solved exactly, larger orders pick a pivot
vertex, delete its closed neighborhood and recurse on the residual
components, with the three exceptional graphs charged one (diamond, K4) or
two (Y) vertices when they appear as components.

Rather than transliterating every structural subcase, the pivot is drawn
from a short candidate list (the maximum-degree anchor, its neighbors, and a
few boundary vertices of exceptional residual components), and a candidate
is accepted only when the composed set certifies: it must isolate the whole
graph and meet the floor(n/5) budget.  Every accepted step is recorded in a
trace.  The fallback candidates are required, not a safety margin: the
connected 14-vertex graph ``M`Mo?CB_o??@?BOB?`` (isolation number
2 = floor(14/5)) certifies only through a fallback pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .graph_core import (
    Graph,
    bits,
    canonical_form,
    closed_neighborhood,
    components,
    encode_g6,
    induced_subgraph,
    is_connected,
    mask_of,
)
from .patterns import (
    DIAMOND,
    complete_graph,
    contains_pattern,
    diamond_graph,
    residual_path_pivot,
    y_graph,
)
from .solver import iota_exact, is_isolating


def budget(n: int) -> int:
    """Guaranteed bound floor(n/5); the isolation number is an integer, so the
    real bound n/5 tightens to its floor."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return n // 5


class ExceptionalGraphError(ValueError):
    """The input is one of the three graphs excluded from the bound."""


class DisconnectedGraphError(ValueError):
    """The construction needs a connected input; split by components first."""


class BudgetCertificationError(RuntimeError):
    """No candidate pivot certified within budget: an implementation bug or a
    counterexample to the bound.  Carries the offending graph6 string."""

    def __init__(self, message: str, g6: str):
        super().__init__(f"{message} [{g6}]")
        self.g6 = g6


@dataclass(frozen=True)
class TraceStep:
    """One accepted step: the rule used, pivots chosen (original labels), the
    vertex region consumed, and the orders of the residual components."""

    case: str
    depth: int
    pivots: tuple[int, ...]
    removed: int
    suborders: tuple[int, ...]


@dataclass
class CaseTrace:
    steps: list[TraceStep]

    def pivot_union(self) -> int:
        return mask_of(v for step in self.steps for v in step.pivots)

    def to_dict(self) -> dict:
        return {
            "steps": [
                {
                    "case": s.case,
                    "depth": s.depth,
                    "pivots": list(s.pivots),
                    "removed": sorted(bits(s.removed)),
                    "suborders": list(s.suborders),
                }
                for s in self.steps
            ]
        }

    def to_text(self) -> str:
        lines = []
        for s in self.steps:
            removed = ",".join(str(v) for v in bits(s.removed))
            pivots = ",".join(str(v) for v in s.pivots) or "-"
            subs = ",".join(str(x) for x in s.suborders) or "-"
            lines.append(f"{'  ' * s.depth}{s.case}: pivots={pivots} "
                         f"removed={{{removed}}} suborders={subs}")
        return "\n".join(lines)


@cache
def _exceptional_keys() -> dict[bytes, str]:
    return {canonical_form(diamond_graph()): "small",
            canonical_form(complete_graph(4)): "small",
            canonical_form(y_graph()): "y"}


def _exceptional_kind(g: Graph) -> str | None:
    """Classify ``g`` up to isomorphism: "small" for the diamond or K4, "y"
    for Y, None otherwise.  Only graphs with the order and edge count of an
    exceptional graph reach the canonical form."""
    if (g.n, g.edge_count()) not in ((4, 5), (4, 6), (9, 18)):
        return None
    return _exceptional_keys().get(canonical_form(g))


def is_exceptional(g: Graph) -> bool:
    """True iff ``g`` is isomorphic to the diamond, K4 or Y."""
    return _exceptional_kind(g) is not None


def _pivot_candidates(g: Graph):
    """Pivot candidates in order: the anchor (a maximum-degree vertex, or for
    cubic graphs a degree-3 vertex whose closed neighborhood induces a
    diamond), its neighbors, then at most 7 fallback vertices around
    exceptional residual components.  The fallbacks are only worked out
    once the anchor and all its neighbors have been tried."""
    degs = [g.degree(v) for v in range(g.n)]
    delta = max(degs)
    anchor = -1
    if delta == 3:
        for v in range(g.n):
            if degs[v] != 3:
                continue
            inner = sum((g.adj[u] & g.adj[v]).bit_count()
                        for u in bits(g.adj[v])) // 2
            if inner == 2:
                anchor = v
                break
    if anchor < 0:
        anchor = degs.index(delta)

    yield anchor, "anchor"
    for u in bits(g.adj[anchor]):
        yield u, "neighbor"

    extras: list[int] = []
    region = closed_neighborhood(g, 1 << anchor)
    rest = g.full_mask & ~region
    if rest:
        rest_graph, rest_old = induced_subgraph(g, rest)
        ranked = []
        for comp in components(rest_graph):
            sub, sublocal = induced_subgraph(rest_graph, comp)
            orig = tuple(rest_old[v] for v in sublocal)
            kind = _exceptional_kind(sub)
            if kind == "small":
                rank = 0 if sub.edge_count() == 6 else 2
                if rank == 2:
                    # diamond component: degree-3 vertex on the boundary first
                    deg3_boundary = any(
                        sub.degree(i) == 3 and g.adj[orig[i]] & region
                        for i in range(sub.n))
                    rank = 2 if deg3_boundary else 3
            elif kind == "y":
                rank = 1
            else:
                continue
            ranked.append((rank, orig[0], sub, orig))
        for rank, _, sub, orig in sorted(ranked, key=lambda t: (t[0], t[1])):
            boundary = [i for i in range(sub.n) if g.adj[orig[i]] & region]
            if not boundary:
                continue
            x = boundary[0]
            extras.append(orig[x])
            extras.extend(orig[i] for i in bits(sub.adj[x]))
            if rank == 1:
                v = residual_path_pivot(sub, x)
                if v is not None:
                    extras.append(orig[v])
        # a distance-2 vertex from the anchor and one of its outside neighbors
        for v in bits(rest):
            if g.adj[v] & region:
                extras.append(v)
                outside = g.adj[v] & rest
                if outside:
                    extras.append((outside & -outside).bit_length() - 1)
                break

    fresh = [v for v in dict.fromkeys(extras) if not region >> v & 1]
    for v in fresh[:7]:
        yield v, "fallback"


def _solve(g: Graph, labels: tuple[int, ...], depth: int
           ) -> tuple[int, list[TraceStep]]:
    """Isolating set for a connected graph, in original labels, plus trace.

    Exceptional graphs are allowed here (they occur as residual components)
    and charged their exact cost; the budget is enforced at each cut and at
    the top level.
    """
    n = g.n
    full = g.full_mask

    def to_orig(mask: int) -> int:
        return mask_of(labels[v] for v in bits(mask))

    if not contains_pattern(g, DIAMOND):
        return 0, [TraceStep("diamond-free", depth, (), to_orig(full), ())]

    kind = _exceptional_kind(g)
    if kind == "small":
        pivot = labels[0]
        return 1 << pivot, [TraceStep("exceptional-component", depth,
                                      (pivot,), to_orig(full), ())]
    if kind == "y":
        res = iota_exact(g, DIAMOND)
        pivots = to_orig(res.witness)
        return pivots, [TraceStep("exceptional-component", depth,
                                  tuple(sorted(bits(pivots))),
                                  to_orig(full), ())]

    if n <= 9:
        res = iota_exact(g, DIAMOND)
        if res.value > budget(n):
            raise BudgetCertificationError(
                "small-order solve exceeded the budget", encode_g6(g))
        pivots = to_orig(res.witness)
        return pivots, [TraceStep("small-order-exact", depth,
                                  tuple(sorted(bits(pivots))),
                                  to_orig(full), ())]

    limit = budget(n)
    for pivot, rule in _pivot_candidates(g):
        region = closed_neighborhood(g, 1 << pivot)
        rest_graph, rest_old = induced_subgraph(g, full & ~region)
        chosen = 1 << labels[pivot]
        substeps: list[TraceStep] = []
        suborders: list[int] = []
        feasible = True
        for comp in components(rest_graph):
            sub, sublocal = induced_subgraph(rest_graph, comp)
            sublabels = tuple(labels[rest_old[v]] for v in sublocal)
            try:
                picked, steps = _solve(sub, sublabels, depth + 1)
            except BudgetCertificationError:
                feasible = False
                break
            chosen |= picked
            substeps.extend(steps)
            suborders.append(sub.n)
            if chosen.bit_count() > limit:
                feasible = False
                break
        if not feasible or chosen.bit_count() > limit:
            continue
        head = TraceStep(f"cut:{rule}", depth, (labels[pivot],),
                         to_orig(region), tuple(suborders))
        return chosen, [head] + substeps
    raise BudgetCertificationError(
        "no pivot candidate certified within budget", encode_g6(g))


def isolating_set_n5(g: Graph) -> tuple[int, CaseTrace]:
    """Diamond-isolating set of size at most floor(n/5) plus its trace.

    The input must be connected and not one of the three exceptional graphs.
    The result is certified: it is checked to isolate ``g`` and to meet the
    budget before being returned.
    """
    if not is_connected(g):
        raise DisconnectedGraphError(
            "input must be connected; apply per component")
    if is_exceptional(g):
        raise ExceptionalGraphError(
            "the diamond, K4 and Y are excluded from the n/5 bound")
    chosen, steps = _solve(g, tuple(range(g.n)), 0)
    if chosen.bit_count() > budget(g.n):
        raise BudgetCertificationError("result exceeded budget", encode_g6(g))
    if not is_isolating(g, DIAMOND, chosen):
        raise BudgetCertificationError("result failed isolation check",
                                       encode_g6(g))
    return chosen, CaseTrace(steps)
