"""Certified construction of diamond-isolating sets of size at most n//5.

For any connected graph other than the three exceptional ones (the diamond,
K4 and the 9-vertex graph Y), a diamond-isolating set of size at most
floor(n/5) exists.  The construction here follows the inductive shape of that
guarantee: small orders are solved exactly, larger orders pick a pivot
vertex, delete its closed neighborhood and recurse on the residual
components, with the three exceptional graphs charged one (diamond, K4) or
two (Y) vertices when they appear as components.  The recursion works on
vertex masks of the input graph, so pivots and trace steps are in its labels
without relabeling; a component is copied out only for a canonical form or
an exact solve of at most 9 vertices.

Rather than transliterating every structural subcase, the pivot is drawn
from a candidate list (every vertex, breadth-first from an anchor vertex),
and a candidate is accepted only when the composed set certifies: it must
isolate the whole graph and meet the floor(n/5) budget.  Every accepted step
is recorded in a trace.  The fallback candidates are required, not a safety
margin: the connected 14-vertex graph ``M`Mo?CB_o??@?BOB?`` (isolation
number 2 = floor(14/5)) certifies only through a fallback pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress

from .graph_core import (
    Graph,
    _closure,
    _components_within,
    _select,
    bits,
    canonical_form,
    encode_g6,
    induced_subgraph,
    is_connected,
    mask_of,
)
from .patterns import DIAMOND, contains_pattern, y_graph
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
    """No isolating set certified within budget: an implementation bug or a
    counterexample to the bound.  Carries the input graph's graph6 string."""

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
def _y_key() -> str:
    return canonical_form(y_graph())


def _exceptional_kind(g: Graph, keep: int) -> str | None:
    """Classify the subgraph of ``g`` induced on ``keep`` up to isomorphism:
    "small" for the diamond or K4, "y" for Y, None otherwise.  Order 4 with
    at least 5 edges is the diamond or K4; only a 4-regular 9-vertex set
    reaches the canonical form."""
    if keep.bit_count() not in (4, 9):
        return None
    degs = [(g.adj[v] & keep).bit_count() for v in bits(keep)]
    if len(degs) == 4:
        return "small" if sum(degs) >= 10 else None
    if set(degs) == {4} and canonical_form(induced_subgraph(g, keep)[0]) == _y_key():
        return "y"
    return None


def is_exceptional(g: Graph) -> bool:
    """True iff ``g`` is isomorphic to the diamond, K4 or Y."""
    return _exceptional_kind(g, g.full_mask) is not None


def _pivot_candidates(g: Graph, keep: int):
    """Pivot candidates in the connected mask ``keep``: the breadth-first
    layers from the anchor, least first within a layer, named by distance
    ("anchor" 0, "neighbor" 1, "fallback" beyond).  The anchor has maximum
    degree or, when the maximum degree within ``keep`` is 3, is a degree-3
    vertex whose closed neighborhood induces a diamond; degrees and
    distances are taken within ``keep``.  That degree-3 rule causes every
    known ``cut:fallback`` step, and stays because it gives smaller sets:
    on 3,214 graphs of maximum degree 3, smaller on 136 and larger on 2."""
    adj = g.adj
    pick = _select(keep)
    degs = list(map(int.bit_count, map(keep.__and__, compress(adj, pick))))
    delta = max(degs)
    verts = list(compress(range(g.n), pick))
    anchor = verts[degs.index(delta)]
    if delta == 3:
        for v, d in zip(verts, degs):
            if d != 3:
                continue
            near = adj[v] & keep
            if sum((adj[u] & near).bit_count() for u in bits(near)) // 2 == 2:
                anchor = v
                break

    seen = layer = 1 << anchor
    distance = 0
    while layer:  # keep is connected: the layers reach all of it
        rule = ("anchor", "neighbor", "fallback")[min(distance, 2)]
        for v in bits(layer):
            yield v, rule
        layer = _closure(adj, layer) & keep & ~seen
        seen |= layer
        distance += 1


def _solve(g: Graph, keep: int, depth: int) -> tuple[int, list[TraceStep]] | None:
    """Isolating set for the connected subgraph of ``g`` induced on ``keep``,
    plus trace, both in the labels of ``g``; None if no candidate certifies.

    Exceptional graphs are allowed here (they occur as residual components)
    and charged their exact cost; the budget is enforced at each cut and at
    the top level.
    """
    if not contains_pattern(g, DIAMOND, keep):
        return 0, [TraceStep("diamond-free", depth, (), keep, ())]

    n = keep.bit_count()
    kind = _exceptional_kind(g, keep)
    if kind == "small":
        pivot = (keep & -keep).bit_length() - 1
        return 1 << pivot, [TraceStep("exceptional-component", depth,
                                      (pivot,), keep, ())]
    if n <= 9:  # Y (charged two) or a small order solved exactly
        sub, old = induced_subgraph(g, keep)
        res = iota_exact(sub, DIAMOND)
        pivots = mask_of(old[v] for v in bits(res.witness))
        case = "exceptional-component" if kind else "small-order-exact"
        return pivots, [TraceStep(case, depth, tuple(bits(pivots)), keep, ())]

    limit = budget(n)
    for pivot, rule in _pivot_candidates(g, keep):
        region = 1 << pivot | g.adj[pivot] & keep
        chosen = 1 << pivot
        substeps: list[TraceStep] = []
        suborders: list[int] = []
        for comp in _components_within(g.adj, keep & ~region):
            solved = _solve(g, comp, depth + 1)
            if solved is None:
                break
            chosen |= solved[0]
            substeps.extend(solved[1])
            suborders.append(comp.bit_count())
            if chosen.bit_count() > limit:
                break
        else:
            head = TraceStep(f"cut:{rule}", depth, (pivot,), region,
                             tuple(suborders))
            return chosen, [head] + substeps
    return None


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
    solved = _solve(g, g.full_mask, 0)
    if (solved is None or solved[0].bit_count() > budget(g.n)
            or not is_isolating(g, DIAMOND, solved[0])):
        raise BudgetCertificationError(
            "no isolating set certified within budget", encode_g6(g))
    chosen, steps = solved
    return chosen, CaseTrace(steps)
