"""Exact F-isolation numbers of small graphs, certified n/5 diamond-isolating
sets, and exhaustive verification of the classical isolation bounds."""

from .graph_core import (
    Graph,
    Graph6Error,
    automorphisms,
    bits,
    canonical_form,
    closed_neighborhood,
    components,
    decode_g6,
    encode_g6,
    induced_subgraph,
    is_connected,
    mask_of,
)
from .patterns import (
    ANY_CYCLE,
    DIAMOND,
    K1,
    K2,
    P3,
    PatternFamily,
    UnsupportedFamilyError,
    book,
    book_graph,
    circulant_graph,
    clique,
    complete_bipartite_graph,
    complete_graph,
    contains_pattern,
    custom,
    cycle_graph,
    diamond_graph,
    enumerate_copies,
    extremal_witness_15,
    make_named,
    parse_family,
    path_graph,
    star,
    y_graph,
)
from .solver import (
    SolveResult,
    copy_closures,
    gamma,
    iota_exact,
    is_isolating,
)
from .constructive import (
    BudgetCertificationError,
    CaseTrace,
    DisconnectedGraphError,
    ExceptionalGraphError,
    TraceStep,
    budget,
    is_exceptional,
    isolating_set_n5,
)
from .enumerate_verify import (
    BoundReport,
    BoundSpec,
    Finding,
    default_known_exceptions,
    enumerate_connected,
    random_connected_graph,
    verify_bound,
)

__version__ = "0.1.0"
