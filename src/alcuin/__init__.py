"""Exact Alcuin-number laboratory for small graphs.

The Alcuin number c(G) of a conflict graph G is the least boat capacity
that lets a ferryman move every item across a river without ever leaving
two conflicting items alone on a bank.  It always equals the vertex cover
number beta(G) or beta(G) + 1; this package decides which, constructs
explicit schedules, and cross-validates everything against a brute-force
state-space search.
"""

from .classify import (
    CLASS_ONE,
    CLASS_TWO,
    Classification,
    ConditionHolds,
    Degenerate,
    MultipleCovers,
    PairWitness,
    classification_condition,
    classify,
    classify_covers,
    exists_2x_witness,
)
from .cover import (
    CoverReport,
    alpha,
    hall_strict,
    is_vertex_cover,
    min_covers,
)
from .errors import BudgetExceededError
from .graph import (
    Graph,
    bits,
    cartesian_product,
    girth,
    is_bipartite,
    is_claw_free,
    is_independent,
    is_regular,
    mask_of,
    neighbors_in,
    vertices_of,
)
from .ferry import (
    Move,
    Schedule,
    StructureWitness,
    Violation,
    structure_check,
    structure_search,
    verify_schedule,
)
from .oracle import SearchResult, alcuin_exact, feasible
from .schedule import render_trace, schedule_from_witness, schedule_generic, synthesize

__all__ = [
    "BudgetExceededError",
    "CLASS_ONE",
    "CLASS_TWO",
    "Classification",
    "ConditionHolds",
    "CoverReport",
    "Degenerate",
    "Graph",
    "Move",
    "MultipleCovers",
    "PairWitness",
    "Schedule",
    "SearchResult",
    "StructureWitness",
    "Violation",
    "alcuin_exact",
    "alpha",
    "bits",
    "cartesian_product",
    "classification_condition",
    "classify",
    "classify_covers",
    "exists_2x_witness",
    "feasible",
    "girth",
    "hall_strict",
    "is_bipartite",
    "is_claw_free",
    "is_independent",
    "is_regular",
    "is_vertex_cover",
    "mask_of",
    "min_covers",
    "neighbors_in",
    "render_trace",
    "schedule_from_witness",
    "schedule_generic",
    "structure_check",
    "structure_search",
    "synthesize",
    "verify_schedule",
    "vertices_of",
]

__version__ = "0.1.0"
