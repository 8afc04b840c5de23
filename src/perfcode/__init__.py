"""Efficient domination (perfect codes) via independent sets on graph squares.

A library for solving the weighted efficient domination problem by
reduction to maximum weight independent set on the graph square, with
certified recognition of the forbidden-subgraph classes whose squares are
structurally nice, and a harness that checks those structural facts
empirically on graph corpora.
"""

from .graph import (
    Graph,
    closed_neighborhood_weights,
    complement,
    complete_sun,
    connected_components,
    cycle_graph,
    from_edge_list,
    induced_subgraph,
    path_graph,
    square,
)
from .recognition import (
    ClassReport,
    PatternWitness,
    CLASS_TAGS,
    class_membership,
    find_hole,
    find_odd_antihole,
    find_pattern,
    is_chordal,
    is_class_member,
    is_perfect_desk,
    is_perfect_elimination_order,
    lexbfs_order,
    witness_is_valid,
)
from .mwis import MwisResult, mwis_chordal, mwis_exact
from .solver import (
    EDSolution,
    SquareDiagnostics,
    oracle_ed,
    solve,
    square_diagnostics,
    verify_ed,
)
from .verify import (
    THEOREM_IDS,
    TrialConfig,
    VerificationReport,
    check_theorem,
    gen_random_chordal,
    gen_random_graph,
    run_campaign,
)
from .dimacs import DimacsError, GraphFile, parse_dimacs, write_dimacs

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "from_edge_list",
    "square",
    "closed_neighborhood_weights",
    "complement",
    "induced_subgraph",
    "connected_components",
    "cycle_graph",
    "path_graph",
    "complete_sun",
    "PatternWitness",
    "ClassReport",
    "CLASS_TAGS",
    "find_pattern",
    "find_hole",
    "find_odd_antihole",
    "is_chordal",
    "is_perfect_desk",
    "is_perfect_elimination_order",
    "lexbfs_order",
    "class_membership",
    "is_class_member",
    "witness_is_valid",
    "MwisResult",
    "mwis_chordal",
    "mwis_exact",
    "EDSolution",
    "SquareDiagnostics",
    "solve",
    "square_diagnostics",
    "oracle_ed",
    "verify_ed",
    "THEOREM_IDS",
    "TrialConfig",
    "VerificationReport",
    "check_theorem",
    "gen_random_graph",
    "gen_random_chordal",
    "run_campaign",
    "DimacsError",
    "GraphFile",
    "parse_dimacs",
    "write_dimacs",
]
