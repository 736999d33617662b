"""Existential first-order model checking on finite posets.

Sentences over {<=, =} are decided on a host poset by enumerating quotient
patterns and testing poset embedding with one of three interchangeable
engines: a brute-force oracle, a min-closed CSP solver, and a multicoloured
clique dynamic program on interval-monotone graphs.
"""

from .clique import (
    CliqueTable,
    ColoredGraph,
    build_colored_graph,
    clique_max,
    clique_min,
    compute_clique_tables,
    embed_via_clique,
    is_clique,
    is_interval_monotone,
    solve_multicolored_clique,
)
from .csp import assert_min_closed, embed_via_csp, relation_is_min_closed, solve_min_closed
from .errors import (
    AntisymmetryViolation,
    CapExceeded,
    FormatError,
    FormulaSyntaxError,
    FreeVariable,
    IndexOutOfRange,
    NotIntervalMonotone,
    NotMinClosed,
    PosetmcError,
    PreconditionViolation,
    TooManyVariables,
    UnboundVariable,
    UnsupportedQuantifier,
)
from .generators import (
    SimpleGraph,
    banded_poset,
    format_graph_text,
    independent_poset,
    load_graph,
    or_compose,
    parse_graph_text,
    poset_of_graph,
    random_poset,
    stack_posets,
)
from .instrument import OpCounter
from .logic import (
    And,
    AtomKind,
    Lit,
    Matrix,
    Or,
    Sentence,
    Variable,
    eval_matrix,
    format_sentence,
    formula_size,
    parse_sentence,
)
from .oracle import brute_force_clique, brute_force_embed, brute_force_model_check, brute_force_width
from .poset import (
    ChainPartition,
    Poset,
    Relation,
    close_and_validate,
    cover_pairs,
    disjoint_union,
    format_poset_text,
    is_embedding,
    load_poset,
    parse_poset_text,
    relate,
    width_and_chain_partition,
)
from .reduction import QuotientTemplate, enumerate_templates, model_check

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
