"""Exact arithmetic on the Conway topograph.

Five structures share one binary tree: Farey fractions, Markov fractions,
Markov triples, Cohn matrices, and even continued fraction words.  This
package builds each of them with exact integer arithmetic, exposes the maps
between them, and ships verification suites that check the known identities
node by node on any finite window of the tree.
"""

from .cftree import (
    QuadraticIrrational,
    compare_gap,
    format_qi,
    left_companion,
    make_qi,
    markov_cf,
    markov_irrationality,
    periodic_value,
    qi_compare,
    qi_satisfies,
)
from .cohn import (
    HARD_A_CAP,
    CohnMatrix,
    cohn_A,
    cohn_B,
    cohn_at,
    cohn_index,
    trace_map,
)
from .errors import (
    CombineError,
    DepthLimitError,
    DomainError,
    InvariantError,
    PreconditionError,
    TopographError,
)
from .export import TREE_KINDS, TreeExport, build_export, from_json, render, to_csv, to_dot, to_json
from .markov import (
    HARD_TRIPLE_CAP,
    MarkovTriple,
    markov_child,
    markov_fraction,
    markov_triple_at,
    springborn_mediant,
    vieta_flip,
    vieta_walk,
)
from .rational import (
    Mat2,
    cf_concat,
    cf_eval,
    cf_expand_even,
    convergent_matrix,
    farey_mediant,
    format_cf_word,
    format_fraction,
    is_farey_neighbors,
    make_fraction,
    parse_cf_word,
    parse_fraction,
    parse_int,
    partial_quotients,
)
from .tree import (
    HARD_DEPTH_CAP,
    HARD_POINT_CAP,
    Node,
    descend,
    descend_runs,
    enumerate_tree,
    format_path,
    locate,
    locate_runs,
    mirror,
    mirrored,
    parse_path,
    value_at,
)
from .verify import SUITES, VerifyReport, format_report, run_suites

__version__ = "0.1.0"
