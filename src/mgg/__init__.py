"""Solvers, reductions and verification tools for impartial games on graphs."""

from .graphs import (
    Bipartition,
    Graph,
    Relabeling,
    bipartition,
    build_graph,
    connected_component,
    induced_subgraph,
)
from .kernel import (
    Convention,
    IllegalMoveError,
    Move,
    Position,
    apply_move,
    is_terminal,
    legal_moves,
)
from .matching import (
    Matching,
    covered_by_all_maximum_matchings,
    max_matching_bipartite,
    max_matching_general,
)
from .polysolve import (
    NotApplicable,
    preprocess_positive,
    solve_bipartite_rm_misere,
    solve_loops_rm_misere,
    solve_vgeo_undirected_normal,
    solve_weight1_rm_misere,
)
from .posfile import PositionParseError, parse_position, serialize_position
from .reductions import (
    REDUCTIONS,
    ReductionOutput,
    reduce_egeo_dir_misere,
    reduce_egeo_undir_misere,
    reduce_nimgmr_normal_to_misere,
    reduce_vgeo_dir_misere,
    reduce_vgeo_dir_to_nimgrm_misere,
    reduce_vgeo_dir_to_undir_misere,
)
from .search import (
    BudgetExhausted,
    CapacityError,
    Outcome,
    Policy,
    SolveReport,
    extract_strategy,
    solve,
)
from .arena import (
    TrialReport,
    check_reduction,
    mix_seed,
    random_instance,
    verify_strategy,
)

__version__ = "0.1.0"
