"""Exact committee selection under misrepresentation.

Solvers for the best-representative and balanced committee rules with sum
and minimax objectives, plus single-peaked fast paths, hardness-reduction
generators, and a batch CLI.
"""

from .core import (
    ApprovalMisrep,
    Assignment,
    BordaMisrep,
    BudgetExceededError,
    Election,
    ExplicitMisrep,
    MisrepMatrix,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    VerifyReport,
    balanced_loads,
    build_misrep,
    check_m_criterion,
    evaluate,
    verify_solution,
)
from .fileio import (
    ParseError,
    parse_instance,
    parse_solution,
    render_instance,
    render_solution,
    worst_bound,
)
from .generators import random_election, random_prefix_approvals
from .hardness import (
    HittingSetInstance,
    RX3CInstance,
    gen_hs_approval,
    gen_hs_borda,
    gen_rx3c_monroe,
    gen_vc_minimax,
)
from .single_peaked import (
    AxisRows,
    check_single_troughed,
    detect_axis,
    sample_single_peaked_election,
    solve_cc_minimax_sp,
    solve_cc_sum_sp,
)
from .solvers import (
    DEFAULT_BUDGET,
    SolverBudget,
    solve_cc_branch_rk,
    solve_constantR,
    solve_m_mw_rk,
    solve_minimax_R0,
    solve_partition_enum,
    solve_subset_enum,
)
from .stabbing import (
    StabbingCover,
    StabbingInstance,
    solve_max_bal_1rs,
    solve_minimax_m_mw_sp,
    solve_monroe_sum_sp,
)
from .solving import optimize

__all__ = [
    "ApprovalMisrep",
    "Assignment",
    "AxisRows",
    "BordaMisrep",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "Election",
    "ExplicitMisrep",
    "HittingSetInstance",
    "MisrepMatrix",
    "Objective",
    "ParseError",
    "ProblemInstance",
    "RX3CInstance",
    "Rule",
    "Solution",
    "SolverBudget",
    "StabbingCover",
    "StabbingInstance",
    "VerifyReport",
    "balanced_loads",
    "build_misrep",
    "check_m_criterion",
    "check_single_troughed",
    "detect_axis",
    "evaluate",
    "gen_hs_approval",
    "gen_hs_borda",
    "gen_rx3c_monroe",
    "gen_vc_minimax",
    "optimize",
    "parse_instance",
    "parse_solution",
    "random_election",
    "random_prefix_approvals",
    "render_instance",
    "render_solution",
    "sample_single_peaked_election",
    "solve_cc_branch_rk",
    "solve_cc_minimax_sp",
    "solve_cc_sum_sp",
    "solve_constantR",
    "solve_m_mw_rk",
    "solve_max_bal_1rs",
    "solve_minimax_R0",
    "solve_minimax_m_mw_sp",
    "solve_monroe_sum_sp",
    "solve_partition_enum",
    "solve_subset_enum",
    "verify_solution",
    "worst_bound",
]

__version__ = "0.1.0"
