"""Solvers for Stackelberg equilibria of bimatrix, incentive, and permuted-matching games."""

from .bimatrix import (
    BimatrixGame,
    MixedStrategy,
    StackelbergSolution,
    expected_utilities,
    follower_best_response,
    solve_maximin,
    solve_nash_support_enumeration,
    solve_stackelberg,
)
from .discretize import ApproxSolution, GridParams, discretized_se, verify_eps_approx
from .errors import InputError, LpNumericalError, SizeLimitError, ToolkitError
from .incentive import (
    ExplicitFamily,
    IncentiveInstance,
    IncentiveLeaderStrategy,
    IncentiveSolution,
    PathFamily,
    check_incentive_lower_bound,
    follower_best_set,
    solve_stackelberg_incentive,
)
from .lp import LinearProgram, LpSolution, solve, solve_with_generation
from .permmatch import (
    Matching,
    Multigraph,
    PermMatchInstance,
    ReductionMap,
    ThreeDMInstance,
    TwoPointLeaderStrategy,
    approx_solve,
    bruteforce_pitim,
    extract_3dm,
    greedy_pair,
    lift_3dm,
    max_weight_matching,
    reduce_3dm,
)

__version__ = "0.1.0"
