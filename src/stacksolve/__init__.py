"""Solvers for Stackelberg equilibria of bimatrix, incentive, and permuted-matching games.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a command that
never computes with numpy never loads it. The imports under
``TYPE_CHECKING`` are the one list of exports; ``_exports`` reads them.
"""

import functools
import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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


@functools.cache
def _exports() -> dict[str, str]:
    """Each exported name's module, read from this file's ``from .module import`` lines."""
    import ast

    with open(__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {
        alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def __getattr__(name: str):
    module = _exports().get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_exports()})
