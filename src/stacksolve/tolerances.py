"""The tolerance policy: every inexact float comparison, named by its role.

Every module takes its margins from here; a comparison with a new role
gets a new name here, not a literal at the call site.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import InputError

# Payoffs or matching weights this close are equal: follower best responses,
# leader-favouring tie-breaks, re-evaluated payoffs, and 1/eps = k checks.
EQUAL = 1e-9
# Probability vectors: entries down to -PROBABILITY, sums this close to 1.
PROBABILITY = 1e-9
# HiGHS primal and dual feasibility; Multiple LPs derives from it the margin
# by which a column value at a HiGHS optimum may exceed the column's bound.
LP_FEASIBILITY = 1e-9
# An optimum HiGHS reports must meet its bounds and rows within this:
# linprog's residual check, 10 * sqrt(tol) at its default tol of 1e-9.
LP_RESIDUAL = 10 * math.sqrt(1e-9)
# Re-checks against a guarantee: the cut loop's stop, the incentive
# solver's best-response and lower-bound checks, maximin guarantees.
GUARANTEE = 1e-7
# Support enumeration: a support strategy within this of the best payoff.
NEAR_BEST = 1e-8
# Zero and the float margin: values above it are nonzero (printed supports,
# granted incentives, positive path rewards); the eps-grid solver and its
# checker both admit responses down to best - slack - ZERO.
ZERO = 1e-12


def probabilities(values: Iterable[float], what: str) -> tuple[float, ...]:
    """``values`` as a checked probability vector, tiny negatives clamped to 0.

    Raises InputError on a non-finite entry, an entry below -PROBABILITY, or
    a sum more than PROBABILITY away from 1 (so on an empty vector too).
    """
    probs = tuple(map(float, values))
    if not all(map(math.isfinite, probs)):
        raise InputError(f"{what} has a non-finite probability")
    if any(p < -PROBABILITY for p in probs):
        raise InputError(f"{what} has a negative probability")
    if abs(sum(probs) - 1.0) > PROBABILITY:
        raise InputError(f"{what} probabilities must sum to 1")
    return tuple(p if p > 0.0 else 0.0 for p in probs)
