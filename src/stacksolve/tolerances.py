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
# Re-checks against a guarantee: the cut loop's stop, the incentive solver's
# best-response and lower-bound checks, and ``bimatrix.solve_maximin`` at its LP's scale.
GUARANTEE = 1e-7
# Support enumeration: a support strategy within this of the best payoff.
NEAR_BEST = 1e-8
# Zero and the float margin: values above it are nonzero (printed supports,
# granted incentives, positive path rewards). The eps-grid scan admits
# responses down to best - slack - ZERO, and its checkers ``rounding`` more.
ZERO = 1e-12


def rounding(n: int, scale: float) -> float:
    """How far two float evaluations of eps-grid payoffs may part: 4 (n + 2)(u scale + eta).

    u = 2**-53 is the unit roundoff and eta = 2**-1074 the smallest
    subnormal. A float dot product x . c of at most n + 1 terms, x on the
    simplex and |c| <= scale, is within (n + 1) u scale of its real value to
    first order in any summation order (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 3.1); each product can lose eta/2 to
    underflow. Pruning in ``discretize.discretized_se`` sets a leader bound
    against the incumbent: with the rounding of the weights c_i/k, each is
    within e = (n + 2)(u scale + eta) of its real value, they part by at
    most 2e, and the factor 2 covers the higher-order terms and the rounding
    of ``incumbent - margin``. The same pruning drops a follower column whose
    follower bound is below another column's lower bound by more than the
    slack, ZERO and twice this margin: one covers the bounds against the
    scanned payoffs (2e on each side), the other the five roundings of the
    two thresholds, each about u scale when a column is dropped. The
    checkers set a single-row x . uF against the scan's chunk product of
    the same float x: a column's value and its row's best each part by at
    most 2n (u scale + eta), and the 8 (u scale + eta) left covers the five
    roundings of best - slack - ZERO on both sides, about 6 u scale: near
    that boundary best - slack is about the column's value (at most scale),
    and slack at most 2 scale.
    """
    return 4 * (n + 2) * (2.0**-53 * scale + 2.0**-1074)


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
