"""Explicit two-player general-sum games and their exact solvers.

The leader commits to a mixed strategy; the follower observes it and plays a
pure best response, breaking payoff ties in the leader's favor. On top of
that model this module provides the Multiple-LPs commitment solver, maximin
strategies, and Nash equilibria via support enumeration, all of which serve
as exact oracles for the approximation modules.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import lp
from .errors import InputError, SizeLimitError, ToolkitError
from .tolerances import EQUAL, GUARANTEE, LP_FEASIBILITY, NEAR_BEST, PROBABILITY, probabilities

LEADER = "leader"
FOLLOWER = "follower"


@dataclass(frozen=True)
class BimatrixGame:
    """An n x m game given by leader and follower payoff matrices."""

    u_leader: np.ndarray
    u_follower: np.ndarray

    def __post_init__(self):
        ul = np.asarray(self.u_leader, dtype=float)
        uf = np.asarray(self.u_follower, dtype=float)
        if ul.ndim != 2 or ul.shape != uf.shape:
            raise InputError("payoff matrices must share an n x m shape")
        if ul.shape[0] < 1 or ul.shape[1] < 1:
            raise InputError("game needs at least one strategy per player")
        if not (np.isfinite(ul).all() and np.isfinite(uf).all()):
            raise InputError("payoff entries must be finite")
        ul.setflags(write=False)
        uf.setflags(write=False)
        object.__setattr__(self, "u_leader", ul)
        object.__setattr__(self, "u_follower", uf)

    @property
    def n(self) -> int:
        return self.u_leader.shape[0]

    @property
    def m(self) -> int:
        return self.u_leader.shape[1]

    @classmethod
    def from_json(cls, text: str) -> "BimatrixGame":
        data = json.loads(text)
        game = cls(np.asarray(data["uL"], dtype=float), np.asarray(data["uF"], dtype=float))
        if game.n != data["n"] or game.m != data["m"]:
            raise InputError("declared n/m do not match matrix shapes")
        return game

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "uL": self.u_leader.tolist(),
            "uF": self.u_follower.tolist(),
        }


@dataclass(frozen=True)
class MixedStrategy:
    """A probability vector over pure strategies."""

    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", probabilities(self.probs, "mixed strategy"))

    def __len__(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @classmethod
    def point_mass(cls, size: int, index: int) -> "MixedStrategy":
        probs = [0.0] * size
        probs[index] = 1.0
        return cls(tuple(probs))


StrategyLike = Union[MixedStrategy, Sequence[float]]


def _coerce(x: StrategyLike, size: int, who: str) -> MixedStrategy:
    strat = x if isinstance(x, MixedStrategy) else MixedStrategy(tuple(x))
    if len(strat) != size:
        raise InputError(f"{who} strategy has {len(strat)} entries, expected {size}")
    return strat


@dataclass(frozen=True)
class StackelbergSolution:
    leader: MixedStrategy
    follower_response: int
    leader_payoff: float
    follower_payoff: float


def expected_utilities(game: BimatrixGame, x: StrategyLike, y: StrategyLike) -> tuple[float, float]:
    """Bilinear expected payoffs (leader, follower) for a strategy pair."""
    xv = _coerce(x, game.n, "leader").as_array()
    yv = _coerce(y, game.m, "follower").as_array()
    return float(xv @ game.u_leader @ yv), float(xv @ game.u_follower @ yv)


def follower_best_response(game: BimatrixGame, x: StrategyLike) -> int:
    """Best follower column against ``x``, ties broken for the leader.

    Among follower payoffs within ``EQUAL`` of the maximum, picks the column
    maximizing the leader's payoff; remaining ties go to the lowest index.
    """
    xv = _coerce(x, game.n, "leader").as_array()
    follower_vals = xv @ game.u_follower
    leader_vals = xv @ game.u_leader
    best_f = follower_vals.max()
    tied = follower_vals >= best_f - EQUAL
    best_l = leader_vals[tied].max()
    for j in range(game.m):
        if tied[j] and leader_vals[j] >= best_l - EQUAL:
            return j
    raise ToolkitError("unreachable: no best response column")  # pragma: no cover


def _unit(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``a`` times 2^-e, and e, the ``math.frexp`` exponent of max|a|: max|a| ends in [1/2, 1).

    Every bimatrix solver works at this unit: unscaled, HiGHS failed on games
    whose matrices lie orders of magnitude apart and read entries below 10^-9
    as zero. Powers of two scale exactly, but entries about 2^1021 below max|a| go subnormal.
    """
    e = math.frexp(np.abs(a).max())[1]
    return np.ldexp(a, -e), e


# The Lagrange multipliers of the column bounds; 0 gives max_i u_leader[i, j].
_MULTIPLIERS = np.array([0.0, 1 / 8, 1 / 4, 1 / 2, 1.0, 2.0, 4.0, 8.0])


def _column_lp(game: BimatrixGame, j: int) -> lp.LinearProgram:
    """Column j's LP: maximize u_leader[:, j] . x over the simplex with j a weak best response.

    Row jp is the follower's gain of column jp over j, which must stay <= 0.
    ``solve_stackelberg`` builds it on the unit game (``_unit``).
    """
    uf = game.u_follower
    diff = (np.delete(uf, j, axis=1) - uf[:, [j]]).T
    return lp.LinearProgram(
        objective=game.u_leader[:, j],
        leq_rows=np.concatenate((diff, np.zeros((len(diff), 1))), axis=1),
        eq_rows=np.ones((1, game.n + 1)),  # sum(x) = 1
    )


# most floats in one temporary of ``_column_bounds``, unless n * m is more
_BOUNDS_BLOCK = 1 << 15


def _column_bounds(game: BimatrixGame) -> np.ndarray:
    """B_j = min over rivals r and multipliers lam of max_i (uL[i, j] + lam (uF[i, j] - uF[i, r])).

    Every column j at once, over a block of rivals r at a time: with
    d[i, j, r] = uF[i, j] - uF[i, r], each lam takes the max over i, then the
    min over the block, of uL[i, j] + lam d[i, j, r]. A block holds
    max(1, _BOUNDS_BLOCK // (n m)) rivals, so the temporaries hold at most
    max(_BOUNDS_BLOCK, n m) floats each. The rival r = j adds max_i uL[i, j],
    as lam = 0 does.
    """
    ul, uf = game.u_leader[:, :, None], game.u_follower
    n, m = game.n, game.m
    step = max(1, _BOUNDS_BLOCK // (n * m))
    bound = np.full(m, np.inf)
    for start in range(0, m, step):
        d = uf[:, :, None] - uf[:, None, start:start + step]
        term = np.empty_like(d)
        for lam in _MULTIPLIERS:
            np.add(np.multiply(lam, d, out=term), ul, out=term)
            np.minimum(bound, term.max(axis=0).min(axis=1), out=bound)
    return bound


def solve_stackelberg(game: BimatrixGame, exact: bool = False) -> StackelbergSolution:
    """Optimal commitment via one LP per follower column (Multiple LPs).

    For each column j, maximizes the leader payoff over the simplex subject
    to j being a weak best response (Conitzer & Sandholm, EC 2006). The
    winner is the column with the largest column value u_leader[:, j] . x
    at its LP optimum x, the lowest column index among equal values. Only
    the winner's x is re-evaluated through ``follower_best_response``, so
    the reported response honors the leader-favoring tie-break; through a
    tied response it may realize more than its column value, and more than
    the best column value only as far as the ``EQUAL`` tie margin allows.

    Bounds, margin, column LPs and column values come from the unit game
    (``_unit`` of uL and of uF); the response and payoffs from the game.

    Both backends visit the columns by ``(-B_j, j)`` for the Lagrangian
    bound B_j of ``_column_bounds`` (Geoffrion, Math. Prog. Study 2, 1974).
    By weak duality it holds for every x feasible for column j: for a rival
    r and lam >= 0, (uF[:, j] - uF[:, r]) . x >= 0 and x sums to 1, so
    uL[:, j] . x <= sum_i x_i (uL[i, j] + lam (uF[i, j] - uF[i, r]))
    <= max_i (uL[i, j] + lam (uF[i, j] - uF[i, r])). HiGHS, run with the
    feasibility tolerance ``LP_FEASIBILITY`` (eps), meets the rows only that
    closely: the entries of x may dip to -eps (clamped into [0, 1] here,
    which moves x by at most 2n eps in sum), its sum may miss 1 by eps, and
    a follower row may break by eps. With |B_j| <= max|uL| + 16 max|uF| and
    lam <= 8, these lift a column value above B_j by at most
    eps (2n + 1)(max|uL| + 32 max|uF|), under 33 eps (2n + 1) on the unit
    game: the margin. The rounding of B_j is far smaller, and nothing
    overflows. The loop stops at the first column whose bound is below the
    best column value by more than the margin, so no column left out could
    have reached, or tied, the best value, and the answer is that of a
    visit of every column (``tests/oracles.unpruned_stackelberg``).

    The exact backend runs the same loop with the same margin, which holds
    there with room to spare: its x is exactly feasible, so the only errors
    left are the rounding of x to floats, the float dot product and the
    float B_j, each far below the margin. A skipped column's float value is
    therefore strictly below the best one, and the answer equals the
    unpruned one bit for bit. Bland's rule pivots the unit LP as the given
    one: positive factors on the rows and the objective change no pivot.
    """
    unit = BimatrixGame(_unit(game.u_leader)[0], _unit(game.u_follower)[0])
    ul = unit.u_leader
    bound = _column_bounds(unit)
    span = np.abs(ul).max() + 4 * _MULTIPLIERS[-1] * np.abs(unit.u_follower).max()
    margin = LP_FEASIBILITY * (2 * game.n + 1) * span
    best: tuple[float, int, MixedStrategy] | None = None
    for j in np.argsort(-bound, kind="stable"):
        if best is not None and bound[j] < best[0] - margin:
            break
        sol = lp.solve(_column_lp(unit, j), exact=exact)
        if not sol.is_optimal:
            continue
        x = MixedStrategy(tuple(min(1.0, max(0.0, v)) for v in sol.values))
        value = float(ul[:, j] @ x.as_array())
        if best is None or value > best[0] or (value == best[0] and j < best[1]):
            best = (value, j, x)
    if best is None:
        raise ToolkitError("every per-column LP was infeasible on a valid game")
    x = best[2]
    response = follower_best_response(game, x)
    lpay, fpay = expected_utilities(game, x, MixedStrategy.point_mass(game.m, response))
    return StackelbergSolution(x, response, lpay, fpay)


def validate_stackelberg_solution(game: BimatrixGame, sol: StackelbergSolution) -> None:
    """Re-evaluate the solution's invariants; raises ToolkitError on failure."""
    xv = sol.leader.as_array()
    follower_vals = xv @ game.u_follower
    if follower_vals[sol.follower_response] < follower_vals.max() - EQUAL:
        raise ToolkitError("recorded response is not a follower best response")
    lpay, fpay = expected_utilities(
        game, sol.leader, MixedStrategy.point_mass(game.m, sol.follower_response)
    )
    if abs(lpay - sol.leader_payoff) > EQUAL or abs(fpay - sol.follower_payoff) > EQUAL:
        raise ToolkitError("recorded payoffs do not match re-evaluation")


def solve_maximin(game: BimatrixGame, player: str, exact: bool = False) -> tuple[MixedStrategy, float]:
    """Strategy maximizing the player's own worst-case payoff, and that value.

    The LP and its ``GUARANTEE`` check against every pure reply of the
    opponent run on the player's unit payoff (``_unit``).
    """
    if player == LEADER:
        payoff = game.u_leader
    elif player == FOLLOWER:
        payoff = game.u_follower.T
    else:
        raise InputError(f"unknown player {player!r}")
    payoff, e = _unit(payoff)
    k, opp = payoff.shape
    # variables: k probabilities plus the guaranteed value v; row j says
    # v - payoff[:, j] . x <= 0, and the probabilities sum to 1
    program = lp.LinearProgram(
        objective=np.append(np.zeros(k), 1.0),
        leq_rows=np.column_stack((-payoff.T, np.ones(opp), np.zeros(opp))),
        eq_rows=[np.append(np.ones(k), (0.0, 1.0))],
        free={k},
    )
    sol = lp.solve(program, exact=exact)
    if not sol.is_optimal:
        raise ToolkitError(f"maximin LP reported {sol.status} on a finite game")
    strat = MixedStrategy(tuple(min(1.0, max(0.0, v)) for v in sol.values[:k]))
    if (strat.as_array() @ payoff).min() < sol.values[k] - GUARANTEE:
        raise ToolkitError("maximin strategy falls short of its guarantee")
    return strat, math.ldexp(sol.values[k], e)


NASH_SIZE_LIMIT = 8
# most pure strategies a brute force writes out in explicit form
EXPLICIT_LIMIT = 4096


def solve_nash_support_enumeration(game: BimatrixGame) -> list[tuple[MixedStrategy, MixedStrategy]]:
    """All Nash equilibria found by equal-size support enumeration.

    Complete for nondegenerate games; desk-scale only (n, m <= 8). Runs on
    the unit payoffs (``_unit``), so ``NEAR_BEST`` is relative to each one.
    """
    n, m = game.n, game.m
    if n > NASH_SIZE_LIMIT or m > NASH_SIZE_LIMIT:
        raise SizeLimitError(f"support enumeration limited to {NASH_SIZE_LIMIT} strategies per side")
    ul, uf = _unit(game.u_leader)[0], _unit(game.u_follower)[0]
    found: list[tuple[MixedStrategy, MixedStrategy]] = []
    seen: set[tuple] = set()
    for k in range(1, min(n, m) + 1):
        for rows in map(list, itertools.combinations(range(n), k)):
            for cols in map(list, itertools.combinations(range(m), k)):
                x = _indifferent(uf[np.ix_(rows, cols)])
                y = _indifferent(ul[np.ix_(rows, cols)].T)
                if x is None or y is None:
                    continue
                # every support strategy must be a best response to the other side's mix
                fvals = x @ uf[rows, :]
                lvals = ul[:, cols] @ y
                if not ((fvals[cols] >= fvals.max() - NEAR_BEST).all()
                        and (lvals[rows] >= lvals.max() - NEAR_BEST).all()):
                    continue
                xs, ys = np.zeros(n), np.zeros(m)
                xs[rows], ys[cols] = x, y
                key = (tuple(round(v, 9) for v in xs.tolist()), tuple(round(v, 9) for v in ys.tolist()))
                if key not in seen:
                    seen.add(key)
                    found.append((MixedStrategy(tuple(xs)), MixedStrategy(tuple(ys))))
    return found


def _indifferent(mat):
    """Weights on the rows of the k x k block ``mat`` that make its columns pay the same.

    Solves the k - 1 differences of consecutive columns, plus a row of ones
    for the sum; None if there is no such mixture.
    """
    k = len(mat)
    a = np.vstack(((mat[:, :-1] - mat[:, 1:]).T, np.ones(k)))
    try:
        w = np.linalg.solve(a, np.eye(k)[-1])
    except np.linalg.LinAlgError:
        return None
    if np.any(w < -PROBABILITY):
        return None
    w = np.clip(w, 0.0, None)
    s = w.sum()
    if s <= 0:
        return None
    return w / s
