"""Explicit two-player general-sum games and their exact solvers.

The leader commits to a mixed strategy; the follower observes it and plays a
pure best response, breaking payoff ties in the leader's favor. On top of
that model this module provides the Multiple-LPs commitment solver, maximin
strategies, and Nash equilibria via support enumeration, all of which serve
as exact oracles for the approximation modules.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from . import lp
from .errors import InputError, SizeLimitError, ToolkitError, as_index
from .tolerances import EQUAL, GUARANTEE, NEAR_BEST, PROBABILITY, SAME_DIGITS, leader_favoured, near_best, probabilities

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
        if game.n != as_index(data["n"], "n") or game.m != as_index(data["m"], "m"):
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

    ``tolerances.leader_favoured`` on the unit payoffs (``_unit``), then the
    lowest index: the margin is relative to each matrix's power-of-two
    scale, so the response is the same when either is scaled by one.
    """
    xv = _coerce(x, game.n, "leader").as_array()
    return leader_favoured(xv @ _unit(game.u_follower)[0], xv @ _unit(game.u_leader)[0])


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


# most floats in one temporary of ``_refine``, unless n is more
_BOUNDS_BLOCK = 1 << 15


def _rival_order(ul: np.ndarray, uf: np.ndarray) -> list[int]:
    """Every column once: the follower's best responses to the pure rows, then the rest in index order.

    The rows go by their best leader payoff, highest first, and each
    response comes in at its first row. These rivals tend to cut a column's
    key most, since they outbid the column where the leader would gain.
    """
    rows = np.argsort(-ul.max(axis=1), kind="stable")
    first = dict.fromkeys(uf.argmax(axis=1)[rows].tolist())
    return [*first, *(r for r in range(uf.shape[1]) if r not in first)]


def _refine(ul_j: np.ndarray, uf_j: np.ndarray, rivals: np.ndarray) -> float:
    """min over the rows r of ``rivals`` and lam > 0 of max_i (ul_j[i] + lam (uf_j[i] - rivals[r, i])).

    ``ul_j`` and ``uf_j`` are column j of uL and of uF, ``rivals`` a k x n
    block of uF's columns as rows, so i runs along a contiguous axis.
    One temporary holds the seven nonzero multipliers times the block, at
    most 7 max(_BOUNDS_BLOCK, n) floats (1.8 MB at the cap).
    """
    term = _MULTIPLIERS[1:, None, None] * (uf_j - rivals)
    term += ul_j
    return float(term.max(axis=2).min())


def solve_stackelberg(game: BimatrixGame, exact: bool = False) -> StackelbergSolution:
    """Optimal commitment via one LP per follower column (Multiple LPs).

    For each column j, maximizes the leader payoff over the simplex subject
    to j being a weak best response (Conitzer & Sandholm, EC 2006). Column
    j's rank is (min(c_j, B_j), -j): its column value c_j = u_leader[:, j] . x
    at its LP optimum x, clipped at its bound B_j (see below), then the lower
    index. The winner is the largest rank: the largest clipped column value,
    the lowest column index among equal values. Only the winner's x is
    re-evaluated through ``follower_best_response``, so the reported
    response honors the leader-favoring tie-break; through a tied response
    it may realize more than its column value, and more than the best
    column value only as far as the ``EQUAL`` tie margin allows.

    Keys, column LPs, column values and the response come from the unit
    game (``_unit`` of uL and of uF); the payoffs from the game as given.

    B_j is the Lagrangian bound (Geoffrion, Math. Prog. Study 2, 1974)
    min over rivals r and lam in ``_MULTIPLIERS`` of
    max_i (uL[i, j] + lam (uF[i, j] - uF[i, r])). By weak duality it holds
    for every x feasible for column j: for a rival r and lam >= 0,
    (uF[:, j] - uF[:, r]) . x >= 0 and x sums to 1, so
    uL[:, j] . x <= sum_i x_i (uL[i, j] + lam (uF[i, j] - uF[i, r]))
    <= max_i (uL[i, j] + lam (uF[i, j] - uF[i, r])). So column j's LP value
    is at most B_j, and the clip moves a column value only where the LP
    backend's tolerance or float rounding put it above anything column j
    can reach.

    Both backends visit the columns by ``(-B_j, j)`` and stop at the first
    column with (B_j, -j) below the best rank, but B_j is computed only as
    far as that order needs. Each column starts at the key max_i uL[i, j],
    the lam = 0 term, which is also the term of the rival r = j, so it is
    at least B_j. One heap holds the columns by (-key, j). At the top: if
    (key, -j) is below the best rank, stop, since every key left, and so
    every bound, is at or below the top one. If the column has rivals left,
    ``_refine`` lowers its key by the next block of them and it goes back.
    Otherwise its key is B_j and it is solved. The sums are those of the
    bound written out for every rival at once, lam (uF[i, j] - uF[i, r])
    first, then + uL[i, j], and max and min are exact, so a finished key is
    B_j bit for bit, in any rival order (but for the sign of a zero where
    uL holds -0.0, which no comparison sees). A partial key is at least
    B_j, so a finished column at the top is the next column in ``(-B_j, j)``
    order, and a column that never finishes has a bound below a rank at
    which the full order stops first. So the columns solved, their order and their
    ranks are those of a visit of every column in that order
    (``tests/oracles.unpruned_stackelberg``): a skipped column's rank is at
    most (B_j, -j), below the best rank, so it could not have won. No
    tolerance enters the stop.

    The rivals come in ``_rival_order``, which sets only the work: the
    follower's best responses to the pure rows cut most keys in the first
    block. uF's columns are permuted into that order once, so each block is
    a contiguous slice. A column's first block holds 8 rivals and each next
    one twice as many as the one before, at most max(1, _BOUNDS_BLOCK // n).

    Column j's LP is ``columns.solve(uL[:, j], j)`` on one
    ``lp.TightRowLps(uF)`` per call: max uL[:, j] . x over the simplex with
    column j on the upper envelope of uF's columns, so an answer depends
    only on the game. On HiGHS the columns are re-solves of one warm model,
    run with HiGHS's scaling off, so its optima meet the unit game's rows,
    as written, within the feasibility tolerance ``LP_FEASIBILITY``. A
    column value may pass B_j by a multiple of it that grows with n (the
    tests derive the bound in ``tests/oracles.py``); the clip takes that
    back.

    On the exact backend each column is a cold rational solve of the rows
    (uF[:, r] - uF[:, j]) . x <= 0, so x is exactly feasible for these float
    differences, which B_j uses negated, bit for bit.
    B_j is a float, though: its sums round, so it may lie a few units in
    the last place below the real bound, and the rounding of x to floats
    and the float dot product can put c_j above it. The clip binds there
    only, through that rounding. Bland's rule pivots the unit LP as the
    given one: positive factors on the rows and the objective change no
    pivot.
    """
    unit = BimatrixGame(_unit(game.u_leader)[0], _unit(game.u_follower)[0])
    ul, uf = unit.u_leader, unit.u_follower
    rivals = np.ascontiguousarray(uf.T[_rival_order(ul, uf)])
    most = max(1, _BOUNDS_BLOCK // unit.n)
    heap = [(-key, j, 0) for j, key in enumerate(ul.max(axis=0).tolist())]
    heapq.heapify(heap)
    columns = lp.TightRowLps(uf, exact)
    best: tuple[tuple[float, int], MixedStrategy] | None = None
    while heap:
        key, j, seen = heap[0]
        key = -key
        if best is not None and (key, -j) < best[0]:
            break
        if seen < unit.m:
            block = rivals[seen:seen + min(most, seen + 8)]
            key = min(key, _refine(ul[:, j], uf[:, j], block))
            heapq.heapreplace(heap, (-key, j, seen + len(block)))
            continue
        heapq.heappop(heap)
        sol = columns.solve(ul[:, j], j)
        if not sol.is_optimal:
            continue
        x = MixedStrategy(tuple(min(1.0, max(0.0, v)) for v in sol.values))
        rank = (min(float(ul[:, j] @ x.as_array()), key), -j)
        if best is None or rank > best[0]:
            best = (rank, x)
    if best is None:
        raise ToolkitError("every per-column LP was infeasible on a valid game")
    x = best[1]
    response = follower_best_response(game, x)
    lpay, fpay = expected_utilities(game, x, MixedStrategy.point_mass(game.m, response))
    return StackelbergSolution(x, response, lpay, fpay)


def validate_stackelberg_solution(game: BimatrixGame, sol: StackelbergSolution) -> None:
    """Re-evaluate the solution's invariants; raises ToolkitError on failure.

    The response must be a follower best response: in the ``near_best``
    window of the unit follower payoffs (``_unit``), from which
    ``follower_best_response`` picks; the payoffs must match their
    re-evaluation on the game within ``EQUAL``.
    """
    if not near_best(sol.leader.as_array() @ _unit(game.u_follower)[0])[sol.follower_response]:
        raise ToolkitError("recorded response is not a follower best response")
    lpay, fpay = expected_utilities(game, sol.leader, MixedStrategy.point_mass(game.m, sol.follower_response))
    if abs(lpay - sol.leader_payoff) > EQUAL or abs(fpay - sol.follower_payoff) > EQUAL:
        raise ToolkitError("recorded payoffs do not match re-evaluation")


def solve_maximin(game: BimatrixGame, player: str, exact: bool = False) -> tuple[MixedStrategy, float]:
    """Strategy maximizing the player's own worst-case payoff, and that value.

    The LP is the envelope of the player's negated unit payoff (``_unit``)
    under -t, so v = -t is the least payoff over the opponent's pure
    replies; v and its ``GUARANTEE`` check run on that unit payoff.
    """
    if player == LEADER:
        payoff = game.u_leader
    elif player == FOLLOWER:
        payoff = game.u_follower.T
    else:
        raise InputError(f"unknown player {player!r}")
    payoff, e = _unit(payoff)
    k = len(payoff)
    sol = lp.solve(replace(lp.envelope(-payoff), objective=np.append(np.zeros(k), -1.0)), exact=exact)
    if not sol.is_optimal:
        raise ToolkitError(f"maximin LP reported {sol.status} on a finite game")
    strat = MixedStrategy(tuple(min(1.0, max(0.0, v)) for v in sol.values[:k]))
    value = 0.0 - sol.values[k]  # v = -t, and +0.0 for a zero value on either backend
    if (strat.as_array() @ payoff).min() < value - GUARANTEE:
        raise ToolkitError("maximin strategy falls short of its guarantee")
    return strat, math.ldexp(value, e)


NASH_SIZE_LIMIT = 8
# most paths ``incentive`` writes out in explicit form
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
                key = tuple(round(v, SAME_DIGITS) for v in (*xs.tolist(), *ys.tolist()))
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
