"""Commitment approximation by enumerating an eps-grid of leader mixtures.

For every leader mixed strategy whose probabilities are multiples of
``eps = 1/k``, the follower's exact best-response value is computed, the
follower is then relaxed to any response within ``2*n*eps*M`` of it
(n = leader pure strategies, M = largest payoff magnitude), and the relaxed
response maximizing the leader's payoff is recorded. The best recorded pair
is a ``2*n*eps*M``-approximate commitment solution: its leader payoff is at
most that much below the exact optimum, and its response is that close to a
follower best response.

One mask, ``_within_slack``, admits responses down to best - slack - ZERO;
the checkers, which evaluate payoffs anew, add ``tolerances.rounding(n, M)``.

Grid points are enumerated as integer numerators over k, so membership in
the grid is exact; only payoff evaluation uses floats. The enumeration is
stars and bars in numpy: the first n - 2 numerators (a prefix) with
remainder r stand for the block of rows ``[prefix, a, r - a]``, a = 0..r,
and the rows come out in lexicographic order. Blocks are grouped, and a
block too long on its own is cut, so that no chunk exceeds ``_CHUNK`` rows;
the chunk bound caps the float arrays a solve holds at once. Each chunk is
scored with one pair of matrix products.

The prefixes form a tree, and ``discretized_se`` searches it by branch and
bound (Land & Doig 1960). A prefix's bound is the best leader payoff any
point below it could reach: the numerators fixed so far, plus the
remaining mass on the best leader row left for each column, over the
columns the relaxed follower could still take. A column is ruled out
below a prefix when even its follower payoff with the remaining mass on
its best row falls short, by more than the slack, of what another column
gives with the remaining mass on its worst row. A prefix whose bound falls
below the best payoff scored so far, by more than the float rounding of
the two (see ``discretized_se``), is dropped unscored. Both bounds come from
one matrix product per run of prefixes. The answer is the one the full scan
gives, up to the chunk rounding of exact ties that ``discretized_se``
describes; only ``candidates_examined`` shows the points skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, Union

import numpy as np

from .bimatrix import BimatrixGame, MixedStrategy, _coerce
from .errors import InputError, SizeLimitError
from .tolerances import EQUAL, ZERO, rounding

DEFAULT_GRID_CAP = 10_000_000
_CHUNK = 8192


@dataclass(frozen=True)
class GridParams:
    """The grid resolution eps = 1/k, stored as the integer k; ``from_eps`` reads a float eps exactly."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be a positive integer")

    @property
    def eps(self) -> float:
        return 1.0 / self.k

    @classmethod
    def from_eps(cls, eps: Union[float, str, Fraction]) -> "GridParams":
        try:
            value = Fraction(eps)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            msg = f"eps must be a float, a Fraction or a string such as '1/10', got {eps!r}"
            raise InputError(msg) from exc
        if value <= 0 or value.numerator != 1:
            raise InputError("1/eps must be a positive integer")
        return cls(value.denominator)


@dataclass(frozen=True)
class ApproxSolution:
    leader: MixedStrategy
    follower_response: int
    leader_payoff: float
    follower_payoff: float
    slack: float  # = 2*n*eps*M
    max_payoff: float  # M
    grid_size: int
    candidates_examined: int


def grid_size(n: int, params: GridParams) -> int:
    return comb(n + params.k - 1, n - 1)


def _check_cap(n: int, params: GridParams, cap: int) -> int:
    """The grid size, after refusing n < 1 and grids above ``cap`` points."""
    if n < 1:
        raise InputError("n must be at least 1")
    count = grid_size(n, params)
    if count > cap:
        raise SizeLimitError(f"grid has {count} points, above the cap of {cap}")
    return count


def _ramps(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., s - 1 for each s in ``sizes``, concatenated."""
    starts = np.cumsum(sizes) - sizes
    return np.arange(int(starts[-1] + sizes[-1]), dtype=np.int64) - np.repeat(starts, sizes)


def _slices(prefixes: np.ndarray, rems: np.ndarray, chunk: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Consecutive runs of prefixes whose blocks hold at most ``chunk`` rows.

    A prefix whose own block is longer than ``chunk`` forms a run alone.
    """
    ends = np.cumsum(rems + 1)
    runs = []
    lo = 0
    while lo < len(rems):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + chunk, side="right")), lo + 1)
        runs.append((prefixes[lo:hi], rems[lo:hi]))
        lo = hi
    return runs


def _grid_blocks(n: int, k: int, keep: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
    """Every length-n row of nonnegative ints summing to k, in lex order.

    Yields int64 arrays of at most ``_CHUNK`` rows. A prefix (the first
    n - 2 coordinates) with remainder r stands for the block
    ``[prefix, a, r - a]``, a = 0..r. Prefixes grow one coordinate at a
    time, a run of at most ``_CHUNK`` rows' worth at once, depth first, so
    the arrays held stay bounded however large the grid is. A run of blocks
    expands with one ``np.repeat``; a block longer than ``_CHUNK`` is cut by
    ranges of a.

    ``keep(prefixes, rems)`` is called on each run of prefixes
    (of any length up to n - 2) when it is taken off the stack, and returns
    a boolean mask over them; a prefix it rejects is dropped with every row
    below it. It runs between yields, so it sees what the caller has done
    with the rows yielded so far.
    """
    chunk = _CHUNK
    if n == 1:
        yield np.array([[k]], dtype=np.int64)
        return
    pending = [(np.zeros((1, 0), dtype=np.int64), np.array([k], dtype=np.int64))]
    while pending:
        prefixes, rems = pending.pop()
        mask = keep(prefixes, rems)
        if not mask.all():
            prefixes, rems = prefixes[mask], rems[mask]
            if not len(rems):
                continue
        sizes = rems + 1
        if prefixes.shape[1] < n - 2:
            heads = _ramps(sizes)
            grown = np.column_stack([np.repeat(prefixes, sizes, axis=0), heads])
            pending.extend(reversed(_slices(grown, np.repeat(rems, sizes) - heads, chunk)))
        elif sizes[0] > chunk:  # a run of one block
            r = int(rems[0])
            for a0 in range(0, r + 1, chunk):
                a = np.arange(a0, min(a0 + chunk, r + 1), dtype=np.int64)
                yield np.column_stack([np.repeat(prefixes, len(a), axis=0), a, r - a])
        else:
            a = _ramps(sizes)
            yield np.column_stack([np.repeat(prefixes, sizes, axis=0), a, np.repeat(rems, sizes) - a])


def max_abs_payoff(game: BimatrixGame) -> float:
    """M: the largest payoff magnitude across both matrices."""
    return float(max(np.abs(game.u_leader).max(), np.abs(game.u_follower).max()))


def _within_slack(fvals: np.ndarray, slack: float) -> np.ndarray:
    """Mask of the follower payoffs (rows) within ``slack`` and ``ZERO`` of their row's best."""
    # a max along short rows is several times slower than down the columns
    # of the transposed copy; max is exact, so the bits are the same
    best = np.ascontiguousarray(fvals.T).max(axis=0)
    return fvals >= (best - slack - ZERO)[:, None]


def almost_best_responses(game: BimatrixGame, x, slack: float) -> set[int]:
    """Columns whose follower payoff against ``x`` is within ``slack`` of the best one.

    It evaluates x . uF anew, so it admits ``tolerances.rounding(n, M)`` more
    than the scan of ``discretized_se``: every response the scan admits.
    """
    if slack < 0:
        raise InputError("slack must be nonnegative")
    vals = _coerce(x, game.n, "leader").as_array()[None, :] @ game.u_follower
    mask = _within_slack(vals, slack + rounding(game.n, max_abs_payoff(game)))
    return set(np.flatnonzero(mask[0]).tolist())


def discretized_se(game: BimatrixGame, params: GridParams) -> ApproxSolution:
    """Best recorded (grid strategy, relaxed response) pair.

    Grids above ``DEFAULT_GRID_CAP`` points raise ``SizeLimitError``.

    Tie rule: ties are decided on float-evaluated leader payoffs. The first
    grid point in lexicographic order holding the largest float payoff
    wins (a later point must score strictly more), and within one grid
    point the lowest column index. Two points whose payoffs tie exactly may
    still differ in their float values, since a BLAS product can round the
    same row differently depending on the chunk's row count; which of them
    wins can then depend on where the chunk boundaries fall, and pruning
    shapes the chunks too.

    Bound: a prefix p of length d with remainder R bounds column j's
    payoffs u = uL or uF at every point below it by
    hi_j(p) = sum_{i<d} (p_i/k) u[i,j] + (R/k) max_{i>=d} u[i,j]
    from above and by lo_j(p), the same with min, from below. Every point
    below p gives some follower column at least max_l lo_l(p), so the
    relaxed follower never takes a column j whose follower
    hi_j(p) < max_l lo_l(p) - slack - ZERO - 2 margin. The leader bound
    B(p) is the largest leader hi_j(p) over the columns left. A prefix is
    dropped, with every point below it, when its float B(p) is below the
    incumbent (the best payoff scored so far) minus ``margin``.

    Margin: ``margin = tolerances.rounding(n, M)``, derived there, bounds how
    far the float B(p) and a scored payoff part. Every point below a dropped
    prefix thus scores strictly below the incumbent, so would lose anyway.
    Dropping a column takes twice that. With e = margin / 4, each float
    hi_j, lo_l and scored follower payoff is within e of its real value, so
    a scored payoff of column j is at most the float hi_j + 2e and its row's
    best at least the float max_l lo_l - 2e: one margin. The other covers
    the five float subtractions of the two thresholds, the scan's and this
    one. A column is dropped only when both lie within M + 3e of 0, so each
    rounds by at most u (M + 3e) + eta (u and eta as there), and five of
    those are below 4 (n + 2)(u M + eta). A dropped column thus fails the
    scan's mask at every point below p, and B(p) still bounds every payoff
    the scan records there.
    Where no column is dropped, which is where the follower cannot rule one
    out, B(p) is the leader-only bound.

    Incumbent: it starts at the best vertex k e_i, scored exactly (one
    weight of 1.0), so pruning works from the first chunk on. The scan
    still scores that vertex in its lex place, since its prefix's bound is
    at least its payoff. ``candidates_examined`` counts the points scored.
    """
    count = _check_cap(game.n, params, DEFAULT_GRID_CAP)
    n, k = game.n, params.k
    big_m = max_abs_payoff(game)
    slack = 2.0 * n * params.eps * big_m
    margin = rounding(n, big_m)
    ul = game.u_leader
    uf = game.u_follower
    m = game.m
    stacked = np.hstack((ul, uf, uf))
    # tails[d]: the column maxima of uL[d:] and uF[d:], then the minima of uF[d:]
    tails = np.hstack((
        np.maximum.accumulate(stacked[::-1, : 2 * m], axis=0)[::-1],
        np.minimum.accumulate(uf[::-1], axis=0)[::-1],
    ))
    # row j of columns[d] is (stacked[:d, j], tails[d, j]), so one product
    # with (p, R) / k gives the leader's hi_j, then the follower's hi_j and lo_j
    columns = [np.vstack((stacked[:d], tails[d])).T.copy() for d in range(n - 1)]
    exclusion_margin = 2 * margin  # see "Margin" above

    # the vertex k e_i scores row i of the payoff matrices, exactly
    incumbent = float(np.where(_within_slack(uf, slack), ul, -np.inf).max())

    def keep(prefixes, rems):
        d = prefixes.shape[1]
        # (p, R) / k as columns, so the max over j runs along contiguous rows
        weights = np.empty((d + 1, len(rems)))
        np.divide(prefixes.T, k, out=weights[:d])
        np.divide(rems, k, out=weights[d])
        vals = columns[d] @ weights
        lead, f_hi, f_lo = vals[:m], vals[m : 2 * m], vals[2 * m :]
        reachable = f_hi >= f_lo.max(axis=0) - slack - ZERO - exclusion_margin
        return np.where(reachable, lead, -np.inf).max(axis=0) >= incumbent - margin

    best: tuple[float, list[int], int, float] | None = None  # payoff, numerators, j, fpay
    examined = 0
    for rows in _grid_blocks(n, k, keep):
        examined += len(rows)
        xs = rows / k
        fvals = xs @ uf
        masked = np.where(_within_slack(fvals, slack), xs @ ul, -np.inf)
        # the flat argmax is the first row holding the chunk's maximum, and
        # its lowest column holding it; the strict > keeps earlier chunks
        i, j = divmod(int(masked.argmax()), game.m)
        if best is None or masked[i, j] > best[0]:
            best = (float(masked[i, j]), rows[i].tolist(), j, float(fvals[i, j]))
            incumbent = max(incumbent, best[0])
    assert best is not None
    payoff, numerators, j, fpay = best
    return ApproxSolution(
        leader=MixedStrategy(tuple(c / k for c in numerators)),
        follower_response=j,
        leader_payoff=payoff,
        follower_payoff=fpay,
        slack=slack,
        max_payoff=big_m,
        grid_size=count,
        candidates_examined=examined,
    )


def verify_eps_approx(game: BimatrixGame, sol: ApproxSolution, exact_leader_payoff: float) -> bool:
    """Recheck both approximation clauses with eps = sol.slack.

    The response must be among ``almost_best_responses`` to the recorded
    leader strategy, and the leader payoff at most ``slack`` (and ``EQUAL``)
    below the exact commitment value (values above it are legal because
    the follower is relaxed).
    """
    if sol.follower_response not in almost_best_responses(game, sol.leader, sol.slack):
        return False
    return sol.leader_payoff >= exact_leader_payoff - sol.slack - EQUAL


def solution_to_json_obj(sol: ApproxSolution) -> dict:
    return {
        "leader": list(sol.leader.probs),
        "followerResponse": sol.follower_response,
        "leaderPayoff": sol.leader_payoff,
        "followerPayoff": sol.follower_payoff,
        "slack": sol.slack,
        "M": sol.max_payoff,
        "gridSize": sol.grid_size,
        "candidatesExamined": sol.candidates_examined,
    }
