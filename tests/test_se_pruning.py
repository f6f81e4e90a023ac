"""Bound-ordered pruning of the Multiple-LPs solver, on both LP backends.

``solve_stackelberg`` ranks each solved column j by (min(c_j, B_j), -j):
its column value u_leader[:, j] . x clipped at its Lagrangian bound B_j
(``oracles.column_bounds``), then the lower index. It visits the columns
by descending bound and stops at the first column with (B_j, -j) below the
best rank, which no column left could pass, on HiGHS and on the exact
backend alike, refining each B_j from a cheap key only as far as that
order needs. These tests compare it bit for bit with the all-columns
loop of ``oracles.unpruned_stackelberg`` under the same ranks (on HiGHS the
same warm sequence, on the exact backend cold ``oracles.column_lp``
solves), on random, 0-3 integer, commit, permuted-matching and path games;
pin the columns it solves to the ``(-B_j, j)`` order up to the stop; check
the bound against every column's exact LP value and, bit for bit, the
blocked bounds and the lazy refinement ``bimatrix._refine`` against the
per-column computation of ``oracles.column_bounds_per_column``; check
each column solve of the envelope against a cold solve of
``oracles.column_lp``, within ``oracles.highs_column_value_margin`` on
HiGHS and bit for bit on the exact backend, and the status of every
warm re-solve of a 31 x 976 path game against its cold solve; count the
LPs solved, tied bounds and the integer games of the HiGHS benchmark
included; and check that scaling uL and uF by 2^a and 2^b moves neither
the SE strategy nor its response, and scales its payoffs by exactly those
powers, and that it moves a maximin solution only in its value.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stacksolve import bimatrix, gen, lp, permmatch
from stacksolve.bimatrix import BimatrixGame, solve_stackelberg, validate_stackelberg_solution
from stacksolve.gen import random_permmatch
from stacksolve.incentive import incentive_bimatrix
from stacksolve.tolerances import GUARANTEE

from .instances import bimatrix_games, commit_instance, grid_instance
from .oracles import (
    column_bounds,
    column_bounds_per_column,
    column_lp,
    highs_column_value_margin,
    unpruned_stackelberg,
)


def assert_same_as_unpruned(game, exact):
    pruned = solve_stackelberg(game, exact=exact)
    validate_stackelberg_solution(game, pruned)
    assert pruned == unpruned_stackelberg(game, exact=exact)


@settings(max_examples=200)
@given(bimatrix_games(max_n=7, max_m=9))
def test_pruned_matches_unpruned_highs(game):
    assert_same_as_unpruned(game, exact=False)


@settings(max_examples=150)
@given(bimatrix_games(max_n=6, max_m=6))
def test_pruned_matches_unpruned_exact(game):
    assert_same_as_unpruned(game, exact=True)


@pytest.mark.parametrize("seed", range(6))
def test_pruned_matches_unpruned_exact_on_integer_games(seed):
    # payoffs 0-3 tie many bounds with the best column value
    rng = np.random.default_rng(seed)
    n, m = rng.integers(4, 9, size=2)
    game = BimatrixGame(rng.integers(0, 4, (n, m)).astype(float), rng.integers(0, 4, (n, m)).astype(float))
    assert_same_as_unpruned(game, exact=True)


@pytest.mark.parametrize("seed", range(8))
def test_pruned_matches_unpruned_exact_on_matching_games(seed):
    # the explicit permuted-matching games of the exact benchmark's shape
    game, _ = permmatch.explicit_bimatrix(random_permmatch(seed, 8, 7))
    assert_same_as_unpruned(game, exact=True)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("exact", [False, True])
def test_pruned_matches_unpruned_on_commit_games(k, exact):
    game, _ = incentive_bimatrix(commit_instance(k))
    assert_same_as_unpruned(game, exact=exact)


@settings(max_examples=300)
# every column value is 0 and HiGHS reports x = (0, 1): column 0 must win
# the follower's tie by its 1.3e-213 on the unit follower payoffs
@example(BimatrixGame(np.array([[0.0, 0, 0, 0], [0, 0, 0, 1]]), np.array([[0.0, 0, 0, 0], [1.3e-213, 0, 0, 0]])))
@given(bimatrix_games(max_n=6, max_m=6))
def test_pruned_highs_matches_the_exact_backend(game):
    assert abs(solve_stackelberg(game).leader_payoff - solve_stackelberg(game, exact=True).leader_payoff) <= 1e-9


@settings(max_examples=150)
@given(bimatrix_games(max_n=5, max_m=6))
def test_column_bounds_cover_every_exact_column_value(game):
    bound = column_bounds(game)
    assert bound.shape == (game.m,)
    assert np.all(bound <= game.u_leader.max(axis=0))  # lam = 0 is one of the multipliers
    for j in range(game.m):
        sol = lp.solve(column_lp(game, j), exact=True)
        if sol.is_optimal:
            assert bound[j] >= sol.objective_value


@st.composite
def bounds_games(draw, size=70, exponents=st.integers(-500, 500)):
    """Random or 0-3 integer games up to size x size, 1 x m and n x 1 included, by 2^e for e in ``exponents``."""
    n, m = draw(st.sampled_from([(1, 0), (0, 1), (0, 0)]))
    n, m = n or draw(st.integers(1, size)), m or draw(st.integers(1, size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        ul, uf = rng.integers(0, 4, (2, n, m)).astype(float)
    else:
        ul, uf = rng.uniform(-1.0, 1.0, (2, n, m))
    e = draw(exponents)
    return BimatrixGame(np.ldexp(ul, e), np.ldexp(uf, e))


@settings(max_examples=300)
@given(bounds_games(), st.data())
def test_blocked_column_bounds_match_the_per_column_ones_bit_for_bit(game, data):
    # The oracle's blocks: from about 30 x 30 on, several, the last one
    # partial. The solver's: each column's key max_i uL[i, j], lowered by
    # ``_refine`` over every rival, in any order and in blocks of any sizes,
    # 1 and a partial last block included. A small _BOUNDS_BLOCK puts a
    # block past _BOUNDS_BLOCK // n, so that the multipliers come in groups.
    want = column_bounds_per_column(game)
    assert column_bounds(game).tobytes() == want.tobytes()
    rivals = game.u_follower.T[data.draw(st.permutations(range(game.m)))]
    sizes = []
    while sum(sizes) < game.m:
        sizes.append(data.draw(st.integers(1, game.m)))
    keys = game.u_leader.max(axis=0)
    with mock.patch.object(bimatrix, "_BOUNDS_BLOCK", data.draw(st.integers(1, 8 * game.n * game.m))):
        for j in range(game.m):
            seen = 0
            for size in sizes:
                block = rivals[seen:seen + size]
                keys[j] = min(keys[j], bimatrix._refine(game.u_leader[:, j], game.u_follower[:, j], block))
                seen += size
    assert keys.tobytes() == want.tobytes()


@pytest.mark.parametrize("exact, size", [(False, 70), (True, 10)])
@settings(max_examples=150)
@given(data=st.data())
def test_columns_are_solved_in_bound_order_up_to_the_stop(exact, size, data):
    # The columns solved are the prefix of the (-B_j, j) order that ends
    # where a visit of every column in that order would stop, given the
    # answers the solver got; tied 0-3 games and scales 2^e, |e| <= 500, included.
    game = data.draw(bounds_games(size=size))
    unit = unit_game(game)
    bound = column_bounds(unit)
    solved = []
    real = lp.TightRowLps.solve

    def recording(columns, c, j):
        solved.append((j, real(columns, c, j)))
        return solved[-1][1]

    with mock.patch.object(lp.TightRowLps, "solve", recording):
        solve_stackelberg(game, exact=exact)
    order = np.argsort(-bound, kind="stable").tolist()
    assert [j for j, _ in solved] == order[:len(solved)]
    best = None
    for k, j in enumerate(order):
        if best is not None and (bound[j], -j) < best:
            break
        assert k < len(solved), "stopped before the order did"
        sol = solved[k][1]
        if sol.is_optimal:
            rank = (min(column_value(unit, j, sol), bound[j]), -j)
            best = rank if best is None else max(best, rank)
    else:
        k = len(order)
    assert len(solved) == k


def unit_game(game):
    return BimatrixGame(bimatrix._unit(game.u_leader)[0], bimatrix._unit(game.u_follower)[0])


def column_value(unit, j, sol):
    x = np.clip(sol.values, 0.0, 1.0)
    return float(unit.u_leader[:, j] @ x)


def outcomes(solutions):
    return [(s.status, [v.hex() for v in s.values]) for s in solutions]


@settings(max_examples=200)
@given(bounds_games(size=10), st.randoms(use_true_random=False), st.data())
def test_warm_column_lps_match_cold_ones(game, rnd, data):
    # Each HiGHS re-solve of the envelope is column j's LP: the status of a
    # cold solve of ``column_lp`` and a column value within the margin
    # ``highs_column_value_margin``.
    # The columns come shuffled, then the first again; a cold solve between
    # two re-solves leaves the ones before it as they were and makes the
    # next pass the model again, as a new sequence would. On the exact
    # backend each solve is the cold ``column_lp`` solve, bit for bit.
    unit = unit_game(game)
    order = list(range(game.m))
    rnd.shuffle(order)
    order.append(order[0])

    def resolve(columns, j):
        return columns.solve(unit.u_leader[:, j], j)

    exact = lp.TightRowLps(unit.u_follower, exact=True)
    for j in order:
        sol, cold = resolve(exact, j), lp.solve(column_lp(unit, j), exact=True)
        assert (sol.status, sol.objective_value.hex()) == (cold.status, cold.objective_value.hex())
        assert [v.hex() for v in sol.values] == [v.hex() for v in cold.values]

    columns = lp.TightRowLps(unit.u_follower)
    warm = [resolve(columns, j) for j in order]
    for j, sol in zip(order, warm):
        cold = lp.solve(column_lp(unit, j))
        assert sol.status == cold.status
        if cold.is_optimal:
            assert abs(column_value(unit, j, sol) - column_value(unit, j, cold)) <= highs_column_value_margin(unit)

    k = data.draw(st.integers(1, len(order) - 1))
    columns = lp.TightRowLps(unit.u_follower)
    before = [resolve(columns, j) for j in order[:k]]
    lp.solve(column_lp(unit, order[0]))
    after = [resolve(columns, j) for j in order[k:]]
    restarted = lp.TightRowLps(unit.u_follower)
    assert outcomes(before) == outcomes(warm[:k])
    assert outcomes(after) == outcomes([resolve(restarted, j) for j in order[k:]])


def scaled(game, a, b):
    return BimatrixGame(np.ldexp(game.u_leader, a), np.ldexp(game.u_follower, b))


@pytest.mark.parametrize("exact", [False, True])
@settings(max_examples=100)
@given(bounds_games(size=6, exponents=st.just(0)), st.integers(-500, 500), st.integers(-500, 500))
def test_maximin_commutes_with_power_of_two_scaling(exact, game, a, b):
    # both LPs run on the unit payoff, so only the value is scaled back
    for player, e in ((bimatrix.LEADER, a), (bimatrix.FOLLOWER, b)):
        strat, value = bimatrix.solve_maximin(game, player, exact=exact)
        scaled_strat, scaled_value = bimatrix.solve_maximin(scaled(game, a, b), player, exact=exact)
        assert scaled_strat.as_array().tobytes() == strat.as_array().tobytes()
        assert scaled_value == np.ldexp(value, e)


@pytest.mark.parametrize("exact", [False, True])
@settings(max_examples=100)
@given(bounds_games(size=6, exponents=st.just(0)), st.integers(-500, 500), st.integers(-500, 500))
def test_stackelberg_strategy_commutes_with_power_of_two_scaling(exact, game, a, b):
    # the column LPs and the response run on the unit game; only the
    # payoffs, re-evaluated on the game as given, scale
    sol = solve_stackelberg(game, exact=exact)
    big = solve_stackelberg(scaled(game, a, b), exact=exact)
    assert big.leader.as_array().tobytes() == sol.leader.as_array().tobytes()
    assert big.follower_response == sol.follower_response
    assert big.leader_payoff == np.ldexp(sol.leader_payoff, a)
    assert big.follower_payoff == np.ldexp(sol.follower_payoff, b)


@pytest.fixture
def lp_calls(monkeypatch):
    """The LPs solved, counted once each at the backend, whatever the entry point.

    A HiGHS re-solve counts once, even when it runs again from no basis.
    """
    calls = []
    for owner, name in ((lp, "_solve_exact"), (lp, "_solve_highs"), (lp.TightRowLps, "_warm")):
        def counting(*args, real=getattr(owner, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
    return calls


def assert_commit_game_solves_one_lp(lp_calls, k, exact):
    # every column has leader bound max_i uL = 1, so that bound alone kept all (k+1)^2
    game, _ = incentive_bimatrix(commit_instance(k))
    sol = solve_stackelberg(game, exact=exact)
    assert len(lp_calls) == 1
    assert sol.leader_payoff == pytest.approx((0.6 * k + 1) / (k + 1), abs=1e-9)


@pytest.mark.parametrize("k", range(1, 7))
def test_commit_games_solve_one_highs_lp(lp_calls, k):
    assert_commit_game_solves_one_lp(lp_calls, k, exact=False)


@pytest.mark.parametrize("k", range(1, 7))
def test_commit_games_solve_one_exact_lp(lp_calls, k):
    assert_commit_game_solves_one_lp(lp_calls, k, exact=True)


# column 0 has the top bound 5, reached at row 0 where the follower strictly
# prefers column 0; every other bound is below 5
DOMINANT = BimatrixGame(
    np.array([[5.0, 1.0, 2.0], [0.0, 3.0, 4.0]]),
    np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]]),
)


def assert_dominant_bound_solves_one_lp(lp_calls, exact):
    sol = solve_stackelberg(DOMINANT, exact=exact)
    assert len(lp_calls) == 1
    assert sol.follower_response == 0 and sol.leader_payoff == pytest.approx(5.0)


def test_dominant_bound_solves_one_lp(lp_calls):
    assert_dominant_bound_solves_one_lp(lp_calls, exact=False)


def test_exact_backend_solves_one_lp_on_the_dominant_bound(lp_calls):
    # the exact backend prunes like HiGHS: column 0 alone is solved
    assert_dominant_bound_solves_one_lp(lp_calls, exact=True)


@pytest.mark.parametrize("exact", [False, True])
def test_equal_bounds_stop_at_the_first_column(lp_calls, exact):
    # every bound is 1/2 and column 0, visited first, reaches 1/2 at
    # (1/2, 1/2, 0, 0): no later column can pass its bound, and none has a
    # lower index
    game = BimatrixGame(np.eye(4), np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]] * 2))
    sol = solve_stackelberg(game, exact=exact)
    assert len(lp_calls) == 1
    assert sol.follower_response == 0
    assert sol.leader.probs == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-9)
    assert sol.leader_payoff == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize(
    "game, lps, x",
    [
        # On the unit game both bounds are 0.25 and column 0, visited first,
        # reaches 0.25 at (0, 1): column 1 ties at most, at a higher index.
        (BimatrixGame(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])), 1, (0.0, 1.0)),
        # Unit bounds (0.25, 0.3125): column 1 is visited first and reaches
        # 0.25 at (1/2, 1/2); column 0's bound ties that value, so its lower
        # index keeps it in, and it reaches 0.25 at (1, 0).
        (BimatrixGame(np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[3.0, 0.0], [0.0, 3.0]])), 2, (1.0, 0.0)),
    ],
    ids=["solved-first", "bound-ties-the-best"],
)
def test_equal_payoffs_keep_the_lowest_column(lp_calls, game, lps, x, exact):
    sol = solve_stackelberg(game, exact=exact)
    assert len(lp_calls) == lps
    assert sol == unpruned_stackelberg(game, exact=exact)
    assert sol.follower_response == 0
    assert sol.leader.probs == pytest.approx(x, abs=1e-9)
    assert sol.leader_payoff == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("n", [12, 20, 28])
def test_tied_integer_games_solve_one_lp(lp_calls, n, exact):
    # The integer-payoff shapes of the HiGHS benchmark: many bounds there
    # equal the best column value, and a column whose bound only ties the
    # best rank at a higher index cannot win. On HiGHS, at 20 x 20 and
    # 28 x 28, a skipped column's value passes its bound, so the unpruned
    # loop agrees only because it clips too.
    base = gen.random_bimatrix(0, n, n, 0.0, 4.0)
    game = BimatrixGame(np.floor(base.u_leader), np.floor(base.u_follower))
    solve_stackelberg(game, exact=exact)
    assert len(lp_calls) == 1
    assert_same_as_unpruned(game, exact=exact)


def test_the_column_value_ranks_the_columns_not_the_realized_payoff(lp_calls):
    # Column 0's LP value is 1/2, at x = (1/2, 1/2), where the follower ties
    # and takes column 1, so it realizes 1, as column 1 (LP value 1) does.
    # Ranked by realized payoff, column 0 would win as the lower index, but
    # only when it is solved, and its bound 1/2 lets either backend skip it.
    # Ranked by column value, column 1 wins on both backends.
    game = BimatrixGame(np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert column_bounds(game).tolist() == [0.5, 1.0]
    highs = solve_stackelberg(game)
    exact = solve_stackelberg(game, exact=True)
    assert len(lp_calls) == 2
    for sol in (highs, exact):
        assert sol.follower_response == 1 and sol.leader_payoff == pytest.approx(1.0, abs=1e-9)


def test_ten_disjoint_edges_solve_in_explicit_form():
    # 1,024 x 1,024: the bounds of every column took 22 s; the lazy keys
    # refine a few columns
    edges = tuple((2 * i, 2 * i + 1) for i in range(10))
    game, _ = permmatch.explicit_bimatrix(permmatch.PermMatchInstance(permmatch.Multigraph(20, edges), tuple(range(10))))
    sol = solve_stackelberg(game)
    validate_stackelberg_solution(game, sol)
    assert abs(sol.leader_payoff - 10) <= GUARANTEE


def test_path_game_matches_unpruned():
    # 31 x 976, 0/1 leader payoffs: every cheap key ties at the top
    game, _ = incentive_bimatrix(grid_instance(random.Random(0), 4, 5))
    assert_same_as_unpruned(game, exact=False)


def test_warm_resolves_of_the_path_game_keep_the_cold_statuses():
    # Visited in (-B_j, j) order on one warm sequence, some re-solves of
    # infeasible columns end with model status Unknown; each runs once more
    # from no basis and must then give the status of a cold solve.
    game, _ = incentive_bimatrix(grid_instance(random.Random(0), 4, 5))
    unit = unit_game(game)
    columns = lp.TightRowLps(unit.u_follower)
    order = np.argsort(-column_bounds(unit), kind="stable").tolist()
    warm = [columns.solve(unit.u_leader[:, j], j).status for j in order]
    assert warm == [lp.solve(column_lp(unit, j)).status for j in order]
