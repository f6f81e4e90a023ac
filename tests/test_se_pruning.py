"""Bound-ordered pruning of the Multiple-LPs solver, on both LP backends.

``solve_stackelberg`` visits the follower columns by descending Lagrangian
bound B_j (``bimatrix._column_bounds``) and stops once a bound falls below
the best column value by more than the margin that HiGHS's feasibility
tolerance allows; the exact backend runs the same loop, where only float
rounding stands between a column's bound and its value. The winner is the
column of the largest column value u_leader[:, j] . x, the lowest index
among equal values, so no column the loop skips could have won. These
tests compare it bit for bit with the all-columns loop of
``oracles.unpruned_stackelberg``, which shares the column LPs, on random,
0-3 integer, commit and permuted-matching games; check the bound against
every column's exact LP value and, bit for bit, against the per-column
computation of ``oracles.column_bounds_per_column``; count the LPs
solved; and check that scaling uL and uF by powers of two moves neither
the SE strategy nor, but for its value, a maximin solution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksolve import bimatrix, lp, permmatch
from stacksolve.bimatrix import BimatrixGame, solve_stackelberg, validate_stackelberg_solution
from stacksolve.gen import random_permmatch
from stacksolve.incentive import incentive_bimatrix

from .instances import bimatrix_games, commit_instance
from .oracles import column_bounds_per_column, unpruned_stackelberg


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
@given(bimatrix_games(max_n=6, max_m=6))
def test_pruned_highs_matches_the_exact_backend(game):
    assert abs(solve_stackelberg(game).leader_payoff - solve_stackelberg(game, exact=True).leader_payoff) <= 1e-9


@settings(max_examples=150)
@given(bimatrix_games(max_n=5, max_m=6))
def test_column_bounds_cover_every_exact_column_value(game):
    bound = bimatrix._column_bounds(game)
    assert bound.shape == (game.m,)
    assert np.all(bound <= game.u_leader.max(axis=0))  # lam = 0 is one of the multipliers
    for j in range(game.m):
        sol = lp.solve(bimatrix._column_lp(game, j), exact=True)
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
@given(bounds_games())
def test_blocked_column_bounds_match_the_per_column_ones_bit_for_bit(game):
    # from about 30 x 30 on, the rivals come in several blocks, the last one partial
    assert bimatrix._column_bounds(game).tobytes() == column_bounds_per_column(game).tobytes()


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
    # the column LPs run on the unit game; the response is re-evaluated on
    # the game as given, where the absolute EQUAL can still move it
    x = solve_stackelberg(game, exact=exact).leader.as_array()
    assert solve_stackelberg(scaled(game, a, b), exact=exact).leader.as_array().tobytes() == x.tobytes()


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    real = lp.solve

    def counting(program, exact=False):
        calls.append(program)
        return real(program, exact=exact)

    monkeypatch.setattr(lp, "solve", counting)
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
def test_equal_bounds_solve_every_column(lp_calls, exact):
    # every bound is 1 and every column value 1, so no bound is below the best
    game = BimatrixGame(np.eye(4), np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]] * 2))
    solve_stackelberg(game, exact=exact)
    assert len(lp_calls) == 4


@pytest.mark.parametrize("exact", [False, True])
def test_equal_payoffs_keep_the_lowest_column(lp_calls, exact):
    # column 1 (bound 2) is visited first and has column value 1 at (1/2, 1/2);
    # column 0 (bound 1, equal to that value) has column value 1 at (0, 1)
    game = BimatrixGame(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    sol = solve_stackelberg(game, exact=exact)
    assert len(lp_calls) == 2
    assert sol == unpruned_stackelberg(game, exact=exact)
    assert sol.follower_response == 0
    assert sol.leader.probs == pytest.approx((0.0, 1.0), abs=1e-9)
    assert sol.leader_payoff == pytest.approx(1.0, abs=1e-9)


def test_the_column_value_ranks_the_columns_not_the_realized_payoff(lp_calls):
    # Column 0's LP value is 1/2, at x = (1/2, 1/2), where the follower ties
    # and takes column 1, so it realizes 1, as column 1 (LP value 1) does.
    # Ranked by realized payoff, column 0 would win as the lower index, but
    # only when it is solved, and its bound 1/2 lets either backend skip it.
    # Ranked by column value, column 1 wins on both backends.
    game = BimatrixGame(np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert bimatrix._column_bounds(game).tolist() == [0.5, 1.0]
    highs = solve_stackelberg(game)
    exact = solve_stackelberg(game, exact=True)
    assert len(lp_calls) == 2
    for sol in (highs, exact):
        assert sol.follower_response == 1 and sol.leader_payoff == pytest.approx(1.0, abs=1e-9)
