import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksolve.bimatrix import (
    FOLLOWER,
    LEADER,
    BimatrixGame,
    MixedStrategy,
    StackelbergSolution,
    expected_utilities,
    follower_best_response,
    solve_maximin,
    solve_nash_support_enumeration,
    solve_stackelberg,
    validate_stackelberg_solution,
)
from stacksolve.errors import InputError, SizeLimitError, ToolkitError
from stacksolve.gen import random_bimatrix
from stacksolve.tolerances import GUARANTEE

from .instances import random_game_payoffs
from .oracles import grid_search_stackelberg, realized_maximin_profile

# The 2x2 comparison game where the commitment, simultaneous-move, and
# worst-case solutions all differ.
APPENDIX_GAME = BimatrixGame(np.array([[1.0, 10.0], [0.0, 5.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))

L, R = 0, 1


def test_expected_utilities_pure_corner():
    assert expected_utilities(APPENDIX_GAME, (1, 0), (1, 0)) == (1.0, 1.0)


def test_expected_utilities_commitment_profile():
    lpay, fpay = expected_utilities(APPENDIX_GAME, (0.5, 0.5), (0, 1))
    assert abs(lpay - 7.5) < 1e-12
    assert abs(fpay - 0.5) < 1e-12


def test_expected_utilities_zero_game():
    zero = BimatrixGame(np.zeros((1, 1)), np.zeros((1, 1)))
    assert expected_utilities(zero, (1,), (1,)) == (0.0, 0.0)


def test_expected_utilities_dimension_mismatch():
    with pytest.raises(InputError):
        expected_utilities(APPENDIX_GAME, (1, 0, 0), (1, 0))


def test_follower_best_response_tie_favors_leader():
    assert follower_best_response(APPENDIX_GAME, (0.5, 0.5)) == R


def test_follower_best_response_plain():
    assert follower_best_response(APPENDIX_GAME, (1, 0)) == L


def test_follower_best_response_single_strategy():
    game = BimatrixGame(np.array([[2.0]]), np.array([[3.0]]))
    assert follower_best_response(game, (1,)) == 0


def test_follower_best_response_dominates_all_columns():
    rng = random.Random(11)
    for _ in range(50):
        game = random_game_payoffs(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        x = [rng.random() for _ in range(game.n)]
        total = sum(x)
        x = [v / total for v in x]
        j = follower_best_response(game, x)
        vals = np.asarray(x) @ game.u_follower
        assert vals[j] >= vals.max() - 1e-9


def test_validation_rejects_a_response_tied_only_by_an_absolute_margin():
    # every follower payoff is below EQUAL, but at x = (1, 0) column 1 pays
    # the follower 1e-10 more: its tie is read on the unit follower payoffs
    game = BimatrixGame(np.array([[1.0, 0.0], [0.0, 0.5]]), 1e-10 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = MixedStrategy((1.0, 0.0))
    assert follower_best_response(game, x) == 1
    with pytest.raises(ToolkitError, match="best response"):
        validate_stackelberg_solution(game, StackelbergSolution(x, 0, 1.0, 0.0))
    sol = solve_stackelberg(game)
    validate_stackelberg_solution(game, sol)
    assert sol.leader_payoff == pytest.approx(0.5, abs=1e-9)


def test_stackelberg_appendix_game():
    sol = solve_stackelberg(APPENDIX_GAME)
    assert sol.follower_response == R
    assert abs(sol.leader_payoff - 7.5) < 1e-6
    assert np.allclose(sol.leader.probs, (0.5, 0.5), atol=1e-6)
    validate_stackelberg_solution(APPENDIX_GAME, sol)


def test_stackelberg_zero_game():
    zero = BimatrixGame(np.zeros((2, 2)), np.zeros((2, 2)))
    sol = solve_stackelberg(zero)
    assert abs(sol.leader_payoff) < 1e-9


def test_stackelberg_matches_grid_search_on_random_2x2():
    rng = random.Random(101)
    for trial in range(25):
        game = random_game_payoffs(rng, 2, 2)
        sol = solve_stackelberg(game)
        grid = grid_search_stackelberg(game.u_leader, game.u_follower, steps=1000)
        assert sol.leader_payoff >= grid - 2e-3, f"trial {trial}"
        validate_stackelberg_solution(game, sol)


def test_stackelberg_affine_rescale_invariance():
    rng = random.Random(55)
    for _ in range(10):
        game = random_game_payoffs(rng, 2, 3)
        alpha = rng.uniform(0.5, 3.0)
        beta = rng.uniform(-2.0, 2.0)
        scaled = BimatrixGame(alpha * game.u_leader + beta, game.u_follower)
        base = solve_stackelberg(game, exact=True)
        reval = solve_stackelberg(scaled, exact=True)
        assert abs((reval.leader_payoff - beta) / alpha - base.leader_payoff) < 1e-9


def test_maximin_appendix_game():
    strat, value = solve_maximin(APPENDIX_GAME, LEADER)
    assert np.allclose(strat.probs, (1.0, 0.0), atol=1e-6)
    assert abs(value - 1.0) < 1e-6
    fstrat, fvalue = solve_maximin(APPENDIX_GAME, FOLLOWER)
    assert np.allclose(fstrat.probs, (0.5, 0.5), atol=1e-6)
    assert abs(fvalue - 0.5) < 1e-6


@st.composite
def zero_sum_games(draw, max_n, max_m):
    """uF = -uL, with random or small-integer leader payoffs (integers give many ties)."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    if draw(st.booleans()):
        entry = st.integers(-3, 3).map(float)
    else:
        entry = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    ul = np.asarray(draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)))
    return BimatrixGame(ul, -ul)


def assert_se_is_maximin(game, exact):
    # In a zero-sum game the follower's best reply minimizes the leader's
    # payoff, so committing is worth exactly the leader's maximin value
    # (Korzhyk, Yin, Kiekintveld, Conitzer & Tambe, JAIR 2011).
    se = solve_stackelberg(game, exact=exact)
    _, value = solve_maximin(game, LEADER, exact=exact)
    assert abs(se.leader_payoff - value) <= 1e-9


@settings(max_examples=150)
@given(zero_sum_games(max_n=6, max_m=6))
def test_zero_sum_se_equals_maximin_highs(game):
    assert_se_is_maximin(game, exact=False)


@settings(max_examples=40)
@given(zero_sum_games(max_n=4, max_m=4))
def test_zero_sum_se_equals_maximin_exact(game):
    assert_se_is_maximin(game, exact=True)


@settings(max_examples=300)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_zero_sum_se_equals_every_nash_value(n, m, seed):
    # Random payoffs make the game nondegenerate, so support enumeration
    # finds its equilibria; in a zero-sum game each is worth the game's
    # value to the leader, and so is committing (Korzhyk et al., JAIR 2011).
    payoffs = random_game_payoffs(random.Random(seed), n, m, -1.0, 1.0).u_leader
    game = BimatrixGame(payoffs, -payoffs)
    se = solve_stackelberg(game)
    equilibria = solve_nash_support_enumeration(game)
    assert equilibria
    for x, y in equilibria:
        assert abs(expected_utilities(game, x, y)[0] - se.leader_payoff) <= 1e-9


def test_maximin_matching_pennies():
    game = BimatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]]))
    strat, value = solve_maximin(game, LEADER)
    assert np.allclose(strat.probs, (0.5, 0.5), atol=1e-6)
    assert abs(value) < 1e-6
    # best-response check: guaranteed value met against both pure columns
    for j in range(2):
        pay, _ = expected_utilities(game, strat, MixedStrategy.point_mass(2, j))
        assert pay >= value - 1e-9


def test_realized_maximin_appendix_game():
    xl, yf, lpay, fpay = realized_maximin_profile(APPENDIX_GAME)
    assert abs(lpay - 5.5) < 1e-6
    relpay, refpay = expected_utilities(APPENDIX_GAME, xl, yf)
    assert relpay == lpay and refpay == fpay


def test_realized_maximin_zero_sum_sums_to_zero():
    rng = random.Random(3)
    for _ in range(10):
        ul = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
        game = BimatrixGame(ul, -ul)
        _, _, lpay, fpay = realized_maximin_profile(game)
        assert abs(lpay + fpay) < 1e-9


def test_nash_appendix_game_contains_pure_profile():
    eqs = solve_nash_support_enumeration(APPENDIX_GAME)
    assert any(
        np.allclose(x.probs, (1, 0), atol=1e-9) and np.allclose(y.probs, (1, 0), atol=1e-9)
        for x, y in eqs
    )


def test_nash_single_strategy_game():
    game = BimatrixGame(np.array([[2.0]]), np.array([[3.0]]))
    eqs = solve_nash_support_enumeration(game)
    assert len(eqs) == 1
    assert eqs[0][0].probs == (1.0,) and eqs[0][1].probs == (1.0,)


def test_nash_matching_pennies_unique_mixed():
    game = BimatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]]))
    eqs = solve_nash_support_enumeration(game)
    assert len(eqs) == 1
    x, y = eqs[0]
    assert np.allclose(x.probs, (0.5, 0.5)) and np.allclose(y.probs, (0.5, 0.5))
    # mutual best-response check
    for j in range(2):
        _, fpay = expected_utilities(game, x, MixedStrategy.point_mass(2, j))
        _, fbest = expected_utilities(game, x, y)
        assert fbest >= fpay - 1e-9


def equilibrium_bits(game):
    return [(x.as_array().tobytes(), y.as_array().tobytes()) for x, y in solve_nash_support_enumeration(game)]


@pytest.mark.parametrize("e", [-500, -123, -40, 40, 123, 500])
def test_nash_equilibria_commute_with_power_of_two_scaling(e):
    # support enumeration compares payoffs on each player's unit scale, so
    # 2^e times the game has the same equilibria, bit for bit; with an
    # absolute margin, 2^-40 listed 776 equilibria of these games, not 64
    for seed in range(30):
        base = random_bimatrix(seed, 4, 4)
        games = [base, BimatrixGame(np.floor(4 * base.u_leader), np.floor(4 * base.u_follower))]
        for game in games:
            scaled = BimatrixGame(np.ldexp(game.u_leader, e), np.ldexp(game.u_follower, e))
            assert equilibrium_bits(scaled) == equilibrium_bits(game), seed


def test_nash_size_limit():
    big = BimatrixGame(np.zeros((9, 2)), np.zeros((9, 2)))
    with pytest.raises(SizeLimitError):
        solve_nash_support_enumeration(big)


def test_commitment_weakly_beats_nash_and_maximin():
    rng = random.Random(2024)
    for trial in range(100):
        n = m = 2 if trial % 2 == 0 else 3
        game = random_game_payoffs(rng, n, m)
        sol = solve_stackelberg(game)
        for x, y in solve_nash_support_enumeration(game):
            nash_leader, _ = expected_utilities(game, x, y)
            assert sol.leader_payoff >= nash_leader - 1e-7, f"trial {trial}"
        _, guaranteed = solve_maximin(game, LEADER)
        assert sol.leader_payoff >= guaranteed - 1e-7, f"trial {trial}"


def test_json_round_trip():
    import json

    text = json.dumps(APPENDIX_GAME.to_json_obj())
    game = BimatrixGame.from_json(text)
    assert np.array_equal(game.u_leader, APPENDIX_GAME.u_leader)
    assert np.array_equal(game.u_follower, APPENDIX_GAME.u_follower)
    with pytest.raises(InputError):
        BimatrixGame.from_json('{"n": 3, "m": 2, "uL": [[1, 2]], "uF": [[1, 2]]}')
    # a 1 x 1 game whose n or m is a boolean: True == 1 passed the shape check
    BimatrixGame.from_json('{"n": 1, "m": 1, "uL": [[1]], "uF": [[0]]}')
    for n, m in (("true", "1"), ("1", "true")):
        with pytest.raises(InputError, match="boolean"):
            BimatrixGame.from_json(f'{{"n": {n}, "m": {m}, "uL": [[1]], "uF": [[0]]}}')


def test_game_validation():
    with pytest.raises(InputError):
        BimatrixGame(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(InputError):
        BimatrixGame(np.array([[np.inf]]), np.array([[0.0]]))
    with pytest.raises(InputError):
        MixedStrategy((0.5, 0.4))
    with pytest.raises(InputError):
        MixedStrategy((1.5, -0.5))


@pytest.mark.parametrize("leader_scale, follower_scale", [(1e5, 1e-3), (1.0, 1e-11)])
def test_highs_matches_exact_on_badly_scaled_games(leader_scale, follower_scale):
    # Unscaled, HiGHS failed with "Not Set" on some of the first kind and
    # dropped the follower rows of the second (entries below its 1e-9 zero).
    rng = np.random.default_rng(5)
    for _ in range(200 if follower_scale > 1e-9 else 60):
        n, m = rng.integers(2, 7, size=2)
        game = BimatrixGame(rng.random((n, m)) * leader_scale, rng.random((n, m)) * follower_scale)
        sol = solve_stackelberg(game)
        validate_stackelberg_solution(game, sol)
        exact = solve_stackelberg(game, exact=True).leader_payoff
        assert sol.leader_payoff == pytest.approx(exact, rel=1e-9, abs=0.0)


def test_highs_matches_exact_with_rows_and_columns_scaled_apart():
    # HiGHS's equilibration is for rows and columns far apart in scale, and
    # the column LPs run without it: uF's columns and uL's rows each carry
    # their own 10^k, k in [-6, 0], on uniform and on 0-3 integer games
    rng = np.random.default_rng(11)
    for i in range(600):
        n, m = rng.integers(2, 13, size=2)
        ul, uf = rng.random((n, m)), rng.random((n, m))
        if i % 2:
            ul, uf = np.floor(4 * ul), np.floor(4 * uf)
        rows, cols = 10.0 ** rng.integers(-6, 1, size=(n, 1)), 10.0 ** rng.integers(-6, 1, size=m)
        game = BimatrixGame(ul * rows, uf * cols)
        sol = solve_stackelberg(game)
        validate_stackelberg_solution(game, sol)
        exact = solve_stackelberg(game, exact=True).leader_payoff
        assert abs(sol.leader_payoff - exact) <= GUARANTEE * max(1.0, np.abs(game.u_leader).max())


# uF[0, 0] - uF[0, 1] is 2e308, beyond the float range
HUGE_FOLLOWER_GAME = BimatrixGame(np.array([[1.0, 2.0], [3.0, 0.0]]), np.array([[1e308, -1e308], [0.0, 1.0]]))


@pytest.mark.parametrize("exact", [False, True])
def test_follower_payoffs_near_the_float_limit_solve_as_the_halved_game(exact):
    # halving uF is exact and moves no follower best response
    game = HUGE_FOLLOWER_GAME
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_stackelberg(game, exact=exact)
    validate_stackelberg_solution(game, sol)
    half = solve_stackelberg(BimatrixGame(game.u_leader, game.u_follower / 2), exact=exact)
    assert (sol.leader, sol.follower_response, sol.leader_payoff) == (
        half.leader, half.follower_response, half.leader_payoff)
    assert sol.follower_payoff == 2 * half.follower_payoff
