import random
from fractions import Fraction

import numpy as np
import pytest

from stacksolve import discretize as dz
from stacksolve.bimatrix import BimatrixGame, solve_stackelberg
from stacksolve.errors import InputError, SizeLimitError

from .instances import random_game_payoffs

APPENDIX_GAME = BimatrixGame(np.array([[1.0, 10.0], [0.0, 5.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_grid_params_parsing():
    assert dz.GridParams.from_eps("1/2").k == 2
    assert dz.GridParams.from_eps(0.5).k == 2
    assert dz.GridParams.from_eps(Fraction(1, 100)).k == 100
    assert dz.GridParams.from_eps(0.01).k == 100
    with pytest.raises(InputError):
        dz.GridParams.from_eps("2/3")
    with pytest.raises(InputError):
        dz.GridParams.from_eps(0.3)
    with pytest.raises(InputError):
        dz.GridParams(0)


def test_grid_strategies_half_step():
    grid = dz.grid_strategies(2, dz.GridParams(2))
    assert [g.probs for g in grid] == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]


def test_grid_strategies_single_strategy():
    assert [g.probs for g in dz.grid_strategies(1, dz.GridParams(7))] == [(1.0,)]


def test_grid_strategies_count_three_parts():
    grid = dz.grid_strategies(3, dz.GridParams(2))
    assert len(grid) == 6
    assert dz.grid_size(3, dz.GridParams(2)) == 6


def test_grid_cap():
    with pytest.raises(SizeLimitError):
        dz.grid_strategies(6, dz.GridParams(100), cap=1000)


def test_max_abs_payoff():
    assert dz.max_abs_payoff(APPENDIX_GAME) == 10.0
    assert dz.max_abs_payoff(BimatrixGame(np.zeros((2, 2)), np.zeros((2, 2)))) == 0.0
    game = random_game_payoffs(random.Random(1), 3, 3)
    assert dz.max_abs_payoff(game) <= 1.0


def test_almost_best_responses():
    assert dz.almost_best_responses(APPENDIX_GAME, (0.5, 0.5), 0.0) == {0, 1}
    assert dz.almost_best_responses(APPENDIX_GAME, (1.0, 0.0), 0.0) == {0}
    assert dz.almost_best_responses(APPENDIX_GAME, (1.0, 0.0), 2 * 10.0) == {0, 1}


def test_discretized_se_appendix_game():
    sol = dz.discretized_se(APPENDIX_GAME, dz.GridParams(100))
    assert sol.slack == pytest.approx(2 * 2 * 0.01 * 10.0)  # 0.4
    # one-sided guarantee; the relaxed follower overshoots here: at grid
    # point (0.7, 0.3) column R sits exactly at the slack and pays 8.5
    assert sol.leader_payoff >= 7.5 - sol.slack - 1e-12
    assert sol.leader_payoff == pytest.approx(8.5)
    assert sol.leader.probs == (0.7, 0.3)
    assert sol.grid_size == 101
    assert sol.candidates_examined == 101


def test_discretized_se_single_profile():
    game = BimatrixGame(np.array([[5.0]]), np.array([[3.0]]))
    sol = dz.discretized_se(game, dz.GridParams(10))
    assert sol.leader_payoff == 5.0
    assert sol.follower_payoff == 3.0
    assert sol.follower_response == 0


def test_returned_strategy_lies_on_grid():
    rng = random.Random(14)
    for _ in range(10):
        game = random_game_payoffs(rng, 3, 3)
        params = dz.GridParams(10)
        sol = dz.discretized_se(game, params)
        for p in sol.leader.probs:
            assert abs(p * params.k - round(p * params.k)) < 1e-9


def test_theorem_bound_and_membership_random_games():
    rng = random.Random(909)
    params = dz.GridParams(10)
    for trial in range(15):
        game = random_game_payoffs(rng, 3, 3)
        sol = dz.discretized_se(game, params)
        exact = solve_stackelberg(game).leader_payoff
        assert sol.leader_payoff >= exact - sol.slack - 1e-9, f"trial {trial}"
        assert sol.follower_response in dz.almost_best_responses(game, sol.leader, sol.slack)
        assert dz.verify_eps_approx(game, sol, exact)


def test_grid_refinement_keeps_lower_bound():
    rng = random.Random(30)
    for _ in range(8):
        game = random_game_payoffs(rng, 2, 3)
        coarse = dz.discretized_se(game, dz.GridParams(4))
        fine = dz.discretized_se(game, dz.GridParams(8))
        exact = solve_stackelberg(game).leader_payoff
        assert coarse.leader_payoff >= exact - coarse.slack - 1e-9
        assert fine.leader_payoff >= exact - coarse.slack - 1e-9  # old slack dominates new


def test_exact_on_grid_with_zero_slack_possible():
    # all payoffs equal: M > 0 but every response ties, so the grid point
    # matching the exact commitment is found with payoff equal to exact
    game = BimatrixGame(np.array([[2.0, 2.0], [2.0, 2.0]]), np.array([[1.0, 1.0], [1.0, 1.0]]))
    sol = dz.discretized_se(game, dz.GridParams(2))
    exact = solve_stackelberg(game).leader_payoff
    assert sol.leader_payoff == exact == 2.0


def test_verify_eps_approx_rejects_bad_response():
    from stacksolve.bimatrix import MixedStrategy

    # against (1, 0) the only best response is L; forcing R with zero slack
    # must fail the almost-best-response clause
    broken = dz.ApproxSolution(
        leader=MixedStrategy((1.0, 0.0)),
        follower_response=1,
        leader_payoff=10.0,
        follower_payoff=0.0,
        slack=0.0,
        max_payoff=10.0,
        grid_size=1,
        candidates_examined=1,
    )
    assert not dz.verify_eps_approx(APPENDIX_GAME, broken, 7.5)


def test_verify_eps_approx_vacuous_slack():
    sol = dz.discretized_se(APPENDIX_GAME, dz.GridParams(4))
    vacuous = dz.ApproxSolution(
        leader=sol.leader,
        follower_response=sol.follower_response,
        leader_payoff=sol.leader_payoff,
        follower_payoff=sol.follower_payoff,
        slack=2 * sol.max_payoff,
        max_payoff=sol.max_payoff,
        grid_size=sol.grid_size,
        candidates_examined=sol.candidates_examined,
    )
    assert dz.verify_eps_approx(APPENDIX_GAME, vacuous, 7.5)
