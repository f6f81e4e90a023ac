import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksolve import discretize as dz
from stacksolve import gen
from stacksolve.bimatrix import BimatrixGame, MixedStrategy, solve_stackelberg
from stacksolve.errors import InputError, SizeLimitError

from .instances import BOUNDARY_GAMES, bimatrix_games, random_game_payoffs, sevenths_game
from .oracles import _compositions, discretized_se_reference, grid_strategies, keep_all

APPENDIX_GAME = BimatrixGame(np.array([[1.0, 10.0], [0.0, 5.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_grid_params_parsing():
    assert dz.GridParams.from_eps("1/2").k == 2
    assert dz.GridParams.from_eps(0.5).k == 2
    assert dz.GridParams.from_eps(Fraction(1, 100)).k == 100
    # a float is read at its binary value, which is 1/k only for powers of two
    assert dz.GridParams.from_eps(2.0**-20).k == 1 << 20
    for inexact in ("2/3", 0.3, 0.01):
        with pytest.raises(InputError):
            dz.GridParams.from_eps(inexact)
    # each of these used to escape as a ValueError, ZeroDivisionError or OverflowError
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -0.5, "abc", "1/0", 1e-310):
        with pytest.raises(InputError):
            dz.GridParams.from_eps(bad)
    with pytest.raises(InputError):
        dz.GridParams(0)


def test_grid_strategies_half_step():
    grid = grid_strategies(2, dz.GridParams(2))
    assert [g.probs for g in grid] == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]


def test_grid_strategies_single_strategy():
    assert [g.probs for g in grid_strategies(1, dz.GridParams(7))] == [(1.0,)]


def test_grid_strategies_count_three_parts():
    grid = grid_strategies(3, dz.GridParams(2))
    assert len(grid) == 6
    assert dz.grid_size(3, dz.GridParams(2)) == 6


def test_grid_cap():
    with pytest.raises(SizeLimitError):
        grid_strategies(6, dz.GridParams(100), cap=1000)


def test_discretized_se_refuses_grids_above_the_cap():
    # C(1007, 7) points, about 2e16; the cap is checked before any point is built
    game = BimatrixGame(np.zeros((8, 2)), np.zeros((8, 2)))
    assert dz.grid_size(8, dz.GridParams(1000)) > dz.DEFAULT_GRID_CAP
    with pytest.raises(SizeLimitError, match="above the cap of 10000000"):
        dz.discretized_se(game, dz.GridParams(1000))


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
    assert 1 <= sol.candidates_examined <= sol.grid_size


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


@settings(max_examples=150)
@given(bimatrix_games(max_n=4, max_m=5), st.integers(1, 40))
def test_discretized_se_is_an_eps_approximation_of_the_exact_se(game, k):
    sol = dz.discretized_se(game, dz.GridParams(k))
    assert dz.verify_eps_approx(game, sol, solve_stackelberg(game, exact=True).leader_payoff)


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


@pytest.mark.parametrize("name", BOUNDARY_GAMES)
def test_checkers_accept_a_response_on_the_slack_boundary(name):
    game, eps = BOUNDARY_GAMES[name]
    sol = dz.discretized_se(game, dz.GridParams.from_eps(eps))
    assert sol.follower_response == 3
    assert 3 in dz.almost_best_responses(game, sol.leader, sol.slack)
    assert dz.verify_eps_approx(game, sol, solve_stackelberg(game, exact=True).leader_payoff)


def test_checkers_accept_every_answer_at_large_payoff_scales():
    # 2 x 4 games of v * s / 7 with v = -3..3 and s = 1e5..1e9, whose
    # columns often land on the slack boundary; in a few of them the
    # checkers' single-row product puts the scan's response below
    # best - slack - ZERO
    rng = random.Random(1)
    for trial in range(1000):
        k, scale = rng.randint(2, 8), 10.0 ** rng.randint(5, 9)
        ul = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        uf = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        game = sevenths_game(scale, ul, uf)
        sol = dz.discretized_se(game, dz.GridParams(k))
        assert sol.follower_response in dz.almost_best_responses(game, sol.leader, sol.slack), trial
        assert dz.verify_eps_approx(game, sol, solve_stackelberg(game).leader_payoff), trial


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


@pytest.mark.parametrize("probs", [(1.0,), (0.5, 0.25, 0.25)], ids=["short", "long"])
def test_wrong_length_strategy_is_input_error(probs):
    with pytest.raises(InputError, match="leader strategy has"):
        dz.almost_best_responses(APPENDIX_GAME, probs, 0.0)
    sol = replace(dz.discretized_se(APPENDIX_GAME, dz.GridParams(4)), leader=MixedStrategy(probs))
    with pytest.raises(InputError, match="leader strategy has"):
        dz.verify_eps_approx(APPENDIX_GAME, sol, 7.5)


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


# ---------------------------------------------------------------------------
# block enumeration and chunk scan against the tuple generator and row loop

# Equal payoffs of different grid points can differ by a few ulps once
# evaluated in floats, as in test_se_pruning.
ROUNDING_TOL = 1e-12


@pytest.mark.parametrize("chunk", [1, 7, 64, dz._CHUNK])
def test_grid_blocks_follow_composition_order(monkeypatch, chunk):
    monkeypatch.setattr(dz, "_CHUNK", chunk)
    for n in range(1, 7):
        for k in range(0, 13):
            blocks = list(dz._grid_blocks(n, k, keep_all))
            assert all(b.dtype == np.int64 and b.shape[1] == n and 1 <= len(b) <= chunk for b in blocks)
            assert [tuple(row) for b in blocks for row in b.tolist()] == list(_compositions(n, k))


def test_grid_blocks_split_one_long_block():
    k = 2 * dz._CHUNK + 5
    blocks = list(dz._grid_blocks(2, k, keep_all))
    assert [len(b) for b in blocks] == [dz._CHUNK, dz._CHUNK, 6]
    assert [tuple(row) for b in blocks for row in b.tolist()] == list(_compositions(2, k))


def test_grid_strategies_follow_composition_order():
    params = dz.GridParams(5)
    want = [tuple(c / 5 for c in combo) for combo in _compositions(4, 5)]
    assert [g.probs for g in grid_strategies(4, params)] == want


@pytest.mark.parametrize("chunk", [1, 7, 64, dz._CHUNK])
def test_exact_ties_keep_the_first_point_and_lowest_column(monkeypatch, chunk):
    # equal leader payoffs tie exactly everywhere, so the first grid point
    # (0, ..., 0, 1) wins, with its lowest relaxed response; every bound
    # equals the incumbent, so no point is pruned
    monkeypatch.setattr(dz, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for n, m, k in [(2, 3, 20), (3, 4, 9), (5, 2, 6)]:
        for value in (0.0, 0.5):
            game = BimatrixGame(np.full((n, m), value), random_game_payoffs(rng, n, m).u_follower)
            sol = dz.discretized_se(game, dz.GridParams(k))
            assert sol.leader.probs == (0.0,) * (n - 1) + (1.0,)
            assert sol.follower_response == min(dz.almost_best_responses(game, sol.leader, sol.slack))
            assert sol.candidates_examined == sol.grid_size


@st.composite
def grid_games(draw):
    """n = 1..6 leader rows, m = 1..8 columns, k = 1..12; half the games
    have 0-3 integer payoffs, so ties are common."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, 12))
    if draw(st.booleans()):
        entry = st.integers(0, 3).map(float)
    else:
        entry = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    ul = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    uf = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    return BimatrixGame(np.asarray(ul), np.asarray(uf)), dz.GridParams(k)


@settings(max_examples=300)
@given(grid_games(), st.sampled_from([1, 7, 64, dz._CHUNK]))
def test_discretized_se_matches_reference(case, chunk):
    game, params = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dz, "_CHUNK", chunk)
        got = dz.discretized_se(game, params)
    want = discretized_se_reference(game, params)
    assert (got.slack, got.max_payoff) == (want.slack, want.max_payoff)
    assert got.grid_size == want.grid_size
    assert 1 <= got.candidates_examined <= got.grid_size
    assert abs(got.leader_payoff - want.leader_payoff) <= ROUNDING_TOL
    if (got.leader, got.follower_response) == (want.leader, want.follower_response):
        assert abs(got.follower_payoff - want.follower_payoff) <= ROUNDING_TOL
    else:
        # a tie the two scans rounded differently
        assert got.follower_response in dz.almost_best_responses(game, got.leader, got.slack)


# ---------------------------------------------------------------------------
# branch and bound over the grid prefixes


@pytest.mark.parametrize("chunk", [1, 7, 64, dz._CHUNK])
def test_grid_blocks_drop_the_rows_below_rejected_prefixes(monkeypatch, chunk):
    # rejecting every prefix whose first numerator is odd drops exactly the
    # rows that start with an odd numerator, at whatever depth it is seen
    monkeypatch.setattr(dz, "_CHUNK", chunk)

    def keep(prefixes, rems):
        assert len(prefixes) == len(rems) >= 1
        if prefixes.shape[1] == 0:
            return np.ones(len(rems), dtype=bool)
        return prefixes[:, 0] % 2 == 0

    for n in range(3, 7):
        for k in range(0, 11):
            blocks = list(dz._grid_blocks(n, k, keep))
            assert all(1 <= len(b) <= chunk for b in blocks)
            want = [c for c in _compositions(n, k) if c[0] % 2 == 0]
            assert [tuple(row) for b in blocks for row in b.tolist()] == want


def test_pruning_skips_most_of_a_random_grid():
    # a fixed game, so pruning cannot silently switch off
    game, params = gen.random_bimatrix(0, 4, 8), dz.GridParams(60)
    sol = dz.discretized_se(game, params)
    assert sol.candidates_examined < sol.grid_size / 10
    want = discretized_se_reference(game, params)
    assert (sol.leader, sol.follower_response) == (want.leader, want.follower_response)
    assert abs(sol.leader_payoff - want.leader_payoff) <= ROUNDING_TOL


def test_pruning_drops_the_columns_the_follower_rules_out():
    # the leader's best columns are out of the follower's reach here, so a
    # leader-only bound scores all 10,011 points
    game, params = gen.random_bimatrix(1, 3, 8), dz.GridParams(140)
    sol = dz.discretized_se(game, params)
    assert sol.candidates_examined < sol.grid_size / 10
    want = discretized_se_reference(game, params)
    assert (sol.leader, sol.follower_response) == (want.leader, want.follower_response)
    assert abs(sol.leader_payoff - want.leader_payoff) <= ROUNDING_TOL


def test_pruned_scan_keeps_chunks_bounded_on_one_long_block(monkeypatch):
    k = 2 * dz._CHUNK + 5
    game = gen.random_bimatrix(1, 2, 5)
    calls = []
    blocks = dz._grid_blocks

    def recorded(n, k, keep):
        calls.append(keep is not None)
        for rows in blocks(n, k, keep):
            calls.append(len(rows))
            yield rows

    monkeypatch.setattr(dz, "_grid_blocks", recorded)
    sol = dz.discretized_se(game, dz.GridParams(k))
    assert calls[0] is True and calls[1:] and all(1 <= c <= dz._CHUNK for c in calls[1:])
    assert sum(calls[1:]) == sol.candidates_examined
    want = discretized_se_reference(game, dz.GridParams(k))
    assert (sol.leader, sol.follower_response) == (want.leader, want.follower_response)


@st.composite
def scaled_grid_games(draw):
    """Continuous random games, so exact ties do not occur, with n = 1..6,
    m = 1..8 and k = 1..30. Half are scaled as a whole by 2**e, |e| <= 600;
    the other half mix magnitudes, each entry scaled by its own 2**e with
    |e| <= 300. Returns the game, the grid and M."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ul, uf = rng.uniform(-1.0, 1.0, (2, n, m))
    if draw(st.booleans()):
        scale = 2.0 ** draw(st.integers(-600, 600))
        ul, uf = ul * scale, uf * scale
    else:
        ul = ul * 2.0 ** rng.integers(-300, 301, (n, m))
        uf = uf * 2.0 ** rng.integers(-300, 301, (n, m))
    game = BimatrixGame(ul, uf)
    return game, dz.GridParams(k), dz.max_abs_payoff(game)


@settings(max_examples=300)
@given(scaled_grid_games())
def test_pruning_holds_at_every_scale(case):
    game, params, scale = case
    got = dz.discretized_se(game, params)
    want = discretized_se_reference(game, params)
    assert (got.leader, got.follower_response) == (want.leader, want.follower_response)
    assert abs(got.leader_payoff - want.leader_payoff) <= ROUNDING_TOL * scale
    assert 1 <= got.candidates_examined <= got.grid_size


def test_pruning_holds_on_subnormal_payoffs():
    # every payoff is a few multiples of the smallest subnormal, so u M
    # underflows and the margin is all eta. Underflow rounds the products
    # of the first point (0, 0, 0.8, 0.1, 0.1) up to the vertex's payoff;
    # with a margin of u M alone, its prefix's bound rounds below it and
    # the scan drops the winner
    tiny = 2.0**-1074
    ul = np.array([[-7, 4], [-7, -3], [-11, 11], [3, 5], [-3, 7]]) * tiny
    uf = np.array([[-1, 3], [-14, 12], [-2, 0], [-9, -6], [-4, -2]]) * tiny
    game, params = BimatrixGame(ul, uf), dz.GridParams(30)
    got = dz.discretized_se(game, params)
    want = discretized_se_reference(game, params)
    assert (got.leader, got.follower_response, got.leader_payoff) == (
        want.leader,
        want.follower_response,
        want.leader_payoff,
    )
    assert got.leader.probs == (0.0, 0.0, 0.8, 0.1, 0.1)
