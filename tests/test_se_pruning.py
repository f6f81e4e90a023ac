"""Bound-ordered pruning of the Multiple-LPs solver.

``solve_stackelberg`` visits follower columns by descending leader bound
``max_i u_leader[i, j]`` and, on HiGHS, stops once a bound falls strictly
below the incumbent payoff; the exact backend solves every column. These
tests compare it with the plain all-columns loop of
``oracles.unpruned_stackelberg`` and with the exact backend, and count the
LPs it solves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksolve import lp
from stacksolve.bimatrix import BimatrixGame, solve_stackelberg, validate_stackelberg_solution

from .oracles import unpruned_stackelberg

# Payoffs of different commitments that tie exactly can still differ by a few
# ulps once evaluated in floats (4.4e-16 seen on integer-payoff games).
ROUNDING_TOL = 1e-12


@st.composite
def games(draw, max_n, max_m):
    """Random or small-integer payoffs; 1 x m and n x 1 shapes included."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    if draw(st.booleans()):
        entry = st.integers(0, 3).map(float)
    else:
        entry = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    ul = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    uf = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    return BimatrixGame(np.asarray(ul), np.asarray(uf))


def assert_agrees_with_unpruned(game, exact):
    pruned = solve_stackelberg(game, exact=exact)
    plain = unpruned_stackelberg(game, exact=exact)
    validate_stackelberg_solution(game, pruned)
    gap = abs(pruned.leader_payoff - plain.leader_payoff)
    assert gap <= 1e-9
    same = pruned.follower_response == plain.follower_response and np.allclose(
        pruned.leader.probs, plain.leader.probs, rtol=0.0, atol=1e-9
    )
    if not same:
        # a skipped column reached the same payoff through a tied response
        assert gap <= ROUNDING_TOL


@settings(max_examples=200)
@given(games(max_n=7, max_m=9))
def test_pruned_matches_unpruned_highs(game):
    assert_agrees_with_unpruned(game, exact=False)


@settings(max_examples=60)
@given(games(max_n=4, max_m=4))
def test_pruned_matches_unpruned_exact(game):
    assert_agrees_with_unpruned(game, exact=True)


@settings(max_examples=300)
@given(games(max_n=6, max_m=6))
def test_pruned_highs_matches_the_exact_backend(game):
    assert abs(solve_stackelberg(game).leader_payoff - solve_stackelberg(game, exact=True).leader_payoff) <= 1e-9


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    real = lp.solve

    def counting(program, exact=False):
        calls.append(program)
        return real(program, exact=exact)

    monkeypatch.setattr(lp, "solve", counting)
    return calls


# column 0 has the top bound 5, reached at row 0 where the follower strictly
# prefers column 0; every other bound is below 5
DOMINANT = BimatrixGame(
    np.array([[5.0, 1.0, 2.0], [0.0, 3.0, 4.0]]),
    np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]]),
)


def test_dominant_bound_solves_one_lp(lp_calls):
    sol = solve_stackelberg(DOMINANT)
    assert len(lp_calls) == 1
    assert sol.follower_response == 0 and sol.leader_payoff == pytest.approx(5.0)


def test_exact_backend_solves_every_column(lp_calls):
    sol = solve_stackelberg(DOMINANT, exact=True)
    assert len(lp_calls) == DOMINANT.m
    assert sol.follower_response == 0 and sol.leader_payoff == pytest.approx(5.0)


@pytest.mark.parametrize("exact", [False, True])
def test_equal_bounds_solve_every_column(lp_calls, exact):
    # every bound is 1, so no column is ever strictly below the incumbent
    game = BimatrixGame(np.eye(4), np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]] * 2))
    solve_stackelberg(game, exact=exact)
    assert len(lp_calls) == 4


@pytest.mark.parametrize("exact", [False, True])
def test_equal_payoffs_keep_the_lowest_column(lp_calls, exact):
    # column 1 (bound 2) is visited first and realizes 1 at (1/2, 1/2);
    # column 0 (bound 1, equal to that incumbent) realizes 1 at (0, 1)
    game = BimatrixGame(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    sol = solve_stackelberg(game, exact=exact)
    assert len(lp_calls) == 2
    assert sol.follower_response == 0
    assert sol.leader.probs == pytest.approx((0.0, 1.0), abs=1e-9)
    assert sol.leader_payoff == pytest.approx(1.0, abs=1e-9)
    plain = unpruned_stackelberg(game, exact=exact)
    assert plain.follower_response == 0
    assert plain.leader.probs == pytest.approx((0.0, 1.0), abs=1e-9)
