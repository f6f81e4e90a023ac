"""Shared instance builders for the test suites."""

from __future__ import annotations

import itertools
import random

import numpy as np
from hypothesis import strategies as st

from stacksolve.bimatrix import BimatrixGame
from stacksolve.incentive import (
    ExplicitFamily,
    IncentiveInstance,
    IncentiveLeaderStrategy,
    PathFamily,
)

S, A, B, T = 0, 1, 2, 3


def random_game_payoffs(rng, n: int, m: int, low: float = 0.0, high: float = 1.0) -> BimatrixGame:
    """Uniform random payoffs from a ``random.Random``-style generator."""
    ul = [[low + (high - low) * rng.random() for _ in range(m)] for _ in range(n)]
    uf = [[low + (high - low) * rng.random() for _ in range(m)] for _ in range(n)]
    return BimatrixGame(np.asarray(ul), np.asarray(uf))


def sevenths_game(scale: float, ul, uf) -> BimatrixGame:
    """The game whose payoffs are v * scale / 7 for the integers v of ``ul`` and ``uf``."""
    return BimatrixGame(np.asarray(ul) * scale / 7, np.asarray(uf) * scale / 7)


# (game, eps) pairs where the eps-grid's chunk scan admits column 3 at
# best - slack - ZERO or just above, while a single-row product of the same
# x puts it below, by 2.9e-11 in A and 3.0e-8 in B: far more than ZERO.
BOUNDARY_GAMES = {
    "A": (sevenths_game(1e6, [[-1, 1, -1, 3], [-2, -2, -2, -1]], [[1, 1, 0, -3], [-3, 0, -2, 2]]), "1/6"),
    "B": (sevenths_game(1e9, [[-3, -1, -1, 2], [2, -2, -2, 2]], [[1, 0, 3, 2], [-3, -3, 3, -3]]), "1/7"),
}


@st.composite
def bimatrix_games(draw, max_n: int, max_m: int) -> BimatrixGame:
    """Hypothesis games: payoffs in [0, 1] or small integers 0-3; 1 x m and n x 1 shapes included."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    if draw(st.booleans()):
        entry = st.integers(0, 3).map(float)
    else:
        entry = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    ul = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    uf = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    return BimatrixGame(np.asarray(ul), np.asarray(uf))


def commit_instance(parallel: int = 3) -> IncentiveInstance:
    """The s-a-b-t taxation graph: unit chain, 2.2 s-b copies, 2.4 a-t copies.

    Costs are the negated follower rewards; the leader has no element reward.

    Without incentives the commitment value is (0.6k+1)/(k+1) for
    k = ``parallel`` copies (0.7 at the default k = 3): spreading bypass mass
    g over the copies keeps the chain a best response while
    1 - g <= 0.6 + g/k. The paper's 0.6 is the chain-only value, reached when
    the bypasses cannot be taxed, i.e. the k -> infinity limit.
    """
    edges = [("sa", S, A), ("ab", A, B), ("bt", B, T)]
    cost = {"sa": 1.0, "ab": 1.0, "bt": 1.0}
    for i in range(parallel):
        edges.append((f"sb{i + 1}", S, B))
        cost[f"sb{i + 1}"] = 2.2
        edges.append((f"at{i + 1}", A, T))
        cost[f"at{i + 1}"] = 2.4
    ids = tuple(e[0] for e in edges)
    return IncentiveInstance(
        elements=ids,
        follower_reward={e: -cost[e] for e in ids},
        leader_reward={e: 0.0 for e in ids},
        family=PathFamily(num_vertices=4, edges=tuple(edges), source=S, sink=T),
    )


def grid_instance(rng: random.Random, rows: int, cols: int) -> IncentiveInstance:
    """A rows x cols vertex grid from corner to corner, edge costs 1 + U[0, 0.1]."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((f"h{i}_{j}", v, v + 1))
            if i + 1 < rows:
                edges.append((f"v{i}_{j}", v, v + cols))
    ids = tuple(e[0] for e in edges)
    return IncentiveInstance(
        elements=ids,
        follower_reward={e: -(1.0 + 0.1 * rng.random()) for e in ids},
        leader_reward={e: 0.0 for e in ids},
        family=PathFamily(num_vertices=rows * cols, edges=tuple(edges), source=0, sink=rows * cols - 1),
    )


COMMIT_X = {"sa": 0.4, "bt": 0.6}
CHAIN_PATH = ("ab", "bt", "sa")  # set id of the s-a-b-t path
SAT_PATH = ("at1", "sa")
SBT_PATH = ("bt", "sb1")


def strategy(x, incentives=None) -> IncentiveLeaderStrategy:
    return IncentiveLeaderStrategy(dict(x), dict(incentives or {}))


def random_explicit_incentive(rng: random.Random, max_elements: int = 4, max_sets: int = 6) -> IncentiveInstance:
    """A random explicit-family instance within the desk-scale bounds."""
    k = rng.randrange(2, max_elements + 1)
    elements = tuple(f"e{i}" for i in range(k))
    c = {e: rng.uniform(-2.0, 2.0) for e in elements}
    big_c = {e: rng.uniform(-1.0, 1.0) for e in elements}
    nonempty = [frozenset(s) for r in range(1, k + 1) for s in itertools.combinations(elements, r)]
    count = rng.randrange(1, min(max_sets, len(nonempty)) + 1)
    sets = tuple(rng.sample(nonempty, count))
    return IncentiveInstance(elements, c, big_c, ExplicitFamily(sets))


def random_incentive_strategy(rng: random.Random, inst: IncentiveInstance) -> IncentiveLeaderStrategy:
    raw = [rng.random() + 1e-9 for _ in inst.elements]
    total = sum(raw)
    x = {e: v / total for e, v in zip(inst.elements, raw)}
    incentives = {}
    for members in inst.family.sets:
        if rng.random() < 0.4:
            incentives[tuple(sorted(members))] = rng.uniform(0.0, 1.5)
    return IncentiveLeaderStrategy(x, incentives)
