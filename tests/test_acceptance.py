"""Acceptance suite: one test per stated criterion, with timing budgets.

Two criteria are stated in the form the implemented methods guarantee:

- 2b checks the paper's no-incentive value 0.6 on the chain-only game, where
  the leader can tax only the s-a-b-t chain, and the value
  (0.6k+1)/(k+1) on the full instance with k parallel bypass copies (0.6 is
  its k -> infinity limit).
- 7b checks the grid's one-sided guarantee on the Appendix game: the leader
  payoff is at most the slack below the exact value 7.5, the response is
  within the slack of a best response, and the payoff stays at or below
  8.5, the best a leader can reach against a follower relaxed by that slack.
"""

import random
import time

import numpy as np
import pytest

from stacksolve import discretize as dz
from stacksolve import incentive as inc
from stacksolve import lp
from stacksolve import permmatch as pm
from stacksolve.bimatrix import (
    BimatrixGame,
    expected_utilities,
    solve_nash_support_enumeration,
    solve_stackelberg,
)
from stacksolve.gen import random_3dm, random_bimatrix, random_permmatch

from .instances import (
    CHAIN_PATH,
    COMMIT_X,
    SBT_PATH,
    commit_instance,
    random_explicit_incentive,
    random_incentive_strategy,
)
from .oracles import (
    bruteforce_3dm_value,
    greedy_pair_in_order,
    incentive_grid_oracle,
    is_3d_matching,
    lp_vertex_oracle,
    max_weight_matching_bruteforce,
    opt_pure_pair,
    realized_maximin_profile,
)

APPENDIX_GAME = BimatrixGame(np.array([[1.0, 10.0], [0.0, 5.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))

PM_CORPUS_SEED = 0x5EED_0401
PM_CORPUS_SIZE = 200


def _pm_corpus():
    out = []
    for i in range(PM_CORPUS_SIZE):
        vertices = 4 + (i % 5)
        edges = 3 + (i % 6)
        out.append(random_permmatch(PM_CORPUS_SEED + i, vertices, edges))
    return out


def _line(tag: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nacceptance {tag}: {status} in {elapsed:.2f}s{suffix}")


def test_criterion_1_appendix_table():
    start = time.monotonic()
    sol = solve_stackelberg(APPENDIX_GAME)
    ok = (
        np.allclose(sol.leader.probs, (0.5, 0.5), atol=1e-6)
        and sol.follower_response == 1
        and abs(sol.leader_payoff - 7.5) < 1e-6
    )
    nash = solve_nash_support_enumeration(APPENDIX_GAME)
    pure = [
        (x, y)
        for x, y in nash
        if np.allclose(x.probs, (1, 0), atol=1e-6) and np.allclose(y.probs, (1, 0), atol=1e-6)
    ]
    ok = ok and bool(pure)
    if pure:
        lpay, _ = expected_utilities(APPENDIX_GAME, *pure[0])
        ok = ok and abs(lpay - 1.0) < 1e-6
    _, _, realized, _ = realized_maximin_profile(APPENDIX_GAME)
    ok = ok and abs(realized - 5.5) < 1e-6
    elapsed = time.monotonic() - start
    _line("1 (Appendix A table)", ok and elapsed < 1.0, elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2a_commit_example_with_incentives():
    start = time.monotonic()
    sol = inc.solve_stackelberg_incentive(commit_instance())
    ok = (
        abs(sol.strategy.x.get("sa", 0.0) - 0.4) < 1e-6
        and abs(sol.strategy.x.get("bt", 0.0) - 0.6) < 1e-6
        and sol.target_set == CHAIN_PATH
        and abs(sol.incentive_value - 0.2) < 1e-6
        and abs(sol.leader_payoff - 0.8) < 1e-6
    )
    elapsed = time.monotonic() - start
    _line("2a (commit example, incentive solver)", ok and elapsed < 5.0, elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_2b_commit_example_no_incentive_se():
    start = time.monotonic()
    failures = []

    # The paper's 0.6: only the chain edges can be taxed, so the leader
    # commits to COMMIT_X and the follower takes s-b-t.
    inst = commit_instance()
    game, ids = inc.incentive_bimatrix(inst)
    chain = ("sa", "ab", "bt")
    rows = [inst.elements.index(e) for e in chain]
    chain_only = BimatrixGame(game.u_leader[rows], game.u_follower[rows])
    sol = solve_stackelberg(chain_only, exact=True)
    want_x = tuple(COMMIT_X.get(e, 0.0) for e in chain)
    if not (
        abs(sol.leader_payoff - 0.6) < 1e-6
        and np.allclose(sol.leader.probs, want_x, atol=1e-6)
        and ids[sol.follower_response] == SBT_PATH
    ):
        failures.append(f"chain-only: {sol.leader_payoff:.6f} via {ids[sol.follower_response]}")

    # With k taxable copies of each bypass, mass g spread over them keeps
    # the chain a best response while 1 - g <= 0.6 + g/k, so the value is
    # (0.6k + 1)/(k + 1): above 0.6 and, for k >= 2, below the 0.8 of 2a.
    for k in range(1, 9):
        game, ids = inc.incentive_bimatrix(commit_instance(parallel=k))
        sol = solve_stackelberg(game, exact=True)
        want = (0.6 * k + 1) / (k + 1)
        if not (abs(sol.leader_payoff - want) < 1e-6 and ids[sol.follower_response] == CHAIN_PATH):
            failures.append(f"k={k}: {sol.leader_payoff:.6f} via {ids[sol.follower_response]}, want {want:.6f}")

    elapsed = time.monotonic() - start
    _line(
        "2b (no-incentive SE: 0.6 chain-only, (0.6k+1)/(k+1) with k copies)",
        not failures,
        elapsed,
        "; ".join(failures),
    )
    assert not failures, "no-incentive SE differs from the stated values: " + "; ".join(failures)


def test_criterion_3_incentive_optimality_and_lower_bound():
    start = time.monotonic()
    rng = random.Random(0xACC3)
    grid_violations = 0
    lemma_violations = 0
    for i in range(100):
        max_elements = 2 + (i % 3)
        inst = random_explicit_incentive(rng, max_elements=max_elements)
        sol = inc.solve_stackelberg_incentive(inst)
        ids = [inc.set_id(s) for s in inst.family.sets]
        grid = incentive_grid_oracle(
            inst.elements,
            inst.follower_reward,
            inst.leader_reward,
            inst.family.sets,
            ids.index(sol.target_set),
            steps=100,
        )
        if sol.leader_payoff < grid - 2e-2:
            grid_violations += 1
        for _ in range(100):
            strat = random_incentive_strategy(rng, inst)
            if not inc.check_incentive_lower_bound(inst, strat):
                lemma_violations += 1
    elapsed = time.monotonic() - start
    ok = grid_violations == 0 and lemma_violations == 0 and elapsed < 60.0
    _line(
        "3 (incentive optimality vs grid + lower-bound lemma)",
        ok,
        elapsed,
        f"{grid_violations} grid / {lemma_violations} lemma violations",
    )
    assert grid_violations == 0
    assert lemma_violations == 0
    assert elapsed < 60.0


def test_criterion_4_greedy_quarter_bound():
    start = time.monotonic()
    rng = random.Random(0xACC4)
    violations = 0
    for inst in _pm_corpus():
        _, _, opt = opt_pure_pair(inst)
        orders = [list(range(inst.graph.num_edges))]
        orders.append(orders[0][::-1])
        shuffled = orders[0][:]
        rng.shuffle(shuffled)
        orders.append(shuffled)
        for order in orders:
            x, xp = greedy_pair_in_order(inst, order)
            if 4 * len(x & inst.pi_image(xp)) < opt:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 60.0
    _line("4 (greedy pair 1/4 bound)", ok, elapsed, f"{violations} violations")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_5_twelfth_guarantee():
    start = time.monotonic()
    eps = 0.01
    bound = (1 - 3 * eps) / 12
    ratio_violations = 0
    containment_violations = 0
    for inst in _pm_corpus():
        strategy, response, value = pm.approx_solve(inst, eps)
        game, _ = pm.explicit_bimatrix(inst)
        exact = solve_stackelberg(game).leader_payoff
        if value < bound * exact - 1e-9:
            ratio_violations += 1
        _, xp = pm.greedy_pair(inst)
        if not xp <= response:
            containment_violations += 1
    elapsed = time.monotonic() - start
    ok = ratio_violations == 0 and containment_violations == 0 and elapsed < 300.0
    _line(
        "5 ((1-3eps)/12 guarantee)",
        ok,
        elapsed,
        f"{ratio_violations} ratio / {containment_violations} containment violations",
    )
    assert ratio_violations == 0
    assert containment_violations == 0
    assert elapsed < 300.0


def test_criterion_6_reduction_identities():
    start = time.monotonic()
    failures = 0
    for i in range(50):
        tdm = random_3dm(0xACC6 + i, 3, 3, 3, 0.18)
        if len(tdm.triples) > 5:
            tdm = pm.ThreeDMInstance(3, 3, 3, tdm.triples[:5])
        inst, rmap = pm.reduce_3dm(tdm)
        _, pitim_opt = pm.bruteforce_pitim(inst)
        if pitim_opt != 2 * bruteforce_3dm_value(tdm.triples):
            failures += 1
        import itertools

        for size in range(len(tdm.triples) + 1):
            for combo in itertools.combinations(range(len(tdm.triples)), size):
                if not is_3d_matching(tdm.triples, combo):
                    continue
                lifted = pm.lift_3dm(rmap, combo)
                if pm.pitim_value(inst, lifted) != 2 * len(combo):
                    failures += 1
                if pm.extract_3dm(rmap, inst, lifted) != set(combo):
                    failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    _line("6 (3DM reduction identities)", ok, elapsed, f"{failures} failures")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_7a_grid_bound_on_random_games():
    start = time.monotonic()
    violations = 0
    for i in range(50):
        game = random_bimatrix(0xACC7 + i, 3, 3)
        params = dz.GridParams(10)
        sol = dz.discretized_se(game, params)
        exact = solve_stackelberg(game).leader_payoff
        assert sol.slack <= 0.6 + 1e-12
        if sol.leader_payoff < exact - 0.6 - 1e-9:
            violations += 1
        if sol.follower_response not in dz.almost_best_responses(game, sol.leader, 0.6):
            violations += 1
        if not dz.verify_eps_approx(game, sol, exact):
            violations += 1
    for i in range(50):
        game = random_bimatrix(0xACC7 + 1000 + i, 2, 2)
        sol = dz.discretized_se(game, dz.GridParams(4))
        exact = solve_stackelberg(game).leader_payoff
        if sol.leader_payoff < exact - sol.slack - 1e-9:
            violations += 1
        if sol.follower_response not in dz.almost_best_responses(game, sol.leader, sol.slack):
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 120.0
    _line("7a (2n*eps*M bound on random corpora)", ok, elapsed, f"{violations} violations")
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_7b_grid_absolute_error_on_appendix_game():
    start = time.monotonic()
    sol = dz.discretized_se(APPENDIX_GAME, dz.GridParams(100))
    slack = 2 * 2 * 0.01 * 10.0  # 2*n*eps*M with n = 2, eps = 1/100, M = 10
    # Upper side: against leader mixture (p, 1-p) the follower gets p from L
    # and 1-p from R. A follower relaxed by 0.4 may play R while
    # 1 - p >= p - 0.4, i.e. p <= 0.7, where the leader gets 5 + 5p <= 8.5;
    # playing L gives the leader p <= 1. So no mixture pays more than 8.5.
    checks = {
        "slack": abs(sol.slack - slack) < 1e-9,
        "lower": sol.leader_payoff >= 7.5 - slack - 1e-9,
        "response": sol.follower_response in dz.almost_best_responses(APPENDIX_GAME, sol.leader, slack),
        "verify": dz.verify_eps_approx(APPENDIX_GAME, sol, 7.5),
        "upper": sol.leader_payoff <= 8.5 + 1e-9,
    }
    failed = [name for name, ok in checks.items() if not ok]
    elapsed = time.monotonic() - start
    _line(
        "7b (7.5 - 0.4 <= grid payoff <= 8.5, response within 0.4, on Appendix A)",
        not failed,
        elapsed,
        f"computed {sol.leader_payoff:.6f} with slack {sol.slack:.6f}",
    )
    assert not failed, (
        f"grid solution {sol.leader_payoff:.6f} at {sol.leader.probs} with slack "
        f"{sol.slack:.6f} breaks: {', '.join(failed)}"
    )


def test_criterion_8_oracle_equivalences():
    start = time.monotonic()
    failures = 0
    rng = random.Random(0xACC8)

    # exact matching vs exhaustive enumeration, up to 10-edge graphs
    graphs = [inst.graph for inst in _pm_corpus()[:100]]
    graphs += [random_permmatch(0xACC8 + i, 6, 9 + (i % 2)).graph for i in range(20)]
    for graph in graphs:
        weights = [rng.uniform(-1, 2) for _ in range(graph.num_edges)]
        got = pm.max_weight_matching(graph, weights)
        want, _ = max_weight_matching_bruteforce(graph.num_vertices, graph.edges, weights)
        if abs(sum(weights[e] for e in got) - want) > 1e-8:
            failures += 1

    # constraint generation vs fully-materialized incentive LPs
    for i in range(40):
        inst = random_explicit_incentive(rng, max_elements=3)
        generated = lp.solve_with_generation(
            inc._incentive_lp(inst),
            inc.separation_oracle_for(inst),
            max_rounds=100,
            exact=True,
        )
        materialized = inc._incentive_lp(inst)
        for members in inst.family.sets:
            coeffs = tuple(-1.0 if e in members else 0.0 for e in inst.elements) + (1.0,)
            rhs = -sum(inst.follower_reward[e] for e in members)
            materialized = materialized.with_leq_row(coeffs, rhs)
        direct = lp.solve(materialized, exact=True)
        if abs(generated.objective_value - direct.objective_value) > 1e-8:
            failures += 1

    # LP solve vs 2-variable vertex enumeration, both backends
    for i in range(20):
        box = [((1.0, 0.0), rng.uniform(1, 5)), ((0.0, 1.0), rng.uniform(1, 5))]
        extra = [
            ((rng.uniform(-1, 2), rng.uniform(-1, 2)), rng.uniform(0.5, 4))
            for _ in range(rng.randrange(1, 4))
        ]
        nonneg = [((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)]
        objective = (rng.uniform(-1, 2), rng.uniform(-1, 2))
        expected = lp_vertex_oracle(objective, box + extra + nonneg)
        program = lp.LinearProgram(objective=objective, leq_rows=[(*a, b) for a, b in box + extra])
        for exact in (False, True):
            sol = lp.solve(program, exact=exact)
            if not sol.is_optimal or abs(sol.objective_value - expected[0]) > 1e-8:
                failures += 1

    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    _line("8 (oracle equivalences)", ok, elapsed, f"{failures} failures")
    assert failures == 0
    assert elapsed < 60.0
