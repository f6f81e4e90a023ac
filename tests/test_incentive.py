import itertools
import math
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksolve import incentive as inc
from stacksolve import tolerances
from stacksolve.bimatrix import EXPLICIT_LIMIT, solve_stackelberg
from stacksolve.errors import InputError, SizeLimitError, ToolkitError

from .instances import (
    CHAIN_PATH,
    COMMIT_X,
    SAT_PATH,
    SBT_PATH,
    commit_instance,
    grid_instance,
    random_explicit_incentive,
    random_incentive_strategy,
    strategy,
)
from .oracles import follower_payoff, incentive_grid_oracle, leader_payoff, lex_min_tight_path_dfs, materialized


def test_leader_payoff_commit_examples():
    instance = commit_instance()
    with_incentive = strategy(COMMIT_X, {CHAIN_PATH: 0.2})
    assert abs(leader_payoff(instance, with_incentive, CHAIN_PATH) - 0.8) < 1e-12
    bare = strategy(COMMIT_X)
    assert abs(leader_payoff(instance, bare, SBT_PATH) - 0.6) < 1e-12


def test_leader_payoff_uniform_two_elements():
    instance = inc.IncentiveInstance(
        ("e1", "e2"),
        {"e1": 0.0, "e2": 0.0},
        {"e1": 0.0, "e2": 0.0},
        inc.ExplicitFamily((frozenset({"e1"}),)),
    )
    strat = strategy({"e1": 0.5, "e2": 0.5})
    assert leader_payoff(instance, strat, ("e1",)) == 0.5


def test_follower_payoff_commit_examples():
    instance = commit_instance()
    bare = strategy(COMMIT_X)
    assert abs(follower_payoff(instance, bare, CHAIN_PATH) - (-4.0)) < 1e-12
    assert abs(follower_payoff(instance, bare, SBT_PATH) - (-3.8)) < 1e-12
    sweetened = strategy(COMMIT_X, {CHAIN_PATH: 0.2})
    assert abs(follower_payoff(instance, sweetened, CHAIN_PATH) - (-3.8)) < 1e-12


def test_payoff_unknown_set_id():
    instance = commit_instance()
    with pytest.raises(InputError):
        leader_payoff(instance, strategy(COMMIT_X), ("nope",))


def test_base_best_set_commit():
    instance = commit_instance()
    sid, value = inc.base_best_set(instance, COMMIT_X)
    assert abs(value - (-3.8)) < 1e-9
    assert sid in (SAT_PATH, SBT_PATH)


def test_base_best_set_single_path():
    fam = inc.PathFamily(2, (("st", 0, 1),), 0, 1)
    instance = inc.IncentiveInstance(("st",), {"st": -1.0}, {"st": 0.0}, fam)
    sid, value = inc.base_best_set(instance, {"st": 1.0})
    assert sid == ("st",)
    assert abs(value - (-2.0)) < 1e-12


def test_base_best_set_explicit_comparison():
    instance = inc.IncentiveInstance(
        ("e1", "e2"),
        {"e1": 5.0, "e2": -10.0},
        {"e1": 0.0, "e2": 0.0},
        inc.ExplicitFamily((frozenset({"e1"}), frozenset({"e1", "e2"}))),
    )
    sid, _ = inc.base_best_set(instance, {"e1": 0.3, "e2": 0.7})
    assert sid == ("e1",)


def test_separation_oracle_commit():
    instance = commit_instance()
    oracle = inc.separation_oracle_for(instance)
    order = list(instance.elements)

    def point(x, w):
        return [x.get(e, 0.0) for e in order] + [w]

    cut = oracle(point({"sa": 1.0}, 3.9))
    assert cut is not None
    assert cut.violation > 0.69  # -3.2 vs -3.9
    assert cut.rhs == pytest.approx(3.2)  # the s-b-t constraint
    assert oracle(point(COMMIT_X, 3.8)) is None
    assert oracle(point(COMMIT_X, -1e9)) is None


def test_generation_on_commit_family_reaches_w_star():
    instance = commit_instance()
    sol = inc.lp.solve_with_generation(
        inc._incentive_lp(instance),
        inc.separation_oracle_for(instance),
        max_rounds=100,
        exact=True,
    )
    assert sol.is_optimal
    assert abs(sol.objective_value - 3.8) < 1e-8


def test_solve_commit_instance():
    instance = commit_instance()
    sol = inc.solve_stackelberg_incentive(instance)
    assert abs(sol.w_value - 3.8) < 1e-6
    assert sol.target_set == CHAIN_PATH
    assert abs(sol.incentive_value - 0.2) < 1e-6
    assert abs(sol.leader_payoff - 0.8) < 1e-6
    assert abs(sol.strategy.x["sa"] - 0.4) < 1e-6
    assert abs(sol.strategy.x["bt"] - 0.6) < 1e-6
    assert sum(sol.strategy.x.values()) == pytest.approx(1.0)
    assert not sol.incentive_box_exceeded


def test_solve_single_set_family():
    instance = inc.IncentiveInstance(
        ("e1",),
        {"e1": 0.0},
        {"e1": 0.0},
        inc.ExplicitFamily((frozenset({"e1"}),)),
    )
    sol = inc.solve_stackelberg_incentive(instance)
    assert abs(sol.w_value - 1.0) < 1e-9
    assert sol.target_set == ("e1",)
    assert sol.incentive_value == 0.0
    assert sol.strategy.incentives == {}
    assert abs(sol.leader_payoff - 1.0) < 1e-9


def test_solver_beats_grid_oracle_on_random_instances():
    rng = random.Random(91)
    for trial in range(20):
        instance = random_explicit_incentive(rng, max_elements=3)
        sol = inc.solve_stackelberg_incentive(instance)
        target_index = [inc.set_id(s) for s in instance.family.sets].index(sol.target_set)
        grid = incentive_grid_oracle(
            instance.elements,
            instance.follower_reward,
            instance.leader_reward,
            instance.family.sets,
            target_index,
            steps=100,
            v_max=1.0,
        )
        assert sol.leader_payoff >= grid - 2e-2, f"trial {trial}"


def test_follower_best_set_commit_with_incentive():
    instance = commit_instance()
    sol = inc.solve_stackelberg_incentive(instance)
    assert inc.follower_best_set(instance, sol.strategy) == CHAIN_PATH


def test_follower_best_set_materialized_leader_favoring():
    instance = materialized(commit_instance())
    bare = strategy(COMMIT_X)
    # s-b-t ties with s-a-t at -3.8; the leader gets 0.6 from s-b-t vs 0.4
    assert inc.follower_best_set(instance, bare) == SBT_PATH


def test_follower_best_set_single_set():
    instance = inc.IncentiveInstance(
        ("e1",), {"e1": 0.0}, {"e1": 0.0}, inc.ExplicitFamily((frozenset({"e1"}),))
    )
    assert inc.follower_best_set(instance, strategy({"e1": 1.0})) == ("e1",)


def test_lower_bound_commit_equality():
    instance = commit_instance()
    sol = inc.solve_stackelberg_incentive(instance)
    assert inc.check_incentive_lower_bound(instance, sol.strategy)


def test_lower_bound_no_incentives_trivial():
    instance = commit_instance()
    assert inc.check_incentive_lower_bound(instance, strategy(COMMIT_X))


def test_lower_bound_random_strategies():
    rng = random.Random(17)
    for _ in range(30):
        instance = random_explicit_incentive(rng)
        for _ in range(20):
            strat = random_incentive_strategy(rng, instance)
            assert inc.check_incentive_lower_bound(instance, strat)


def test_enumerate_family_counts():
    assert len(commit_instance(parallel=1).family.explicit(EXPLICIT_LIMIT).sets) == 4
    single = inc.IncentiveInstance(
        ("st",), {"st": 0.0}, {"st": 0.0}, inc.PathFamily(2, (("st", 0, 1),), 0, 1)
    )
    assert len(single.family.explicit(EXPLICIT_LIMIT).sets) == 1
    with pytest.raises(InputError):
        inc.IncentiveInstance(
            ("e",), {"e": 0.0}, {"e": 0.0}, inc.PathFamily(3, (("e", 0, 1),), 0, 2)
        )


def test_enumerate_family_limit():
    with pytest.raises(SizeLimitError):
        commit_instance().family.explicit(3)


def test_path_family_explicit_order():
    # the path order is the column order of incentive_bimatrix, which decides exact ties in solve_stackelberg
    edges = (("a", 0, 1), ("b", 1, 3), ("c", 0, 2), ("d", 2, 3), ("e", 1, 2))
    paths = inc.PathFamily(4, edges, 0, 3).explicit(10).sets
    assert paths == tuple(map(frozenset, ("ab", "ade", "cd", "bce")))


def renamed(inst, rename, vertices):
    fam = inst.family
    edges = tuple((eid, rename(u), rename(v)) for eid, u, v in fam.edges)
    return replace(inst, family=inc.PathFamily(vertices, edges, rename(fam.source), rename(fam.sink)))


def test_path_family_sizes_itself_by_the_vertices_it_uses():
    # two parallel s-t edges declared on 10^6 vertices: the lists were sized
    # by the declared count, 7 s and 255 MB for a solve
    fam = inc.PathFamily(2, (("a", 0, 1), ("b", 1, 0)), 0, 1)
    narrow = inc.IncentiveInstance(("a", "b"), {"a": -1.0, "b": -0.5}, {"a": 0.0, "b": 0.0}, fam)
    wide = renamed(narrow, lambda v: 999_999 * v, 10**6)
    assert len(wide.family.adjacency()) == 2
    assert inc.solve_stackelberg_incentive(wide) == inc.solve_stackelberg_incentive(narrow)


def test_spread_vertex_ids_keep_every_answer():
    # the relabelling keeps the order of the ids, and every tie rule is by edge id
    inst = grid_instance(random.Random(3), 3, 4)
    spread = renamed(inst, lambda v: 1000 * v + 7, 12_000)
    assert len(spread.family.adjacency()) == 12
    assert spread.family.explicit(EXPLICIT_LIMIT) == inst.family.explicit(EXPLICIT_LIMIT)
    assert inc.solve_stackelberg_incentive(spread) == inc.solve_stackelberg_incentive(inst)


def test_path_vs_materialized_same_solution():
    instance = commit_instance()
    flat = materialized(instance)
    a = inc.solve_stackelberg_incentive(instance)
    b = inc.solve_stackelberg_incentive(flat)
    assert abs(a.w_value - b.w_value) < 1e-7
    assert abs(a.leader_payoff - b.leader_payoff) < 1e-7
    assert a.target_set == b.target_set


def test_no_incentive_bimatrix_commit_value():
    # With k parallel copies the leader can tie every path and steer the
    # follower onto the chain for (0.6k+1)/(k+1); k=3 gives 0.7.
    game, ids = inc.incentive_bimatrix(commit_instance())
    sol = solve_stackelberg(game, exact=True)
    assert abs(sol.leader_payoff - 0.7) < 1e-6
    assert ids[sol.follower_response] == CHAIN_PATH


def test_incentive_bimatrix_entries_match_the_per_entry_formula_bit_for_bit():
    rng = random.Random(8)
    for instance in [commit_instance(2)] + [grid_instance(rng, 3, 3) for _ in range(3)]:
        game, ids = inc.incentive_bimatrix(instance)
        for j, sid in enumerate(ids):
            reward = sum(instance.follower_reward[e] for e in sid)
            for i, e in enumerate(instance.elements):
                hit = 1.0 if e in sid else 0.0
                assert game.u_leader[i, j].hex() == (hit + instance.leader_reward[e]).hex()
                assert game.u_follower[i, j].hex() == (-hit + reward).hex()


def test_incentives_never_hurt_vs_no_incentive_se():
    rng = random.Random(12021)
    for trial in range(25):
        instance = random_explicit_incentive(rng)
        with_inc = inc.solve_stackelberg_incentive(instance)
        game, _ = inc.incentive_bimatrix(instance)
        bare = solve_stackelberg(game, exact=True)
        assert with_inc.leader_payoff >= bare.leader_payoff - 1e-7, f"trial {trial}"


def test_solved_instances_invariants():
    rng = random.Random(424)
    for _ in range(25):
        instance = random_explicit_incentive(rng)
        sol = inc.solve_stackelberg_incentive(instance)
        assert sol.incentive_value >= -1e-7
        assert inc.follower_best_set(instance, sol.strategy) == sol.target_set
        if sol.strategy.incentives:
            assert set(sol.strategy.incentives) == {sol.target_set}
        assert inc.check_incentive_lower_bound(instance, sol.strategy)


def test_strategy_validation():
    with pytest.raises(InputError):
        inc.IncentiveLeaderStrategy({"e1": 0.4}, {})
    with pytest.raises(InputError):
        inc.IncentiveLeaderStrategy({"e1": 1.0}, {("e1",): -0.5})
    instance = commit_instance()
    foreign = inc.IncentiveLeaderStrategy({"zz": 1.0}, {})
    with pytest.raises(InputError):
        leader_payoff(instance, foreign, CHAIN_PATH)


def test_non_finite_rewards_are_input_errors():
    base = commit_instance(1)
    for table in ("c", "C"):
        for bad in (-math.inf, math.inf, math.nan):
            rewards = {"c": dict(base.follower_reward), "C": dict(base.leader_reward)}
            rewards[table]["sa"] = bad
            with pytest.raises(InputError, match="finite"):
                instance = inc.IncentiveInstance(base.elements, rewards["c"], rewards["C"], base.family)
                inc.solve_stackelberg_incentive(instance)


def test_path_family_requires_nonpositive_rewards():
    with pytest.raises(InputError):
        inc.IncentiveInstance(
            ("st",), {"st": 0.5}, {"st": 0.0}, inc.PathFamily(2, (("st", 0, 1),), 0, 1)
        )


def test_json_round_trip():
    import json

    for instance in (commit_instance(), random_explicit_incentive(random.Random(5))):
        text = json.dumps(inc.incentive_to_json_obj(instance))
        again = inc.incentive_from_json(text)
        assert again.elements == instance.elements
        assert again.follower_reward == instance.follower_reward
        if isinstance(instance.family, inc.ExplicitFamily):
            assert set(again.family.sets) == set(instance.family.sets)
        else:
            assert again.family == instance.family


@pytest.mark.parametrize("value", [True, "-0.5", 10**400], ids=["boolean", "string", "huge"])
@pytest.mark.parametrize("key", ["c", "C"])
def test_incentive_json_rewards_must_be_numbers(key, value):
    import json

    obj = inc.incentive_to_json_obj(commit_instance())
    obj["elements"][0][key] = value
    with pytest.raises(InputError, match=f"^{key} "):
        inc.incentive_from_json(json.dumps(obj))


@pytest.mark.parametrize(
    "sets", [["ab", "a"], [{"a": 1, "b": 2}], "ab", {"ab": ["a"]}], ids=["strings", "object", "string", "object of sets"]
)
def test_incentive_json_sets_must_be_lists(sets):
    import json

    elements = [{"id": e, "c": 0.5, "C": 1.0} for e in ("a", "b")]
    obj = {"elements": elements, "family": {"type": "explicit", "sets": [["a", "b"], ["a"]]}}
    assert set(inc.incentive_from_json(json.dumps(obj)).family.sets) == {frozenset("ab"), frozenset("a")}
    obj["family"]["sets"] = sets
    with pytest.raises(InputError, match="list of lists"):
        inc.incentive_from_json(json.dumps(obj))


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("key", ["vertices", "source", "sink", "u", "v"])
def test_incentive_json_takes_no_boolean_for_an_integer(key, value):
    import json

    obj = inc.incentive_to_json_obj(commit_instance())
    assert inc.incentive_from_json(json.dumps(obj)).family == commit_instance().family
    family = obj["family"]
    (family["edges"][0] if key in ("u", "v") else family)[key] = value
    with pytest.raises(InputError, match="boolean"):
        inc.incentive_from_json(json.dumps(obj))


# ---------------------------------------------------------------------------
# the lexicographically smallest tight path against path enumeration


@st.composite
def weighted_path_families(draw):
    """Small multigraphs with shuffled edge ids and many zero-cost edges.

    Costs are multiples of 1/2 and the leader's x multiples of 1/4, so path
    weights ``x + cost`` and costs are exact and ties are real in both.
    """
    nv = draw(st.integers(2, 7))
    pairs = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)).filter(lambda p: p[0] != p[1])
    ends = draw(st.lists(pairs, min_size=1, max_size=14))
    ids = draw(st.permutations([f"e{i:02d}" for i in range(len(ends))]))
    costs = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]), min_size=len(ends), max_size=len(ends)))
    xs = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5]), min_size=len(ends), max_size=len(ends)))
    sink = draw(st.integers(1, nv - 1))
    fam = inc.PathFamily(nv, tuple((eid, u, v) for eid, (u, v) in zip(ids, ends)), 0, sink)
    return fam, {e: x + c for e, x, c in zip(ids, xs, costs)}, dict(zip(ids, costs))


@settings(max_examples=400)
@given(weighted_path_families())
def test_tight_path_matches_backtracking_search(case):
    fam, weights, costs = case
    assert inc._lex_min_tight_path(fam, weights, costs) == lex_min_tight_path_dfs(fam, weights, costs)


def _checked_tight_path(monkeypatch):
    real = inc._lex_min_tight_path
    calls = []

    def checked(fam, weights, costs):
        path = real(fam, weights, costs)
        assert path == lex_min_tight_path_dfs(fam, weights, costs, tolerances.EQUAL)
        calls.append(path)
        return path

    monkeypatch.setattr(inc, "_lex_min_tight_path", checked)
    return calls


@pytest.mark.parametrize("rows,cols", [(3, 3), (3, 4), (4, 4)])
def test_tight_path_matches_search_in_grid_cut_loops(monkeypatch, rows, cols):
    calls = _checked_tight_path(monkeypatch)
    inst = grid_instance(random.Random(rows * 10 + cols), rows, cols)
    sol = inc.solve_stackelberg_incentive(inst)
    assert inc.check_incentive_lower_bound(inst, sol.strategy)
    assert len(calls) > 2


@pytest.mark.parametrize("parallel", [1, 2, 3, 4])
def test_tight_path_matches_search_in_commit_cut_loops(monkeypatch, parallel):
    calls = _checked_tight_path(monkeypatch)
    inst = commit_instance(parallel)
    sol = inc.solve_stackelberg_incentive(inst)
    assert inc.check_incentive_lower_bound(inst, sol.strategy)
    assert len(calls) > 2


def _clique_pocket(size: int) -> tuple[inc.PathFamily, dict]:
    """A zero-cost clique hanging off the source through the smallest id.

    Every edge costs 0, so every edge is tight, but the pocket reaches the
    sink only back through the source; the answer is the direct edge "z".
    """
    edges = [("a", 0, 2), ("z", 0, 1)]
    pocket = range(2, 2 + size)
    edges += [(f"b{u:02d}_{v:02d}", u, v) for u in pocket for v in pocket if u < v]
    return inc.PathFamily(2 + size, tuple(edges), 0, 1), {eid: 0.0 for eid, _, _ in edges}


def test_tight_path_skips_a_dead_end_clique():
    fam, weights = _clique_pocket(5)
    assert inc._lex_min_tight_path(fam, weights, weights) == lex_min_tight_path_dfs(fam, weights, weights) == ["z"]
    fam, weights = _clique_pocket(14)
    start = time.perf_counter()
    assert inc._lex_min_tight_path(fam, weights, weights) == ["z"]
    assert time.perf_counter() - start < 1.0


def test_tight_path_prefers_the_cheaper_of_two_shortest_paths():
    # both s-t paths weigh 1; "b" costs 0 (leader mass 1), "a" costs 1 (mass 0)
    fam = inc.PathFamily(2, (("a", 0, 1), ("b", 0, 1)), 0, 1)
    assert inc._lex_min_tight_path(fam, {"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 0.0}) == ["b"]
    assert inc._lex_min_tight_path(fam, {"a": 1.0, "b": 1.0}, {"a": 0.0, "b": 0.0}) == ["a"]


# ---------------------------------------------------------------------------
# one follower rule for both family kinds


@st.composite
def path_games(draw):
    """Path-family games with exact ties: costs on a 1/2 grid, x and V on a 1/4 grid."""
    nv = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)).filter(lambda p: p[0] != p[1])
    ends = [(0, nv - 1)] + draw(st.lists(pairs, max_size=9))
    ids = draw(st.permutations([f"e{i}" for i in range(len(ends))]))
    cost = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=len(ids), max_size=len(ids)))
    gain = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=len(ids), max_size=len(ids)))
    fam = inc.PathFamily(nv, tuple((eid, u, v) for eid, (u, v) in zip(ids, ends)), 0, nv - 1)
    inst = inc.IncentiveInstance(tuple(ids), {e: -c for e, c in zip(ids, cost)}, dict(zip(ids, gain)), fam)
    quarters = draw(st.lists(st.sampled_from(ids), min_size=4, max_size=4))
    x = {e: quarters.count(e) / 4 for e in ids}
    paths = inst.family.explicit(EXPLICIT_LIMIT).ids()
    chosen = draw(st.lists(st.sampled_from(paths), max_size=2, unique=True))
    incentives = {sid: draw(st.sampled_from([0.25, 0.5, 1.0])) for sid in chosen}
    return inst, inc.IncentiveLeaderStrategy(x, incentives)


@settings(max_examples=300)
@given(path_games())
def test_follower_best_set_same_rule_on_paths_and_materialized(case):
    inst, strat = case
    flat = materialized(inst)
    # the strong Stackelberg choice: best follower payoff, then best leader payoff
    top = max((follower_payoff(flat, strat, sid), leader_payoff(flat, strat, sid)) for sid in flat.family.ids())
    for game in (inst, flat):
        sid = inc.follower_best_set(game, strat)
        assert abs(follower_payoff(game, strat, sid) - top[0]) <= 1e-9
        assert abs(leader_payoff(game, strat, sid) - top[1]) <= 1e-9


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 3), (3, 4), (4, 4), (4, 5)])
def test_follower_best_set_is_the_target_on_grid_solves(rows, cols):
    for seed in range(8):
        inst = grid_instance(random.Random(seed), rows, cols)
        sol = inc.solve_stackelberg_incentive(inst)
        assert inc.follower_best_set(inst, sol.strategy) == sol.target_set, seed


@pytest.mark.parametrize("parallel", [1, 2, 3, 4])
def test_follower_best_set_is_the_target_on_commit_solves(parallel):
    inst = commit_instance(parallel)
    sol = inc.solve_stackelberg_incentive(inst)
    assert inc.follower_best_set(inst, sol.strategy) == sol.target_set


def test_grid_reported_leader_payoff_is_the_followers_choice():
    inst = grid_instance(random.Random(1), 4, 5)
    sol = inc.solve_stackelberg_incentive(inst)
    choice = inc.follower_best_set(inst, sol.strategy)
    assert abs(leader_payoff(inst, sol.strategy, choice) - sol.leader_payoff) <= 1e-12
    assert abs(sol.leader_payoff - 0.5737) < 1e-4


def test_follower_prefers_the_incentivized_set_on_a_full_tie():
    # both sets pay each player the same within tolerances.EQUAL; "e2" carries a
    # tiny incentive and wins although "e1" has the smaller id
    instance = inc.IncentiveInstance(
        ("e1", "e2"),
        {"e1": 0.0, "e2": 0.0},
        {"e1": 0.0, "e2": 0.0},
        inc.ExplicitFamily((frozenset({"e1"}), frozenset({"e2"}))),
    )
    assert inc.follower_best_set(instance, strategy({"e1": 0.5, "e2": 0.5})) == ("e1",)
    assert inc.follower_best_set(instance, strategy({"e1": 0.5, "e2": 0.5}, {("e2",): 1e-10})) == ("e2",)


@pytest.mark.parametrize("order", ["abc", "cba"])
def test_near_ties_do_not_chain_in_either_family_order(order):
    # the base payoffs are 1.2e-9, 0.6e-9 and 0: b is within EQUAL of the best
    # set a and c is not, so b wins on its larger leader mass, in any order
    rewards = {"a": 0.2 + 1.2e-9, "b": 0.3 + 0.6e-9, "c": 0.5}
    family = inc.ExplicitFamily(tuple(frozenset({e}) for e in order))
    instance = inc.IncentiveInstance(("a", "b", "c"), rewards, dict.fromkeys(rewards, 0.0), family)
    x = {"a": 0.2, "b": 0.3, "c": 0.5}
    assert inc.base_best_set(instance, x)[0] == ("b",)
    assert inc.follower_best_set(instance, strategy(x)) == ("b",)


# steps of 0.4e-9, so that near ties chain across EQUAL
_STEP = st.integers(0, 5).map(lambda k: k * 4e-10)


@st.composite
def near_tie_families(draw):
    """Explicit families whose base payoffs and leader masses tie within and across ``EQUAL``.

    Each element has x_e = q + j 0.4e-9 and c_e = q + k 0.4e-9 for one q, so
    its base payoff c_e - x_e is a few steps from 0.
    """
    elements = tuple(f"e{i}" for i in range(draw(st.integers(1, 4))))
    subsets = [frozenset(s) for r in range(1, len(elements) + 1) for s in itertools.combinations(elements, r)]
    sets = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=7, unique=True))
    q = {e: draw(st.sampled_from([0.0, 0.25, 0.5])) for e in elements}
    rewards = {e: q[e] + draw(_STEP) for e in elements}
    x = {e: q[e] + draw(_STEP) for e in elements}
    inst = inc.IncentiveInstance(elements, rewards, dict.fromkeys(elements, 0.0), inc.ExplicitFamily(tuple(sets)))
    return inst, x, draw(st.permutations(sets))


@settings(max_examples=400)
@given(near_tie_families())
def test_explicit_best_set_ignores_the_order_of_the_family(case):
    inst, x, shuffled = case
    sid, value = inc.base_best_set(inst, x)
    assert inc.base_best_set(replace(inst, family=inc.ExplicitFamily(tuple(shuffled))), x) == (sid, value)
    # the rule by enumeration: base payoff within EQUAL of the best, then the
    # leader mass within EQUAL of the best among those, then the smallest id
    base = {s: sum(-x[e] + inst.follower_reward[e] for e in s) for s in inst.family.ids()}
    tied = [s for s in base if base[s] >= max(base.values()) - tolerances.EQUAL]
    mass = {s: sum(x[e] for e in s) for s in tied}
    assert sid == min(s for s in tied if mass[s] >= max(mass.values()) - tolerances.EQUAL)
    assert value == base[sid]


def test_path_family_rejects_sets_that_are_not_paths():
    instance = commit_instance(1)
    x = {"sa": 0.5, "bt": 0.5}
    off_path = inc.IncentiveLeaderStrategy(x, {("ab",): 5.0})
    for game in (instance, materialized(instance)):
        with pytest.raises(InputError):
            inc.follower_best_set(game, off_path)
        for sid in (("ab",), ("sa", "sb1"), ("ab", "bt", "sa", "sb1"), ("at1", "bt", "sb1")):
            with pytest.raises(InputError):
                leader_payoff(game, strategy(x), sid)
            with pytest.raises(InputError):
                follower_payoff(game, strategy(x), sid)


def test_path_contains_matches_enumeration():
    instance = commit_instance(2)
    fam = instance.family
    paths = set(fam.explicit(EXPLICIT_LIMIT).sets)
    edges = [eid for eid, _, _ in fam.edges]
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            assert fam.contains(frozenset(combo)) == (frozenset(combo) in paths), combo


def test_missing_path_after_validation_is_not_input_error(monkeypatch):
    monkeypatch.setattr(inc, "_lex_min_tight_path", lambda fam, weights, costs: None)
    with pytest.raises(ToolkitError) as caught:
        inc.base_best_set(commit_instance(), COMMIT_X)
    assert not isinstance(caught.value, InputError)


FOLLOWER_PAYOFF_BITS = """
import random
from stacksolve import incentive as inc
from tests.instances import grid_instance
for seed, size in ((2, 3), (9, 4)):
    inst = grid_instance(random.Random(seed), size, size)
    print(inc.solve_stackelberg_incentive(inst).follower_payoff.hex())
"""


def test_follower_payoff_bits_do_not_follow_the_hash_seed(fresh_python):
    # the sums over a set run in set-id order, not in the frozenset's hash order
    runs = [fresh_python("-c", FOLLOWER_PAYOFF_BITS, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout.split()) == 2
