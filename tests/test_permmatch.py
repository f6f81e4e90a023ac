import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksolve import permmatch as pm
from stacksolve.bimatrix import solve_stackelberg
from stacksolve.errors import InputError, SizeLimitError
from stacksolve.gen import random_3dm, random_permmatch

from .oracles import (
    all_matchings_bruteforce,
    bruteforce_3dm_value,
    common_dist,
    extract_pitim_from_se,
    follower_best_response_bruteforce,
    greedy_pair_in_order,
    is_3d_matching,
    leader_best_response_pm,
    lexmax_matching_bruteforce,
    max_weight_matching_bruteforce,
    opt_pure_pair,
    pm_utilities,
    suffix_bound_matching,
)

E0, E1 = 0, 1


def swap_instance() -> pm.PermMatchInstance:
    graph = pm.Multigraph(4, ((0, 1), (2, 3)))
    return pm.PermMatchInstance(graph, (1, 0))


def identity_instance(edges, vertices) -> pm.PermMatchInstance:
    return pm.PermMatchInstance(pm.Multigraph(vertices, tuple(edges)), tuple(range(len(edges))))


def test_pm_utilities_swap():
    inst = swap_instance()
    assert pm_utilities(inst, {E0}, {E1}) == (1, 0)
    assert pm_utilities(inst, set(), set()) == (0, 0)


def test_pm_utilities_identity():
    inst = identity_instance([(0, 1), (2, 3), (4, 5)], 6)
    m = {0, 2}
    assert pm_utilities(inst, m, m) == (2, 2)


def test_pm_utilities_rejects_non_matching():
    inst = identity_instance([(0, 1), (1, 2)], 3)
    with pytest.raises(InputError):
        pm_utilities(inst, {0, 1}, set())


def test_common_dist():
    assert common_dist({1, 2}, {1, 2}) == (2, 0)
    assert common_dist({1}, {2, 3}) == (0, 3)


def test_dist_triangle_inequality():
    rng = random.Random(5)
    for _ in range(50):
        inst = random_permmatch(rng.randrange(1 << 40), 8, 8)
        matchings = pm.enumerate_matchings(inst.graph)
        x, y, z = (matchings[rng.randrange(len(matchings))] for _ in range(3))
        _, dxz = common_dist(x, z)
        _, dxy = common_dist(x, y)
        _, dyz = common_dist(y, z)
        assert dxz <= dxy + dyz


def test_max_weight_matching_triangle():
    graph = pm.Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    assert pm.max_weight_matching(graph, (3.0, 1.0, 1.0)) == {0}


def test_max_weight_matching_path():
    graph = pm.Multigraph(4, ((0, 1), (1, 2), (2, 3)))
    assert pm.max_weight_matching(graph, (1.0, 1.0, 1.0)) == {0, 2}


def test_max_weight_matching_weight_tie_takes_smallest_ids():
    # {1} and {0, 2} both weigh 2; the search finds {1} first
    graph = pm.Multigraph(4, ((0, 1), (1, 2), (2, 3)))
    assert pm.max_weight_matching(graph, (1.0, 2.0, 1.0)) == {0, 2}


def test_max_weight_matching_tie_bound_may_skip_negative_tie_weights():
    # edge 0 conflicts with edges 1 and 2; edge 3 is nearly free but costs
    # tie weight, so the tie bound must not count it against {1, 2}
    graph = pm.Multigraph(7, ((0, 1), (0, 2), (1, 3), (5, 6)))
    weights = (2.0, 1.0, 1.0, 1e-10)
    assert pm.max_weight_matching(graph, weights, (0.0, 1.0, 1.0, -5.0)) == {1, 2}


def test_max_weight_matching_skips_nonpositive():
    graph = pm.Multigraph(4, ((0, 1), (2, 3)))
    assert pm.max_weight_matching(graph, (0.0, -2.0)) == frozenset()


def test_max_weight_matching_vs_bruteforce():
    rng = random.Random(99)
    for trial in range(40):
        inst = random_permmatch(rng.randrange(1 << 40), rng.randrange(3, 8), rng.randrange(1, 11))
        weights = [rng.uniform(-1, 2) for _ in range(inst.graph.num_edges)]
        got = pm.max_weight_matching(inst.graph, weights)
        want_w, _ = max_weight_matching_bruteforce(inst.graph.num_vertices, inst.graph.edges, weights)
        assert abs(sum(weights[e] for e in got) - want_w) < 1e-9, f"trial {trial}"


@st.composite
def graphs(draw, max_edges=14):
    """A random multigraph on 2-8 vertices with up to ``max_edges`` edges."""
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda uv: uv[0] != uv[1])
    e = draw(st.integers(0, max_edges))
    return pm.Multigraph(n, tuple(draw(st.lists(pairs, min_size=e, max_size=e))))


@st.composite
def mixtures(draw, max_edges=14):
    """A random instance and a mixture of 1-5 random matchings of it."""
    graph = draw(graphs(max_edges))
    e = graph.num_edges
    inst = pm.PermMatchInstance(graph, tuple(draw(st.permutations(range(e)))))
    support = []
    for _ in range(draw(st.integers(1, 5))):
        used, chosen = set(), []
        for edge in draw(st.permutations(range(e)))[: draw(st.integers(0, e))]:
            u, v = graph.edges[edge]
            if u not in used and v not in used:
                chosen.append(edge)
                used.update((u, v))
        support.append(frozenset(chosen))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    probs = [w / sum(weights) for w in weights]
    probs[-1] = 1.0 - sum(probs[:-1])
    return inst, tuple(zip(support, probs))


@settings(max_examples=150)
@given(mixtures())
def test_follower_best_response_matches_bruteforce(case):
    inst, support = case
    response = pm.follower_best_response_pm(inst, support)
    follower, leader = follower_best_response_bruteforce(inst, support)
    got_f = sum(p * len(m & response) for m, p in support)
    got_l = sum(p * len(m & inst.pi_image(response)) for m, p in support)
    assert abs(got_f - follower) <= 1e-9
    assert abs(got_l - leader) <= 1e-9


@settings(max_examples=150)
@given(st.data())
def test_max_weight_matching_tie_weights_matches_bruteforce(data):
    # half steps keep every sum exact, so ties are real and the
    # smallest-id rule decides them
    graph = data.draw(graphs())
    step = st.integers(-2, 4).map(lambda k: k / 2)
    weights = data.draw(st.lists(step, min_size=graph.num_edges, max_size=graph.num_edges))
    ties = data.draw(st.lists(step, min_size=graph.num_edges, max_size=graph.num_edges) | st.none())
    got = pm.max_weight_matching(graph, weights, ties)
    want = lexmax_matching_bruteforce(graph.num_vertices, graph.edges, weights, ties or [0.0] * graph.num_edges)
    assert got == want


# sums such as 0.1 + 0.2 against 0.3 differ by an ulp, tiny weights fall
# inside EQUAL, and negative tie weights make the tie bound skip edges
NEAR_TIES = st.sampled_from([1 / 3, 2 / 3, 0.1, 0.2, 0.3, 0.5, 1.0, 1e-10, 0.0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_max_weight_matching_matches_the_suffix_bound_search(data):
    n = data.draw(st.integers(4, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda uv: uv[0] != uv[1])
    edges = data.draw(st.lists(pairs, min_size=10, max_size=30))
    graph = pm.Multigraph(n, tuple(edges))
    e = len(edges)
    weight = NEAR_TIES | st.floats(-0.5, 1.0)
    weights = data.draw(st.lists(weight, min_size=e, max_size=e))
    tie = NEAR_TIES | NEAR_TIES.map(lambda x: -x) | st.floats(-1.0, 1.0)
    ties = data.draw(st.lists(tie, min_size=e, max_size=e) | st.none())
    assert pm.max_weight_matching(graph, weights, ties) == suffix_bound_matching(graph, weights, ties)


def test_follower_weight_matches_networkx_at_forty_to_sixty_edges():
    nx = pytest.importorskip("networkx")
    rng = random.Random(19)
    for edges in (40, 48, 54, 60):
        inst = random_permmatch(rng.randrange(1 << 40), edges // 3, edges)
        support = []
        for _ in range(8):
            used, chosen = set(), []
            for e in rng.sample(range(edges), edges):
                u, v = inst.graph.edges[e]
                if u not in used and v not in used:
                    chosen.append(e)
                    used.update((u, v))
            support.append((frozenset(chosen), 1 / 8))
        weights = [sum(p for m, p in support if e in m) for e in range(edges)]
        got = sum(weights[e] for e in pm.follower_best_response_pm(inst, support))
        graph = nx.Graph()
        for e, (u, v) in enumerate(inst.graph.edges):
            if weights[e] > graph.get_edge_data(u, v, {"weight": 0.0})["weight"]:
                graph.add_edge(u, v, weight=weights[e])
        want = sum(graph[u][v]["weight"] for u, v in nx.max_weight_matching(graph))
        assert abs(got - want) <= 1e-9, edges


def test_enumerate_matchings_matches_bruteforce_counts():
    rng = random.Random(4)
    for _ in range(25):
        inst = random_permmatch(rng.randrange(1 << 40), rng.randrange(2, 7), rng.randrange(0, 9))
        ours = pm.enumerate_matchings(inst.graph)
        brute = all_matchings_bruteforce(inst.graph.num_vertices, inst.graph.edges)
        assert len(ours) == len(brute)
        assert set(ours) == set(brute)


def test_enumerate_matchings_order_leaves_each_edge_out_first():
    # the order is the column order of explicit_bimatrix, which decides exact ties in solve_stackelberg
    graph = pm.Multigraph(4, ((0, 1), (1, 2), (2, 3)))
    assert pm.enumerate_matchings(graph) == [frozenset(), {2}, {1}, {0}, {0, 2}]


def test_follower_best_response_two_point_swap():
    inst = swap_instance()
    eps = 0.01
    strategy = pm.TwoPointLeaderStrategy(
        ((frozenset({E0}), 1 / 3 - eps), (frozenset({E1}), 2 / 3 + eps))
    )
    assert pm.follower_best_response_pm(inst, strategy) == {E0, E1}


def test_follower_best_response_point_mass_contains_maximal():
    inst = identity_instance([(0, 1), (2, 3), (4, 5)], 6)
    m = frozenset({0, 1, 2})
    response = pm.follower_best_response_pm(inst, ((m, 1.0),))
    assert m <= response


def test_follower_best_response_empty_graph():
    inst = pm.PermMatchInstance(pm.Multigraph(2, ()), ())
    assert pm.follower_best_response_pm(inst, ((frozenset(), 1.0),)) == frozenset()


def test_follower_best_response_large_graph_no_warning():
    edges = tuple((2 * i, 2 * i + 1) for i in range(13))
    inst = identity_instance(edges, 26)
    point = ((frozenset(range(13)), 1.0),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        response = pm.follower_best_response_pm(inst, point)
    assert response == frozenset(range(13))


def test_follower_best_response_leaves_out_edges_paying_neither_player():
    # edge 0 pays neither player; {0, 1} has the same payoffs as {1}
    inst = identity_instance([(0, 1), (2, 3)], 4)
    assert pm.follower_best_response_pm(inst, ((frozenset({1}), 1.0),)) == {1}


def test_approx_solve_breaks_ties_for_the_leader_above_twelve_edges():
    inst = random_permmatch(0, 8, 13)
    strategy, response, value = pm.approx_solve(inst, 0.01)
    follower, leader = follower_best_response_bruteforce(inst, strategy.support)
    assert value == pytest.approx(2.0, abs=1e-9)
    assert leader == pytest.approx(2.0, abs=1e-9)
    assert sum(p * len(m & response) for m, p in strategy.support) >= follower - 1e-9


def test_leader_best_response_point_mass():
    inst = swap_instance()
    response = leader_best_response_pm(inst, ((frozenset({E1}), 1.0),))
    # pi(M_F) = {e0}; only e0 carries weight
    assert response == {E0}


def test_leader_best_response_identity_perfect_matching():
    inst = identity_instance([(0, 1), (2, 3)], 4)
    m = frozenset({0, 1})
    assert leader_best_response_pm(inst, ((m, 1.0),)) == m


def test_leader_best_response_vs_bruteforce():
    rng = random.Random(31)
    for trial in range(30):
        inst = random_permmatch(rng.randrange(1 << 40), rng.randrange(3, 7), rng.randrange(1, 9))
        matchings = pm.enumerate_matchings(inst.graph)
        y = matchings[rng.randrange(len(matchings))]
        got = leader_best_response_pm(inst, ((y, 1.0),))
        best = max(len(m & inst.pi_image(y)) for m in matchings)
        assert len(got & inst.pi_image(y)) == best, f"trial {trial}"


def test_greedy_pair_swap_instance_takes_both_orientations():
    inst = swap_instance()
    x, xp = pm.greedy_pair(inst)
    assert x == {E0, E1} and xp == {E0, E1}
    assert len(x & inst.pi_image(xp)) == 2


def test_greedy_pair_identity_single_edge():
    inst = identity_instance([(0, 1)], 2)
    x, xp = pm.greedy_pair(inst)
    assert x == xp == {0}
    assert len(x & inst.pi_image(xp)) == 1


def test_greedy_pair_adjacent_pair_single_admissible():
    # pi pairs two edges sharing a vertex: after the first add the reverse
    # orientation conflicts on the leader side.
    graph = pm.Multigraph(3, ((0, 1), (1, 2)))
    inst = pm.PermMatchInstance(graph, (1, 0))
    x, xp = pm.greedy_pair(inst)
    assert x == {1} and xp == {0}


def test_greedy_pair_3dm_reduced_perfect():
    k = 3
    tdm = pm.ThreeDMInstance(k, k, k, tuple((i, i, i) for i in range(k)))
    inst, _ = pm.reduce_3dm(tdm)
    x, xp = pm.greedy_pair(inst)
    assert len(x & inst.pi_image(xp)) == 2 * k  # both orientations per triple


def test_greedy_pair_invariants_all_orders():
    rng = random.Random(77)
    for trial in range(40):
        inst = random_permmatch(rng.randrange(1 << 40), rng.randrange(3, 8), rng.randrange(1, 9))
        orders = [list(range(inst.graph.num_edges))]
        orders.append(orders[0][::-1])
        shuffled = orders[0][:]
        rng.shuffle(shuffled)
        orders.append(shuffled)
        for order in orders:
            x, xp = greedy_pair_in_order(inst, order)
            assert inst.pi_image(xp) == x
            assert len(x) == len(xp) == len(x & inst.pi_image(xp))
            pm.as_matching(inst.graph, x)
            pm.as_matching(inst.graph, xp)
            x_used = {v for e in x for v in inst.graph.edges[e]}
            xp_used = {v for e in xp for v in inst.graph.edges[e]}
            for ep in range(inst.graph.num_edges):
                e = inst.pi[ep]
                eu, ev = inst.graph.edges[e]
                pu, pv = inst.graph.edges[ep]
                admissible = not (
                    eu in x_used or ev in x_used or pu in xp_used or pv in xp_used
                )
                assert not admissible, f"trial {trial}: pair ({e},{ep}) still admissible"


def test_opt_pure_pair_swap():
    inst = swap_instance()
    y, yp, value = opt_pure_pair(inst)
    assert value == 2
    assert y == yp == {E0, E1}


def test_opt_pure_pair_identity_is_max_matching():
    inst = identity_instance([(0, 1), (1, 2), (2, 3)], 4)
    _, _, value = opt_pure_pair(inst)
    assert value == 2  # the two outer edges


def test_opt_pure_pair_empty():
    inst = pm.PermMatchInstance(pm.Multigraph(2, ()), ())
    assert opt_pure_pair(inst)[2] == 0


def test_opt_pure_pair_size_limit():
    inst = identity_instance([(0, 1)] * 13, 2)
    with pytest.raises(SizeLimitError):
        opt_pure_pair(inst)


def test_opt_pure_pair_matches_bruteforce_over_all_pairs():
    rng = random.Random(909)
    for trial in range(80):
        inst = random_permmatch(rng.randrange(1 << 40), rng.randrange(2, 7), rng.randrange(0, 9))
        matchings = all_matchings_bruteforce(inst.graph.num_vertices, inst.graph.edges)
        want = max(len(y & inst.pi_image(yp)) for y in matchings for yp in matchings)
        y, yp, value = opt_pure_pair(inst)
        assert value == want, f"trial {trial}"
        assert y in matchings and yp in matchings
        assert len(y & inst.pi_image(yp)) == value


def test_quarter_bound_mini_corpus():
    rng = random.Random(123)
    for trial in range(60):
        inst = random_permmatch(rng.randrange(1 << 40), rng.randrange(3, 8), rng.randrange(1, 9))
        _, _, opt = opt_pure_pair(inst)
        ids = list(range(inst.graph.num_edges))
        for order in (ids, ids[::-1]):
            x, xp = greedy_pair_in_order(inst, order)
            assert 4 * len(x & inst.pi_image(xp)) >= opt, f"trial {trial}"


def test_approx_leader_strategy_probabilities():
    inst = swap_instance()
    strategy = pm.approx_leader_strategy(inst, 0.01)
    probs = [p for _, p in strategy.support]
    assert probs[0] == pytest.approx(1 / 3 - 0.01)
    assert sum(probs) == 1.0
    with pytest.raises(InputError):
        pm.approx_leader_strategy(inst, 1 / 3)
    with pytest.raises(InputError):
        pm.approx_leader_strategy(inst, 0.0)


def test_approx_solve_swap():
    inst = swap_instance()
    _, response, value = pm.approx_solve(inst, 0.01)
    assert response == {E0, E1}
    # greedy takes both orientations, so both support matchings score 2
    assert value == pytest.approx(2.0)


def test_approx_solve_empty_graph():
    inst = pm.PermMatchInstance(pm.Multigraph(2, ()), ())
    _, _, value = pm.approx_solve(inst, 0.01)
    assert value == 0.0


def test_approx_guarantee_mini_corpus():
    rng = random.Random(321)
    eps = 0.01
    bound = (1 - 3 * eps) / 12
    for trial in range(25):
        inst = random_permmatch(rng.randrange(1 << 40), rng.randrange(3, 7), rng.randrange(1, 8))
        _, response, value = pm.approx_solve(inst, eps)
        game, _ = pm.explicit_bimatrix(inst)
        exact = solve_stackelberg(game).leader_payoff
        assert value >= bound * exact - 1e-9, f"trial {trial}"
        _, xp = pm.greedy_pair(inst)
        assert xp <= response, f"trial {trial}: response missed an x' edge"


def test_pitim_value_examples():
    ident = identity_instance([(0, 1), (2, 3)], 4)
    assert pm.pitim_value(ident, {0, 1}) == 2
    swap = swap_instance()
    assert pm.pitim_value(swap, {E0}) == 0
    assert pm.pitim_value(swap, {E0, E1}) == 2


def test_bruteforce_pitim_swap_and_star():
    assert pm.bruteforce_pitim(swap_instance())[1] == 2
    star = identity_instance([(0, 1), (0, 2), (0, 3)], 4)
    assert pm.bruteforce_pitim(star)[1] == 1


def test_bruteforce_pitim_size_limit():
    inst = identity_instance([(0, 1)] * 13, 2)
    with pytest.raises(SizeLimitError):
        pm.bruteforce_pitim(inst)


def test_reduce_3dm_single_triple():
    tdm = pm.ThreeDMInstance(1, 1, 1, ((0, 0, 0),))
    inst, rmap = pm.reduce_3dm(tdm)
    assert inst.graph.num_vertices == 4
    assert inst.graph.num_edges == 2
    assert inst.pi == (1, 0)
    assert rmap.per_triple == ((0, 1),)


def test_reduce_3dm_disjoint_triples():
    tdm = pm.ThreeDMInstance(2, 2, 2, ((0, 0, 0), (1, 1, 1)))
    inst, _ = pm.reduce_3dm(tdm)
    assert inst.graph.num_edges == 4
    assert inst.pi == (1, 0, 3, 2)
    assert inst.graph.num_vertices == 2 * 2 + 2 + 2


def test_reduce_3dm_shared_vertex_structure():
    tdm = pm.ThreeDMInstance(1, 2, 2, ((0, 0, 0), (0, 1, 1)))
    inst, rmap = pm.reduce_3dm(tdm)
    e0a = inst.graph.edges[rmap.per_triple[0][0]]
    e1a = inst.graph.edges[rmap.per_triple[1][0]]
    assert e0a[0] == e1a[0]  # both A'-edges sit on the same a'


def test_lift_3dm_values():
    tdm = pm.ThreeDMInstance(2, 2, 2, ((0, 0, 0), (1, 1, 1)))
    inst, rmap = pm.reduce_3dm(tdm)
    assert pm.lift_3dm(rmap, set()) == frozenset()
    single = pm.lift_3dm(rmap, {0})
    assert len(single) == 2
    assert pm.pitim_value(inst, single) == 2


def test_lift_3dm_rejects_conflicts():
    tdm = pm.ThreeDMInstance(1, 2, 2, ((0, 0, 0), (0, 1, 1)))
    _, rmap = pm.reduce_3dm(tdm)
    with pytest.raises(InputError):
        pm.lift_3dm(rmap, {0, 1})


def test_lift_extract_round_trip_random():
    rng = random.Random(8)
    for _ in range(30):
        tdm = random_3dm(rng.randrange(1 << 40), 3, 3, 3, 0.3)
        if len(tdm.triples) > 5:
            tdm = pm.ThreeDMInstance(3, 3, 3, tdm.triples[:5])
        inst, rmap = pm.reduce_3dm(tdm)
        for size in range(len(tdm.triples) + 1):
            import itertools

            for combo in itertools.combinations(range(len(tdm.triples)), size):
                if not is_3d_matching(tdm.triples, combo):
                    continue
                lifted = pm.lift_3dm(rmap, combo)
                assert pm.pitim_value(inst, lifted) == 2 * len(combo)
                assert pm.extract_3dm(rmap, inst, lifted) == set(combo)


def test_extract_3dm_partial_pair_excluded():
    tdm = pm.ThreeDMInstance(1, 1, 1, ((0, 0, 0),))
    inst, rmap = pm.reduce_3dm(tdm)
    assert pm.extract_3dm(rmap, inst, {0}) == set()


def test_extract_size_is_half_pitim_value():
    rng = random.Random(21)
    for _ in range(20):
        tdm = random_3dm(rng.randrange(1 << 40), 2, 3, 3, 0.35)
        if not tdm.triples or len(tdm.triples) > 5:
            continue
        inst, rmap = pm.reduce_3dm(tdm)
        best_m, value = pm.bruteforce_pitim(inst)
        extracted = pm.extract_3dm(rmap, inst, best_m)
        assert len(extracted) == value // 2
        assert value == 2 * bruteforce_3dm_value(tdm.triples)


def test_extract_pitim_from_se_perfect_instance():
    inst = identity_instance([(0, 1), (2, 3)], 4)
    m = frozenset({0, 1})
    got, value = extract_pitim_from_se(inst, m)
    assert got == m and value == 2  # n/2 with n = 4 vertices


def test_extract_pitim_from_se_approx_output():
    inst = swap_instance()
    _, response, _ = pm.approx_solve(inst, 0.01)
    _, value = extract_pitim_from_se(inst, response)
    assert value == 2


def test_extract_pitim_dominated_by_bruteforce():
    rng = random.Random(55)
    for _ in range(15):
        inst = random_permmatch(rng.randrange(1 << 40), 5, 7)
        game, matchings = pm.explicit_bimatrix(inst)
        sol = solve_stackelberg(game)
        y = matchings[sol.follower_response]
        _, value = extract_pitim_from_se(inst, y)
        assert value <= pm.bruteforce_pitim(inst)[1]


def test_explicit_bimatrix_single_edge():
    inst = identity_instance([(0, 1)], 2)
    game, matchings = pm.explicit_bimatrix(inst)
    assert game.n == game.m == 2
    assert matchings == [frozenset(), frozenset({0})]


def test_explicit_bimatrix_swap_se_value():
    game, _ = pm.explicit_bimatrix(swap_instance())
    assert game.n == 4
    sol = solve_stackelberg(game, exact=True)
    assert abs(sol.leader_payoff - 2.0) < 1e-9


def test_explicit_bimatrix_limit():
    # 2**11 matchings: 11 is the fewest disjoint edges above EXPLICIT_MATCHING_LIMIT = 1280
    assert pm.EXPLICIT_MATCHING_LIMIT == 1280
    inst = identity_instance([(2 * i, 2 * i + 1) for i in range(11)], 22)
    with pytest.raises(SizeLimitError, match="more than 1280 matchings"):
        pm.explicit_bimatrix(inst)
    # eight disjoint edges and a 3-edge path: 2**8 * 5 = 1280, at the cap
    edges = [(2 * i, 2 * i + 1) for i in range(8)] + [(16, 17), (17, 18), (18, 19)]
    game, matchings = pm.explicit_bimatrix(identity_instance(edges, 20))
    assert len(matchings) == game.n == game.m == 1280


def test_explicit_bimatrix_payoffs_count_shared_and_image_edges():
    for seed in range(20):
        inst = random_permmatch(seed, 3 + seed % 5, seed % 9)
        game, matchings = pm.explicit_bimatrix(inst)
        assert matchings == pm.enumerate_matchings(inst.graph)
        ul = [[len(mi & inst.pi_image(mj)) for mj in matchings] for mi in matchings]
        uf = [[len(mi & mj) for mj in matchings] for mi in matchings]
        assert game.u_leader.tolist() == ul and game.u_follower.tolist() == uf


def test_explicit_bimatrix_on_1200_disjoint_edges_hits_the_limit():
    # the enumeration runs on an explicit stack, so it reaches its limit
    # instead of Python's recursion depth
    inst = identity_instance([(2 * i, 2 * i + 1) for i in range(1200)], 2400)
    with pytest.raises(SizeLimitError, match="more than 1280 matchings"):
        pm.explicit_bimatrix(inst)


def test_validation_errors():
    with pytest.raises(InputError):
        pm.Multigraph(2, ((0, 0),))
    with pytest.raises(InputError):
        pm.Multigraph(2, ((0, 5),))
    with pytest.raises(InputError):
        pm.PermMatchInstance(pm.Multigraph(2, ((0, 1),)), (0, 0))
    with pytest.raises(InputError):
        pm.TwoPointLeaderStrategy(((frozenset(), 0.5), (frozenset(), 0.4)))
    with pytest.raises(InputError):
        pm.ThreeDMInstance(1, 1, 1, ((0, 0, 1),))


def test_json_round_trips():
    inst = swap_instance()
    text = json.dumps(pm.permmatch_to_json_obj(inst))
    again = pm.permmatch_from_json(text)
    assert again == inst
    tdm = pm.ThreeDMInstance(2, 2, 2, ((0, 0, 0), (1, 1, 1)))
    text = json.dumps(pm.threedm_to_json_obj(tdm))
    assert pm.threedm_from_json(text) == tdm
    with pytest.raises(InputError):
        pm.permmatch_from_json('{"vertices": 2, "edges": [{"id": 1, "u": 0, "v": 1}], "pi": [0]}')


def _set(obj, path, value):
    """``obj`` with the entry at ``path`` (keys and list indices) set to ``value``."""
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "path", [("vertices",), ("edges", 1, "id"), ("edges", 0, "u"), ("edges", 1, "v"), ("pi", 0)], ids=str
)
def test_permmatch_json_takes_no_boolean_for_an_integer(path, value):
    # operator.index(True) is 1, and True == 1 passed the edge id check
    obj = pm.permmatch_to_json_obj(identity_instance([(0, 1), (1, 2)], 3))
    assert pm.permmatch_from_json(json.dumps(obj)).graph.num_edges == 2
    _set(obj, path, value)
    with pytest.raises(InputError, match="boolean"):
        pm.permmatch_from_json(json.dumps(obj))


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("path", [("nA",), ("nB",), ("nC",), ("triples", 0, 0), ("triples", 1, 2)], ids=str)
def test_threedm_json_takes_no_boolean_for_an_integer(path, value):
    obj = pm.threedm_to_json_obj(pm.ThreeDMInstance(2, 2, 2, ((0, 0, 0), (1, 1, 1))))
    assert len(pm.threedm_from_json(json.dumps(obj)).triples) == 2
    _set(obj, path, value)
    with pytest.raises(InputError, match="boolean"):
        pm.threedm_from_json(json.dumps(obj))


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("which", ["weights", "tie weights"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_max_weight_matching_rejects_non_finite_weights(bad, which, as_array):
    graph = pm.Multigraph(4, ((0, 1), (1, 2), (2, 3)))
    given = {"weights": [1.0, 2.0, 1.5], "tie weights": [0.0, 1.0, 0.0]}
    given[which][1] = bad
    weights, ties = (np.asarray(v) if as_array else v for v in given.values())
    with pytest.raises(InputError, match="finite"):
        pm.max_weight_matching(graph, weights, ties)
