"""Independent correctness checks for every benchmark operation.

Nothing here calls a ``stacksolve`` solver. References come from
``scipy.optimize.linprog`` on LPs written out here, from this module's own
enumeration of matchings and s-t paths, from networkx's blossom matcher,
from closed forms and from the guarantees the methods state. Only the
``stacksolve`` data classes are read (payoff matrices, edges, families).

Each ``reference_*`` function depends on the input alone, so the worker
computes it once per input; each ``check_*`` function runs on every output
and raises ``CheckError`` when it rejects it.
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy.optimize import linprog

LP_TOL = 1e-7  # reference LP optimum vs reported payoff
EVAL_TOL = 1e-9  # re-evaluated payoffs and best-response gaps
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class CheckError(AssertionError):
    """An output failed an independent check."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(0, None)):
    res = linprog(-np.asarray(c, float), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs", options=_HIGHS)
    if res.status == 2:
        return None
    _require(res.status == 0, f"reference LP failed: {res.message}")
    return -float(res.fun)


# ---------------------------------------------------------------------------
# explicit games


def commitment_value(ul: np.ndarray, uf: np.ndarray) -> float:
    """Max over columns j of max x.uL[:, j] s.t. j is a weak follower best response."""
    n, m = ul.shape
    best = -np.inf
    for j in range(m):
        others = [jp for jp in range(m) if jp != j]
        a_ub = (uf[:, others] - uf[:, [j]]).T if others else None
        b_ub = np.zeros(len(others)) if others else None
        val = _maximize(ul[:, j], a_ub, b_ub, np.ones((1, n)), np.ones(1))
        if val is not None:
            best = max(best, val)
    _require(np.isfinite(best), "every reference column LP was infeasible")
    return best


def pure_commitment_value(ul: np.ndarray, uf: np.ndarray) -> float:
    """Best leader payoff over pure commitments, follower ties broken for the leader."""
    best = -np.inf
    for i in range(ul.shape[0]):
        tied = uf[i] >= uf[i].max() - EVAL_TOL
        best = max(best, ul[i, tied].max())
    return float(best)


def reference_game(ul, uf) -> dict:
    ul = np.asarray(ul, float)
    uf = np.asarray(uf, float)
    return {"value": commitment_value(ul, uf), "pure": pure_commitment_value(ul, uf)}


def check_commitment(ul, uf, x, response: int, leader_payoff: float, ref: dict,
                     follower_payoff: float | None = None) -> None:
    """SE output: optimal value, a follower best response, re-evaluated payoffs."""
    ul = np.asarray(ul, float)
    uf = np.asarray(uf, float)
    x = np.asarray(x, float)
    _require(x.shape == (ul.shape[0],), "leader strategy has the wrong length")
    _require(x.min() >= -EVAL_TOL and abs(x.sum() - 1.0) <= EVAL_TOL, "leader strategy is not a distribution")
    _require(0 <= response < ul.shape[1], "response column out of range")
    fvals = x @ uf
    _require(fvals[response] >= fvals.max() - EVAL_TOL, "response is not a follower best response")
    _require(abs(x @ ul[:, response] - leader_payoff) <= EVAL_TOL, "leader payoff does not re-evaluate")
    if follower_payoff is not None:
        _require(abs(fvals[response] - follower_payoff) <= EVAL_TOL, "follower payoff does not re-evaluate")
    _require(abs(leader_payoff - ref["value"]) <= LP_TOL,
             f"leader payoff {leader_payoff!r} != reference optimum {ref['value']!r}")
    _require(leader_payoff >= ref["pure"] - EVAL_TOL, "payoff below the best pure commitment")


# ---------------------------------------------------------------------------
# incentive games on s-t path families


def simple_paths(num_vertices: int, edges, source: int, sink: int, limit: int = 100_000) -> list[frozenset]:
    """Every simple s-t path as a set of edge ids (depth-first)."""
    adj = [[] for _ in range(num_vertices)]
    for eid, u, v in edges:
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    out: list[frozenset] = []
    seen = [False] * num_vertices
    trail: list[str] = []

    def walk(v: int) -> None:
        if v == sink:
            out.append(frozenset(trail))
            _require(len(out) <= limit, "too many paths for the reference enumeration")
            return
        seen[v] = True
        for eid, to in adj[v]:
            if not seen[to]:
                trail.append(eid)
                walk(to)
                trail.pop()
        seen[v] = False

    walk(source)
    return out


def path_lp_value(elements, cost: dict, big_c: dict, paths) -> float:
    """max W + sum C_e x_e s.t. W <= sum_{e in P} (x_e + cost_e) for every listed path."""
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    a_ub = np.zeros((len(paths), n + 1))
    b_ub = np.zeros(len(paths))
    for r, p in enumerate(paths):
        for e in p:
            a_ub[r, index[e]] = -1.0
            b_ub[r] += cost[e]
        a_ub[r, n] = 1.0
    c = [big_c[e] for e in elements] + [1.0]
    a_eq = np.array([[1.0] * n + [0.0]])
    return _maximize(c, a_ub, b_ub, a_eq, np.ones(1), [(0, None)] * n + [(None, None)])


def shortest_cost(num_vertices: int, edges, cost: dict, source: int, sink: int) -> float:
    import networkx as nx  # imported on first use, so that it is not timed as set-up

    graph = nx.MultiGraph()
    graph.add_nodes_from(range(num_vertices))
    for eid, u, v in edges:
        graph.add_edge(u, v, weight=cost[eid])
    return float(nx.shortest_path_length(graph, source, sink, weight="weight"))


def reference_incentive(inst) -> dict:
    """Optimal leader payoff with incentives: LP optimum plus the best total reward."""
    fam = inst.family
    cost = {e: -inst.follower_reward[e] for e in inst.elements}
    paths = simple_paths(fam.num_vertices, fam.edges, fam.source, fam.sink)
    lp_value = path_lp_value(inst.elements, cost, inst.leader_reward, paths)
    return {"value": lp_value - shortest_cost(fam.num_vertices, fam.edges, cost, fam.source, fam.sink)}


def check_incentive(inst, x: dict, target, incentive_value: float, leader_payoff: float, ref: dict) -> None:
    probs = np.array([x.get(e, 0.0) for e in inst.elements])
    _require(probs.min() >= -EVAL_TOL and abs(probs.sum() - 1.0) <= 1e-8, "x is not a distribution")
    _require(incentive_value >= 0.0, "negative incentive")
    target = set(target)
    drift = sum(x.get(e, 0.0) * inst.leader_reward[e] for e in inst.elements)
    lpay = sum(x.get(e, 0.0) for e in target) - incentive_value + drift
    _require(abs(lpay - leader_payoff) <= 1e-8, "leader payoff does not re-evaluate")
    _require(abs(leader_payoff - ref["value"]) <= LP_TOL,
             f"leader payoff {leader_payoff!r} != reference {ref['value']!r}")


def incentive_game_matrices(inst):
    """The no-incentive explicit game, built from this module's own path list."""
    fam = inst.family
    paths = simple_paths(fam.num_vertices, fam.edges, fam.source, fam.sink)
    paths.sort(key=lambda p: tuple(sorted(p)))
    ul = np.zeros((len(inst.elements), len(paths)))
    uf = np.zeros_like(ul)
    for j, p in enumerate(paths):
        reward = sum(inst.follower_reward[e] for e in p)
        for i, e in enumerate(inst.elements):
            hit = 1.0 if e in p else 0.0
            ul[i, j] = hit + inst.leader_reward[e]
            uf[i, j] = -hit + reward
    return ul, uf, paths


def commit_closed_form(k: int) -> float:
    """No-incentive SE value of the s-a-b-t example with k bypass copies."""
    return (0.6 * k + 1) / (k + 1)


COMMIT_WITH_INCENTIVES = 0.8


# ---------------------------------------------------------------------------
# permuted matchings


def is_matching(edges, ids) -> bool:
    seen: set[int] = set()
    for e in ids:
        if not 0 <= e < len(edges):
            return False
        u, v = edges[e]
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def all_matchings(edges) -> list[frozenset]:
    """Every matching of an edge list, including the empty one."""
    out: list[frozenset] = []

    def grow(start: int, chosen: list[int], used: set[int]) -> None:
        out.append(frozenset(chosen))
        for e in range(start, len(edges)):
            u, v = edges[e]
            if u not in used and v not in used:
                chosen.append(e)
                grow(e + 1, chosen, used | {u, v})
                chosen.pop()

    grow(0, [], set())
    return out


def marginals(num_edges: int, support) -> list[float]:
    w = [0.0] * num_edges
    for m, p in support:
        for e in m:
            w[e] += p
    return w


def max_matching_weight(edges, weights) -> float:
    """networkx blossom on the simple graph keeping each pair's heaviest edge."""
    import networkx as nx  # imported on first use, so that it is not timed as set-up

    heaviest: dict[tuple[int, int], float] = {}
    for (u, v), w in zip(edges, weights):
        key = (min(u, v), max(u, v))
        heaviest[key] = max(heaviest.get(key, 0.0), w)
    graph = nx.Graph()
    for (u, v), w in heaviest.items():
        if w > 0:
            graph.add_edge(u, v, weight=w)
    chosen = nx.max_weight_matching(graph)
    return float(sum(graph[u][v]["weight"] for u, v in chosen))


def expected_leader(pi, support, response) -> float:
    image = {pi[e] for e in response}
    return sum(p * len(set(m) & image) for m, p in support)


def reference_best_response(edges, pi, support, tie_break: bool) -> dict:
    """Max follower weight; at small sizes also the leader-favouring tie value."""
    weights = marginals(len(edges), support)
    ref = {"weight": max_matching_weight(edges, weights)}
    if tie_break:
        scored = [(sum(weights[e] for e in m), m) for m in all_matchings(edges)]
        top = max(w for w, _ in scored)
        _require(abs(top - ref["weight"]) <= EVAL_TOL, "enumeration and blossom disagree")
        ref["leader"] = max(expected_leader(pi, support, m) for w, m in scored if w >= top - EVAL_TOL)
    return ref


def check_best_response(edges, pi, support, response, ref: dict, leader_payoff: float | None = None) -> None:
    response = sorted(response)
    _require(is_matching(edges, response), "response is not a matching")
    weights = marginals(len(edges), support)
    _require(abs(sum(weights[e] for e in response) - ref["weight"]) <= EVAL_TOL,
             "response is not a maximum-weight matching")
    lpay = expected_leader(pi, support, response)
    if leader_payoff is not None:
        _require(abs(lpay - leader_payoff) <= EVAL_TOL, "leader payoff does not re-evaluate")
    if "leader" in ref:
        _require(lpay >= ref["leader"] - EVAL_TOL, "tie not broken in the leader's favour")


def check_approx(edges, pi, support, response, value: float, eps: float, tie_break: bool) -> None:
    """Two-point mixture: weights 1/3-eps and 2/3+eps, guarantee on |x & pi(x')|."""
    _require(len(support) == 2, "approximation must mix two matchings")
    (x, p), (xp, q) = support
    _require(is_matching(edges, sorted(x)) and is_matching(edges, sorted(xp)), "support is not matchings")
    _require(abs(p - (1 / 3 - eps)) <= 1e-12 and abs(p + q - 1.0) <= 1e-12, "wrong mixture weights")
    shared = len(set(x) & {pi[e] for e in xp})
    _require(value >= (1 / 3 - eps) * shared - EVAL_TOL, "payoff below (1/3 - eps)|x & pi(x')|")
    check_best_response(edges, pi, support, response,
                        reference_best_response(edges, pi, support, tie_break), value)


# ---------------------------------------------------------------------------
# grid discretization


def check_grid(ul, uf, k: int, sol, ref: dict) -> None:
    ul = np.asarray(ul, float)
    uf = np.asarray(uf, float)
    n = ul.shape[0]
    _require(sol.grid_size == comb(n + k - 1, n - 1), "grid_size != C(n+k-1, n-1)")
    x = np.asarray(sol.leader.probs, float)
    _require(np.allclose(x * k, np.round(x * k), atol=1e-9) and abs(x.sum() - 1) <= EVAL_TOL,
             "leader strategy is not a grid point")
    big_m = max(np.abs(ul).max(), np.abs(uf).max())
    _require(abs(sol.slack - 2 * n * big_m / k) <= 1e-12, "slack != 2 n eps M")
    fvals = x @ uf
    j = sol.follower_response
    _require(fvals[j] >= fvals.max() - sol.slack - EVAL_TOL, "response not within slack of best")
    _require(abs(x @ ul[:, j] - sol.leader_payoff) <= EVAL_TOL, "leader payoff does not re-evaluate")
    _require(sol.leader_payoff >= ref["value"] - sol.slack - EVAL_TOL, "payoff more than slack below the SE value")


# ---------------------------------------------------------------------------
# 3DM reduction


def greedy_3dm(triples) -> set[int]:
    used: list[set[int]] = [set(), set(), set()]
    chosen = set()
    for t, abc in enumerate(triples):
        if all(c not in used[d] for d, c in enumerate(abc)):
            chosen.add(t)
            for d, c in enumerate(abc):
                used[d].add(c)
    return chosen


def check_reduction(tdm, inst, selected: set[int], lifted, extracted) -> None:
    n_a, n_b = tdm.n_a, tdm.n_b
    edges = inst.graph.edges
    _require(inst.graph.num_vertices == 2 * n_a + n_b + tdm.n_c, "wrong vertex count")
    _require(len(edges) == 2 * len(tdm.triples), "wrong edge count")
    for t, (a, b, c) in enumerate(tdm.triples):
        ends = {frozenset(edges[2 * t]), frozenset(edges[2 * t + 1])}
        _require(ends == {frozenset((a, 2 * n_a + b)), frozenset((n_a + a, 2 * n_a + n_b + c))},
                 "triple edges have the wrong endpoints")
        _require(inst.pi[2 * t] == 2 * t + 1 and inst.pi[2 * t + 1] == 2 * t, "pi must swap a triple's edges")
    lifted = set(lifted)
    _require(is_matching(edges, sorted(lifted)), "lifted edges are not a matching")
    _require(len(lifted & {inst.pi[e] for e in lifted}) == 2 * len(selected), "lift value != 2|selected|")
    _require(set(extracted) == selected, "extract did not recover the selection")
