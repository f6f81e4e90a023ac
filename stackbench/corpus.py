"""Seeded inputs and operations of the three benchmark workloads.

Input sizes are fixed per workload; the seed only draws their contents, so
every seed gives the same mix of sizes. Each operation calls ``stacksolve``
through module attributes (``bimatrix.solve_stackelberg(...)``), which is
what lets the tracer in ``spans.py`` see every call. Every operation also
runs the program's own validation, as the CLI does.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from stacksolve import bimatrix, discretize, gen, incentive, permmatch

import checks

PM_EPS = 0.01


@dataclass
class Op:
    """One timed solve: ``run`` is timed, ``check`` gets its output and the reference."""

    kind: str
    run: Callable[[], Any]
    reference: Callable[[], Any]
    check: Callable[[Any, Any], None]


@dataclass
class CliJob:
    """One ``stacksolve`` process: its arguments and a check of its ``result`` block."""

    kind: str
    args: list[str]
    check: Callable[[dict], None]


@dataclass
class Corpus:
    ops: list[Op] = field(default_factory=list)
    cli: list[CliJob] = field(default_factory=list)


class Writer:
    """Writes each input as JSON under the run's output directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def put(self, name: str, obj) -> str:
        path = os.path.join(self.root, name + ".json")
        with open(path, "w") as handle:
            json.dump(obj, handle)
        return path


def _seeds(seed: int):
    rng = gen.SplitMix64(seed)
    while True:
        yield rng.next_u64()


def _draw(seeds, vertices: int, edges: int, matchings: int | None = None) -> permmatch.PermMatchInstance:
    """The next seeded instance, with exactly ``matchings`` matchings when given.

    A fixed matching count fixes the enumeration work whatever the seed.
    """
    for _ in range(10_000):
        inst = gen.random_permmatch(next(seeds), vertices, edges)
        if matchings is None or len(checks.all_matchings(inst.graph.edges)) == matchings:
            return inst
    raise ValueError(f"no {vertices}-vertex {edges}-edge graph with {matchings} matchings")


# ---------------------------------------------------------------------------
# bimatrix-highs: Multiple-LPs SE on HiGHS


def _se_op(kind: str, game) -> Op:
    def run():
        sol = bimatrix.solve_stackelberg(game)
        bimatrix.validate_stackelberg_solution(game, sol)
        return sol

    def check(sol, ref):
        checks.check_commitment(game.u_leader, game.u_follower, sol.leader.probs,
                                sol.follower_response, sol.leader_payoff, ref, sol.follower_payoff)

    return Op(kind, run, lambda: checks.reference_game(game.u_leader, game.u_follower), check)


def _se_cli(path: str, ref_op: Op) -> CliJob:
    def check(result):
        if abs(result["leaderPayoff"] - ref_op.reference()["value"]) > checks.LP_TOL:
            raise checks.CheckError("CLI leaderPayoff != reference optimum")

    return CliJob("solve-bimatrix", ["solve-bimatrix", "--method", "se", "-i", path], check)


def bimatrix_corpus(seed: int, smoke: bool, out: Writer) -> Corpus:
    if smoke:
        squares, thin, integer = [8, 12], [(3, 10)], [(6, 6)]
    else:
        # denser around 30x30, where the median solve falls
        squares = [10, 14, 18, 22, 25, 27, 28, 29, 30, 31, 32, 33, 34, 36, 40, 45, 50, 55, 60]
        thin = [(4, 60), (60, 4), (6, 40), (40, 6)]
        integer = [(12, 12), (16, 24), (20, 20), (28, 28)]
    seeds = _seeds(seed)
    corpus = Corpus()
    paths = []
    for n in squares:
        game = gen.random_bimatrix(next(seeds), n, n)
        paths.append(out.put(f"square-{n}", game.to_json_obj()))
        corpus.ops.append(_se_op("square", game))
    for n, m in thin:
        game = gen.random_bimatrix(next(seeds), n, m)
        out.put(f"thin-{n}x{m}", game.to_json_obj())
        corpus.ops.append(_se_op("thin", game))
    for n, m in integer:
        # small integer payoffs 0..3, so ties and degenerate LPs occur
        base = gen.random_bimatrix(next(seeds), n, m, 0.0, 4.0)
        game = bimatrix.BimatrixGame(np.floor(base.u_leader), np.floor(base.u_follower))
        out.put(f"integer-{n}x{m}", game.to_json_obj())
        corpus.ops.append(_se_op("integer", game))
    for i in range(1 if smoke else 6):
        corpus.cli.append(_se_cli(paths[i % len(paths)], corpus.ops[i % len(paths)]))
    return corpus


# ---------------------------------------------------------------------------
# exact-lp: the rational simplex, in cut loops and in many small SE LPs


def grid_instance(seed: int, rows: int, cols: int) -> incentive.IncentiveInstance:
    """A rows x cols vertex grid from corner to corner, edge costs 1 + U[0, 0.1]."""
    rng = gen.SplitMix64(seed)
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((f"h{i}_{j}", v, v + 1))
            if i + 1 < rows:
                edges.append((f"v{i}_{j}", v, v + cols))
    ids = tuple(e[0] for e in edges)
    reward = {e: -(1.0 + 0.1 * rng.next_float()) for e in ids}
    family = incentive.PathFamily(rows * cols, tuple(edges), 0, rows * cols - 1)
    return incentive.IncentiveInstance(ids, reward, {e: 0.0 for e in ids}, family)


def commit_instance(parallel: int) -> incentive.IncentiveInstance:
    """The s-a-b-t taxation example: unit chain, ``parallel`` copies of s-b (2.2) and a-t (2.4)."""
    s, a, b, t = 0, 1, 2, 3
    edges = [("sa", s, a), ("ab", a, b), ("bt", b, t)]
    cost = {"sa": 1.0, "ab": 1.0, "bt": 1.0}
    for i in range(1, parallel + 1):
        edges += [(f"sb{i}", s, b), (f"at{i}", a, t)]
        cost[f"sb{i}"], cost[f"at{i}"] = 2.2, 2.4
    ids = tuple(e[0] for e in edges)
    return incentive.IncentiveInstance(
        ids, {e: -cost[e] for e in ids}, {e: 0.0 for e in ids},
        incentive.PathFamily(4, tuple(edges), s, t),
    )


def _incentive_op(kind: str, inst, exact_value: float | None = None) -> Op:
    def run():
        sol = incentive.solve_stackelberg_incentive(inst)
        if not incentive.check_incentive_lower_bound(inst, sol.strategy):
            raise checks.CheckError("solution violates the incentive lower bound")
        return sol

    def reference():
        ref = checks.reference_incentive(inst)
        if exact_value is not None and abs(ref["value"] - exact_value) > checks.LP_TOL:
            raise checks.CheckError("reference LP disagrees with the closed form")
        return ref

    def check(sol, ref):
        checks.check_incentive(inst, sol.strategy.x, sol.target_set, sol.incentive_value,
                               sol.leader_payoff, ref)

    return Op(kind, run, reference, check)


def _no_incentive_op(kind: str, inst, closed_form: float) -> Op:
    def run():
        game, ids = incentive.incentive_bimatrix(inst)
        sol = bimatrix.solve_stackelberg(game, exact=True)
        bimatrix.validate_stackelberg_solution(game, sol)
        return ids, sol

    def reference():
        ul, uf, paths = checks.incentive_game_matrices(inst)
        ref = {**checks.reference_game(ul, uf), "ul": ul, "uf": uf,
               "column": {tuple(sorted(p)): j for j, p in enumerate(paths)}}
        if abs(ref["value"] - closed_form) > checks.LP_TOL:
            raise checks.CheckError("reference LP disagrees with the closed form")
        return ref

    def check(out, ref):
        ids, sol = out
        if sorted(ref["column"]) != sorted(tuple(i) for i in ids):
            raise checks.CheckError("column set differs from the enumerated paths")
        # our own matrices, in the program's column order
        order = [ref["column"][tuple(i)] for i in ids]
        checks.check_commitment(ref["ul"][:, order], ref["uf"][:, order], sol.leader.probs,
                                sol.follower_response, sol.leader_payoff, ref, sol.follower_payoff)
        if abs(sol.leader_payoff - closed_form) > checks.EVAL_TOL:
            raise checks.CheckError("no-incentive value != (0.6k+1)/(k+1)")

    return Op(kind, run, reference, check)


def pm_matrices(edges, pi, matchings):
    images = [{pi[e] for e in m} for m in matchings]
    ul = np.array([[len(set(mi) & images[j]) for j in range(len(matchings))] for mi in matchings], float)
    uf = np.array([[len(set(mi) & set(mj)) for mj in matchings] for mi in matchings], float)
    return ul, uf


def _explicit_op(inst) -> Op:
    edges, pi = inst.graph.edges, inst.pi

    def run():
        game, matchings = permmatch.explicit_bimatrix(inst)
        sol = bimatrix.solve_stackelberg(game, exact=True)
        bimatrix.validate_stackelberg_solution(game, sol)
        return matchings, sol

    def reference():
        mine = checks.all_matchings(edges)
        return {"matchings": set(mine), **checks.reference_game(*pm_matrices(edges, pi, mine))}

    def check(out, ref):
        matchings, sol = out
        if set(matchings) != ref["matchings"] or len(matchings) != len(ref["matchings"]):
            raise checks.CheckError("explicit game does not list every matching once")
        ul, uf = pm_matrices(edges, pi, matchings)
        checks.check_commitment(ul, uf, sol.leader.probs, sol.follower_response,
                                sol.leader_payoff, ref, sol.follower_payoff)

    return Op("explicit", run, reference, check)


def exact_corpus(seed: int, smoke: bool, out: Writer) -> Corpus:
    if smoke:
        grids, commits, counts = [(3, 3)], [1, 2], [10]
    else:
        # Sized so that the median solve falls in a block of explicit games
        # with 12 matchings and the 90th percentile in one with 14, blocks
        # large enough that their quantiles vary little with the seed.
        # Cut-loop rounds on grids vary 3-18 with the seed, and a 6x6 grid
        # takes 17-235 ms, so the grids stay below the median. Grids stop
        # at 4x5 (976 paths): the reference LP over the 8,512 paths of a
        # 5x5 grid would set the worker's peak memory.
        grids = [(3, 3), (3, 4), (4, 4), (4, 5), (4, 5)] * 2
        commits = [1, 2, 3, 4]
        counts = [12] * 24 + [14] * 14
    seeds = _seeds(seed)
    corpus = Corpus()
    grid_paths = []
    for r, c in grids:
        inst = grid_instance(next(seeds), r, c)
        grid_paths.append(out.put(f"grid-{r}x{c}-{len(grid_paths)}", incentive.incentive_to_json_obj(inst)))
        corpus.ops.append(_incentive_op("grid", inst))
    commit_paths = {}
    for k in commits:
        inst = commit_instance(k)
        commit_paths[k] = out.put(f"commit-{k}", incentive.incentive_to_json_obj(inst))
        corpus.ops.append(_no_incentive_op("commit-noinc", inst, checks.commit_closed_form(k)))
        corpus.ops.append(_incentive_op("commit", inst, checks.COMMIT_WITH_INCENTIVES))
    for i, count in enumerate(counts):
        inst = _draw(seeds, 8, 7, count)
        out.put(f"pm-{i}-{count}", permmatch.permmatch_to_json_obj(inst))
        corpus.ops.append(_explicit_op(inst))

    def incentive_cli(path, value, no_incentives):
        def check(result):
            if abs(result["leaderPayoff"] - value()) > checks.LP_TOL:
                raise checks.CheckError("CLI leaderPayoff != reference")
        args = ["solve-incentive", "-i", path] + (["--no-incentives"] if no_incentives else [])
        return CliJob("solve-incentive-noinc" if no_incentives else "solve-incentive", args, check)

    first_grid = corpus.ops[0]
    jobs = [
        incentive_cli(commit_paths[commits[0]], lambda: checks.COMMIT_WITH_INCENTIVES, False),
        incentive_cli(commit_paths[commits[0]], lambda: checks.commit_closed_form(commits[0]), True),
        incentive_cli(grid_paths[0], lambda: first_grid.reference()["value"], False),
        incentive_cli(commit_paths[commits[1]], lambda: checks.commit_closed_form(commits[1]), True),
        incentive_cli(commit_paths[commits[-1]], lambda: checks.COMMIT_WITH_INCENTIVES, False),
        incentive_cli(commit_paths[commits[-1]], lambda: checks.commit_closed_form(commits[-1]), True),
    ]
    corpus.cli = jobs[:1] if smoke else jobs
    return corpus


# ---------------------------------------------------------------------------
# combinatorial: greedy pairs, best-response matchers, grids, 3DM


def random_mixture(seeds, edges, count: int) -> permmatch.TwoPointLeaderStrategy:
    """``count`` random maximal matchings with seeded integer weights."""
    rng = gen.SplitMix64(next(seeds))
    support = []
    for _ in range(count):
        used, chosen = set(), []
        for e in rng.shuffle(list(range(len(edges)))):
            u, v = edges[e]
            if u not in used and v not in used:
                chosen.append(e)
                used.update((u, v))
        support.append(frozenset(chosen))
    weights = [1 + rng.next_below(9) for _ in support]
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[-1] = 1.0 - sum(probs[:-1])
    return permmatch.TwoPointLeaderStrategy(tuple(zip(support, probs)))


def _quiet(fn, *args):
    # above 12 edges the best response warns that it drops the tie-break
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args)


def _approx_op(inst) -> Op:
    edges, pi = inst.graph.edges, inst.pi
    small = len(edges) <= permmatch.BRUTE_FORCE_EDGE_LIMIT

    def check(out, _ref):
        strategy, response, value = out
        checks.check_approx(edges, pi, strategy.support, response, value, PM_EPS, small)

    return Op("approx", lambda: _quiet(permmatch.approx_solve, inst, PM_EPS), lambda: None, check)


def _best_response_op(kind: str, inst, strategy) -> Op:
    edges, pi = inst.graph.edges, inst.pi
    small = len(edges) <= permmatch.BRUTE_FORCE_EDGE_LIMIT

    def check(response, ref):
        checks.check_best_response(edges, pi, strategy.support, response, ref)

    return Op(kind, lambda: _quiet(permmatch.follower_best_response_pm, inst, strategy),
              lambda: checks.reference_best_response(edges, pi, strategy.support, small), check)


def _grid_op(game, k: int) -> Op:
    params = discretize.GridParams(k)

    def run():
        sol = discretize.discretized_se(game, params)
        if sol.follower_response not in discretize.almost_best_responses(game, sol.leader, sol.slack):
            raise checks.CheckError("discretized response failed the almost-best-response check")
        return sol

    def check(sol, ref):
        checks.check_grid(game.u_leader, game.u_follower, k, sol, ref)

    return Op("grid", run, lambda: checks.reference_game(game.u_leader, game.u_follower), check)


def _reduce_op(tdm) -> Op:
    selected = checks.greedy_3dm(tdm.triples)

    def run():
        inst, rmap = permmatch.reduce_3dm(tdm)
        lifted = permmatch.lift_3dm(rmap, selected)
        return inst, lifted, permmatch.extract_3dm(rmap, inst, lifted)

    def check(out, _ref):
        inst, lifted, extracted = out
        checks.check_reduction(tdm, inst, selected, lifted, extracted)

    return Op("reduce", run, lambda: None, check)


def combinatorial_corpus(seed: int, smoke: bool, out: Writer) -> Corpus:
    if smoke:
        approx_edges, small_br, large_br, grids, tdms = [8, 14], [(6, 8, 4, None)], [], [(3, 20)], [(3, 0.4)]
    else:
        approx_edges = [8, 10, 12, 16, 20, 24, 30, 36, 42, 48, 54, 60]
        # (vertices, edges, leader mixture size, matchings in the graph)
        small_br = [(8, 10, 8, 40), (8, 10, 8, 50), (8, 11, 10, 55), (8, 11, 10, 65), (8, 12, 12, 70),
                    (8, 12, 12, 80), (9, 12, 14, 90), (9, 12, 14, 100), (10, 12, 16, 110), (10, 12, 16, 120)]
        large_br = [(16, 40, 8), (16, 40, 8), (18, 42, 8), (18, 42, 8)]
        grids = [(3, 140), (3, 250), (4, 60), (5, 30), (6, 18),
                 (3, 480), (4, 90), (4, 100), (5, 38), (5, 40), (6, 22), (6, 23)]
        tdms = [(3, 0.4), (4, 0.3), (5, 0.25), (6, 0.2)]
    seeds = _seeds(seed)
    corpus = Corpus()
    approx_jobs, br_jobs, grid_jobs = [], [], []
    for e in approx_edges:
        inst = _draw(seeds, max(5, e // 2), e)
        approx_jobs.append((out.put(f"approx-{e}", permmatch.permmatch_to_json_obj(inst)), inst))
        corpus.ops.append(_approx_op(inst))
    for v, e, count, *matchings in small_br + large_br:
        inst = _draw(seeds, v, e, *matchings)
        strategy = random_mixture(seeds, inst.graph.edges, count)
        name = f"br-{e}-{len(br_jobs)}"
        inst_path = out.put(name, permmatch.permmatch_to_json_obj(inst))
        strat_path = out.put(name + "-strategy", {"support": [
            {"edges": sorted(m), "prob": p} for m, p in strategy.support]})
        br_jobs.append((inst_path, strat_path, inst, strategy))
        corpus.ops.append(_best_response_op("br-small" if matchings else "br-large", inst, strategy))
    for n, k in grids:
        game = gen.random_bimatrix(next(seeds), n, 8)
        grid_jobs.append((out.put(f"grid-{n}-{k}", game.to_json_obj()), game, k))
        corpus.ops.append(_grid_op(game, k))
    for size, density in tdms:
        tdm = gen.random_3dm(next(seeds), size, size, size, density)
        out.put(f"3dm-{size}", permmatch.threedm_to_json_obj(tdm))
        corpus.ops.append(_reduce_op(tdm))

    def approx_cli(path, inst):
        def check(result):
            support = [(frozenset(s["edges"]), s["prob"]) for s in result["support"]]
            checks.check_approx(inst.graph.edges, inst.pi, support, result["response"],
                                result["leaderPayoff"], PM_EPS, inst.graph.num_edges <= 12)
        return CliJob("pm-approx", ["pm", "approx", "-i", path], check)

    def br_cli(inst_path, strat_path, inst, strategy):
        def check(result):
            edges, pi = inst.graph.edges, inst.pi
            ref = checks.reference_best_response(edges, pi, strategy.support, len(edges) <= 12)
            checks.check_best_response(edges, pi, strategy.support, result["response"], ref,
                                       result["leaderPayoff"])
        return CliJob("pm-bestresponse", ["pm", "bestresponse", "-i", inst_path, "--strategy", strat_path], check)

    def grid_cli(path, game, k):
        def check(result):
            sol = discretize.ApproxSolution(
                bimatrix.MixedStrategy(tuple(result["leader"])), result["followerResponse"],
                result["leaderPayoff"], result["followerPayoff"], result["slack"], result["M"],
                result["gridSize"], result["candidatesExamined"])
            checks.check_grid(game.u_leader, game.u_follower, k, sol,
                              checks.reference_game(game.u_leader, game.u_follower))
        return CliJob("discretize", ["discretize", "--eps", f"1/{k}", "-i", path], check)

    jobs = [approx_cli(*approx_jobs[0]), br_cli(*br_jobs[0]), grid_cli(*grid_jobs[0]),
            approx_cli(*approx_jobs[-1]), br_cli(*br_jobs[-1]), grid_cli(*grid_jobs[-1])]
    corpus.cli = jobs[:1] if smoke else jobs
    return corpus


BUILDERS = {
    "bimatrix-highs": bimatrix_corpus,
    "exact-lp": exact_corpus,
    "combinatorial": combinatorial_corpus,
}
