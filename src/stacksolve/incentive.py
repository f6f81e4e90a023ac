"""Incentive games: a leader taxes elements and sweetens chosen bundles.

The leader mixes over ground elements and additionally commits to sparse
nonnegative incentives on members of the follower's set family; the
follower picks one set. Payoffs for a leader strategy ``(x, V)`` and a
follower set ``S``:

    leader:   sum_{e in S} x_e - V_S + sum_e x_e * C_e
    follower: sum_{e in S} (-x_e + c_e) + V_S

The solver maximizes ``W + sum_e x_e C_e`` subject to every family member's
base payoff staying at most ``-W``, using constraint generation against a
family-specific separation oracle (exhaustive for explicit families,
shortest-path for s-t path families), then places one incentive on the set
with the best total follower reward.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import lp
from .bimatrix import BimatrixGame
from .errors import InputError, SizeLimitError, ToolkitError

SetId = tuple[str, ...]

PAYOFF_TOL = 1e-9
BOUND_TOL = 1e-7


def set_id(members) -> SetId:
    return tuple(sorted(members))


@dataclass(frozen=True)
class ExplicitFamily:
    sets: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.sets:
            raise InputError("explicit family must be nonempty")
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))

    def ids(self) -> list[SetId]:
        return [set_id(s) for s in self.sets]


@dataclass(frozen=True)
class PathFamily:
    """All simple s-t paths of an undirected multigraph with string edge ids."""

    num_vertices: int
    edges: tuple[tuple[str, int, int], ...]
    source: int
    sink: int

    def __post_init__(self):
        ids = [e[0] for e in self.edges]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate edge ids in path family")
        for eid, u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise InputError(f"edge {eid} has an endpoint out of range")
            if u == v:
                raise InputError(f"edge {eid} is a self-loop")
        if self.source == self.sink:
            raise InputError("source and sink must differ")
        if not (0 <= self.source < self.num_vertices and 0 <= self.sink < self.num_vertices):
            raise InputError("source/sink out of range")

    def adjacency(self) -> list[list[tuple[str, int]]]:
        adj: list[list[tuple[str, int]]] = [[] for _ in range(self.num_vertices)]
        for eid, u, v in self.edges:
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        for lst in adj:
            lst.sort()
        return adj


Family = Union[ExplicitFamily, PathFamily]


@dataclass(frozen=True)
class IncentiveInstance:
    elements: tuple[str, ...]
    follower_reward: dict  # c_e
    leader_reward: dict  # C_e
    family: Family

    def __post_init__(self):
        elems = tuple(self.elements)
        if len(set(elems)) != len(elems) or not elems:
            raise InputError("elements must be nonempty and unique")
        for name, table in (("c", self.follower_reward), ("C", self.leader_reward)):
            if set(table) != set(elems):
                raise InputError(f"{name} must assign a value to every element")
        if isinstance(self.family, ExplicitFamily):
            for s in self.family.sets:
                if not s <= set(elems):
                    raise InputError("family set mentions an unknown element")
        else:
            if {e[0] for e in self.family.edges} != set(elems):
                raise InputError("path-family edge ids must equal the element set")
            for e in elems:
                if self.follower_reward[e] > 1e-12:
                    raise InputError("path families require c_e <= 0 (nonnegative costs)")
            if _dijkstra(self.family, {e: 0.0 for e in elems})[self.family.source] is None:
                raise InputError("no s-t path exists")
        object.__setattr__(self, "elements", elems)

    @property
    def is_path_family(self) -> bool:
        return isinstance(self.family, PathFamily)


@dataclass(frozen=True)
class IncentiveLeaderStrategy:
    """A distribution ``x`` over elements plus sparse incentives per set id."""

    x: dict
    incentives: dict

    def __post_init__(self):
        probs = dict(self.x)
        if any(v < -PAYOFF_TOL for v in probs.values()):
            raise InputError("x has a negative probability")
        if abs(sum(probs.values()) - 1.0) > PAYOFF_TOL:
            raise InputError("x must sum to 1")
        inc = {set_id(k): float(v) for k, v in self.incentives.items()}
        if any(v < 0 for v in inc.values()):
            raise InputError("incentives must be nonnegative")
        object.__setattr__(self, "x", {k: max(0.0, float(v)) for k, v in probs.items()})
        object.__setattr__(self, "incentives", inc)

    def mass_on(self, members) -> float:
        return sum(self.x.get(e, 0.0) for e in members)


@dataclass(frozen=True)
class IncentiveSolution:
    strategy: IncentiveLeaderStrategy
    w_value: float
    target_set: SetId
    incentive_value: float
    leader_payoff: float
    follower_payoff: float
    incentive_box_exceeded: bool


def _check_pair(inst: IncentiveInstance, strat: IncentiveLeaderStrategy) -> None:
    if not set(strat.x) <= set(inst.elements):
        raise InputError("strategy mentions unknown elements")
    if len(strat.incentives) > len(inst.elements) ** 2:
        raise InputError("incentive support exceeds the |E|^2 sparsity cap")


def _members_of(inst: IncentiveInstance, sid: SetId) -> frozenset:
    members = frozenset(sid)
    if not members <= set(inst.elements):
        raise InputError(f"unknown set id {sid}")
    if isinstance(inst.family, ExplicitFamily):
        if members not in inst.family.sets:
            raise InputError(f"set id {sid} is not in the family")
    return members


def leader_payoff(inst: IncentiveInstance, strat: IncentiveLeaderStrategy, sid: SetId) -> float:
    """sum_{e in S} x_e - V_S + sum_e x_e C_e."""
    _check_pair(inst, strat)
    members = _members_of(inst, set_id(sid))
    drift = sum(strat.x.get(e, 0.0) * inst.leader_reward[e] for e in inst.elements)
    return strat.mass_on(members) - strat.incentives.get(set_id(sid), 0.0) + drift


def follower_payoff(inst: IncentiveInstance, strat: IncentiveLeaderStrategy, sid: SetId) -> float:
    """sum_{e in S} (-x_e + c_e) + V_S."""
    _check_pair(inst, strat)
    members = _members_of(inst, set_id(sid))
    base = sum(-strat.x.get(e, 0.0) + inst.follower_reward[e] for e in members)
    return base + strat.incentives.get(set_id(sid), 0.0)


def _base_value(inst: IncentiveInstance, x: Mapping, members) -> float:
    return sum(-x.get(e, 0.0) + inst.follower_reward[e] for e in members)


def base_best_set(inst: IncentiveInstance, x: Mapping) -> tuple[SetId, float]:
    """The family member maximizing the incentive-free follower payoff.

    Explicit families are scanned exhaustively; path families run a
    nonnegative-weight shortest path under edge weights ``x_e - c_e``.
    Exact ties resolve to the lexicographically smallest set id.
    """
    if isinstance(inst.family, ExplicitFamily):
        best: Optional[tuple[SetId, float]] = None
        for members in inst.family.sets:
            sid = set_id(members)
            val = _base_value(inst, x, members)
            if best is None or val > best[1] + 1e-12 or (abs(val - best[1]) <= 1e-12 and sid < best[0]):
                best = (sid, val)
        assert best is not None
        return best
    weights = {e: x.get(e, 0.0) - inst.follower_reward[e] for e in inst.elements}
    path = _lex_min_tight_path(inst.family, weights)
    if path is None:
        raise InputError("no s-t path exists")
    return set_id(path), -sum(weights[e] for e in path)


def separation_oracle_for(inst: IncentiveInstance, tol: float = PAYOFF_TOL) -> lp.SeparationOracle:
    """Oracle over the LP layout ``[x_e for e in elements] + [W]``.

    Finds the family member maximizing the base follower payoff at the
    candidate point and reports its constraint when that value exceeds
    ``-W`` by more than ``tol``.
    """
    n = len(inst.elements)

    def oracle(values: Sequence[float]) -> Optional[lp.Cut]:
        x = {e: max(0.0, values[i]) for i, e in enumerate(inst.elements)}
        w = values[n]
        sid, val = base_best_set(inst, x)
        if val > -w + tol:
            members = set(sid)
            coeffs = tuple(-1.0 if e in members else 0.0 for e in inst.elements) + (1.0,)
            rhs = -sum(inst.follower_reward[e] for e in sid)
            return lp.Cut(coeffs, rhs, val + w)
        return None

    return oracle


def _incentive_lp(inst: IncentiveInstance) -> lp.LinearProgram:
    n = len(inst.elements)
    objective = tuple(inst.leader_reward[e] for e in inst.elements) + (1.0,)
    # W <= 1 + sum |c| holds for every family member, so this cap never cuts
    # the optimum; it only keeps the initial relaxation bounded.
    cap = 1.0 + sum(abs(inst.follower_reward[e]) for e in inst.elements)
    return lp.LinearProgram(
        num_vars=n + 1,
        objective=objective,
        leq_rows=(((0.0,) * n + (1.0,), cap),),
        eq_rows=(((1.0,) * n + (0.0,), 1.0),),
        lower_bounds=(0.0,) * n + (None,),
        upper_bounds=(None,) * (n + 1),
    )


def best_reward_set(inst: IncentiveInstance) -> SetId:
    """argmax over the family of the follower's total element reward."""
    return base_best_set(inst, {})[0]


def solve_stackelberg_incentive(
    inst: IncentiveInstance,
    exact: bool = True,
    tol: float = BOUND_TOL,
) -> IncentiveSolution:
    """Optimal commitment: LP via constraint generation, then one incentive.

    Solves max W + sum x_e C_e over the simplex against the family oracle,
    picks the target set with the best total follower reward, and grants it
    exactly the incentive making it a weak best response.
    """
    n = len(inst.elements)
    if isinstance(inst.family, ExplicitFamily):
        family_bound = len(inst.family.sets)
    else:
        family_bound = n * n + 4
    sol = lp.solve_with_generation(
        _incentive_lp(inst),
        separation_oracle_for(inst),
        tol=tol,
        max_rounds=10 * (n + 1 + family_bound),
        exact=exact,
    )
    if not sol.is_optimal:
        raise InputError(f"incentive LP reported {sol.status}; instance is malformed")
    x = {e: max(0.0, sol.values[i]) for i, e in enumerate(inst.elements)}
    w_star = float(sol.values[n])
    target = best_reward_set(inst)
    v_star = -w_star - _base_value(inst, x, target)
    if v_star < -BOUND_TOL:
        raise ToolkitError("negative incentive from a feasible LP point")
    v_star = max(0.0, v_star)
    incentives = {target: v_star} if v_star > 1e-12 else {}
    strategy = IncentiveLeaderStrategy(x, incentives)
    lpay = leader_payoff(inst, strategy, target)
    fpay = follower_payoff(inst, strategy, target)
    best_resp = follower_best_set(inst, strategy)
    if follower_payoff(inst, strategy, best_resp) - fpay > BOUND_TOL:
        raise ToolkitError("target set is not a follower best response within tolerance")
    return IncentiveSolution(
        strategy=strategy,
        w_value=w_star,
        target_set=target,
        incentive_value=v_star,
        leader_payoff=lpay,
        follower_payoff=fpay,
        incentive_box_exceeded=v_star > 1.0 + PAYOFF_TOL,
    )


def follower_best_set(inst: IncentiveInstance, strat: IncentiveLeaderStrategy) -> SetId:
    """The follower's choice against ``(x, V)``.

    Explicit families break follower-payoff ties (1e-9) in the leader's
    favor, then prefer incentivized sets, then the smallest id. Path
    families compare only the incentivized sets against the shortest-path
    optimum, preferring incentivized sets on ties and otherwise the
    lexicographically smallest edge-id sequence.
    """
    _check_pair(inst, strat)
    if isinstance(inst.family, ExplicitFamily):
        best: Optional[tuple[SetId, float, float, bool]] = None
        for members in inst.family.sets:
            sid = set_id(members)
            f = follower_payoff(inst, strat, sid)
            l = leader_payoff(inst, strat, sid)
            inc = sid in strat.incentives
            if best is None or _beats_explicit((sid, f, l, inc), best):
                best = (sid, f, l, inc)
        assert best is not None
        return best[0]
    candidates: list[tuple[SetId, float, bool]] = []
    for sid in sorted(strat.incentives):
        candidates.append((sid, follower_payoff(inst, strat, sid), True))
    base_sid, base_val = base_best_set(inst, strat.x)
    candidates.append((base_sid, base_val, False))
    chosen = candidates[0]
    for cand in candidates[1:]:
        if _beats_path(cand, chosen):
            chosen = cand
    return chosen[0]


def _beats_explicit(cand, best) -> bool:
    sid, f, l, inc = cand
    bsid, bf, bl, binc = best
    if f > bf + PAYOFF_TOL:
        return True
    if f < bf - PAYOFF_TOL:
        return False
    if l > bl + PAYOFF_TOL:
        return True
    if l < bl - PAYOFF_TOL:
        return False
    if inc != binc:
        return inc
    return sid < bsid


def _beats_path(cand, best) -> bool:
    sid, f, inc = cand
    bsid, bf, binc = best
    if f > bf + PAYOFF_TOL:
        return True
    if f < bf - PAYOFF_TOL:
        return False
    if inc != binc:
        return inc
    return sid < bsid


def check_incentive_lower_bound(inst: IncentiveInstance, strat: IncentiveLeaderStrategy) -> bool:
    """Every best response needs at least the closing incentive.

    With S' the follower's choice and -W' the best incentive-free payoff,
    verifies V_{S'} >= -W' - sum_{e in S'}(-x_e + c_e) - 1e-7.
    """
    s_prime = follower_best_set(inst, strat)
    _, best_base = base_best_set(inst, strat.x)
    needed = best_base - _base_value(inst, strat.x, s_prime)
    return strat.incentives.get(s_prime, 0.0) >= needed - BOUND_TOL


def enumerate_family(inst: IncentiveInstance, limit: int = 4096) -> ExplicitFamily:
    """Materialize a path family as the explicit list of simple s-t paths."""
    if not inst.is_path_family:
        raise InputError("enumerate_family expects a path-family instance")
    fam: PathFamily = inst.family
    adj = fam.adjacency()
    paths: list[frozenset] = []
    visited = [False] * fam.num_vertices

    def walk(v: int, trail: list[str]) -> None:
        if v == fam.sink:
            paths.append(frozenset(trail))
            if len(paths) > limit:
                raise SizeLimitError(f"more than {limit} simple paths")
            return
        visited[v] = True
        for eid, to in adj[v]:
            if not visited[to]:
                trail.append(eid)
                walk(to, trail)
                trail.pop()
        visited[v] = False

    walk(fam.source, [])
    if not paths:
        raise InputError("no s-t path exists")
    return ExplicitFamily(tuple(paths))


def materialized(inst: IncentiveInstance, limit: int = 4096) -> IncentiveInstance:
    """The same instance with its path family replaced by explicit sets."""
    return replace(inst, family=enumerate_family(inst, limit))


def incentive_bimatrix(inst: IncentiveInstance, limit: int = 4096) -> tuple[BimatrixGame, list[SetId]]:
    """The no-incentive game in explicit form for the exact bimatrix solvers.

    Rows are elements in instance order, columns the family members:
    uL(e, S) = 1_{e in S} + C_e and uF(e, S) = -1_{e in S} + sum_{e' in S} c_{e'}.
    """
    fam = inst.family if isinstance(inst.family, ExplicitFamily) else enumerate_family(inst, limit)
    ids = fam.ids()
    ul = np.zeros((len(inst.elements), len(ids)))
    uf = np.zeros_like(ul)
    for j, members in enumerate(fam.sets):
        reward = sum(inst.follower_reward[e] for e in members)
        for i, e in enumerate(inst.elements):
            hit = 1.0 if e in members else 0.0
            ul[i, j] = hit + inst.leader_reward[e]
            uf[i, j] = -hit + reward
    return BimatrixGame(ul, uf), ids


# ---------------------------------------------------------------------------
# shortest paths (nonnegative weights, lexicographic tie-break)


def _dijkstra(fam: PathFamily, weights: Mapping) -> list[Optional[float]]:
    """Distance from every vertex to the sink; None when unreachable."""
    adj = fam.adjacency()
    dist: list[Optional[float]] = [None] * fam.num_vertices
    heap: list[tuple[float, int]] = [(0.0, fam.sink)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None:
            continue
        dist[v] = d
        for eid, to in adj[v]:
            if dist[to] is None:
                heapq.heappush(heap, (d + weights[eid], to))
    return dist


def _lex_min_tight_path(fam: PathFamily, weights: Mapping, tol: float = PAYOFF_TOL) -> Optional[list[str]]:
    """Lexicographically-smallest edge-id shortest s-t path.

    An edge u -> v is tight when ``dist[u] = weights + dist[v]`` within
    ``tol``; every s-t walk over tight edges is a shortest path. From the
    source, the walk takes the smallest-id tight edge whose head still
    reaches the sink over tight edges once the trail's vertices are
    removed, so it never enters a dead end. One reverse search per step
    makes this O(V * E).
    """
    dist = _dijkstra(fam, weights)
    if dist[fam.source] is None:
        return None
    tight_in: list[list[int]] = [[] for _ in range(fam.num_vertices)]
    tight_out: list[list[tuple[str, int]]] = [[] for _ in range(fam.num_vertices)]
    for v, edges in enumerate(fam.adjacency()):
        for eid, to in edges:
            if dist[v] is not None and dist[to] is not None and abs(weights[eid] + dist[to] - dist[v]) <= tol:
                tight_out[v].append((eid, to))
                tight_in[to].append(v)
    on_trail = [False] * fam.num_vertices
    path: list[str] = []
    v = fam.source
    while v != fam.sink:
        on_trail[v] = True
        reaches = [False] * fam.num_vertices
        reaches[fam.sink] = True
        stack = [fam.sink]
        while stack:
            for u in tight_in[stack.pop()]:
                if not reaches[u] and not on_trail[u]:
                    reaches[u] = True
                    stack.append(u)
        step = next(((eid, to) for eid, to in tight_out[v] if reaches[to]), None)
        if step is None:  # pragma: no cover - a tight simple path always exists
            raise ToolkitError("tight-path walk failed despite finite distance")
        path.append(step[0])
        v = step[1]
    return path


# ---------------------------------------------------------------------------
# JSON


def incentive_from_json(text: str) -> IncentiveInstance:
    data = json.loads(text)
    elements = [entry["id"] for entry in data["elements"]]
    c = {entry["id"]: float(entry["c"]) for entry in data["elements"]}
    big_c = {entry["id"]: float(entry["C"]) for entry in data["elements"]}
    fam = data["family"]
    family: Family
    if fam["type"] == "explicit":
        family = ExplicitFamily(tuple(frozenset(s) for s in fam["sets"]))
    elif fam["type"] == "path":
        family = PathFamily(
            num_vertices=int(fam["vertices"]),
            edges=tuple((e["id"], int(e["u"]), int(e["v"])) for e in fam["edges"]),
            source=int(fam["source"]),
            sink=int(fam["sink"]),
        )
    else:
        raise InputError(f"unknown family type {fam['type']!r}")
    return IncentiveInstance(tuple(elements), c, big_c, family)


def incentive_to_json_obj(inst: IncentiveInstance) -> dict:
    elements = [
        {"id": e, "c": inst.follower_reward[e], "C": inst.leader_reward[e]}
        for e in inst.elements
    ]
    if isinstance(inst.family, ExplicitFamily):
        fam = {"type": "explicit", "sets": [sorted(s) for s in inst.family.sets]}
    else:
        fam = {
            "type": "path",
            "vertices": inst.family.num_vertices,
            "edges": [{"id": eid, "u": u, "v": v} for eid, u, v in inst.family.edges],
            "source": inst.family.source,
            "sink": inst.family.sink,
        }
    return {"elements": elements, "family": fam}


def solution_to_json_obj(sol: IncentiveSolution) -> dict:
    return {
        "x": {e: p for e, p in sorted(sol.strategy.x.items()) if p > 0},
        "W": sol.w_value,
        "targetSet": list(sol.target_set),
        "V": sol.incentive_value,
        "leaderPayoff": sol.leader_payoff,
        "followerPayoff": sol.follower_payoff,
        "incentiveBoxExceeded": sol.incentive_box_exceeded,
    }
