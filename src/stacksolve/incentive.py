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
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import lp
from .bimatrix import EXPLICIT_LIMIT, BimatrixGame
from .errors import InputError, SizeLimitError, ToolkitError, as_index
from .tolerances import EQUAL, GUARANTEE, ZERO, leader_favoured, probabilities

SetId = tuple[str, ...]


def set_id(members) -> SetId:
    return tuple(sorted(members))


@dataclass(frozen=True)
class ExplicitFamily:
    """An explicit list of follower sets, scanned by its best-response oracle."""

    sets: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.sets:
            raise InputError("explicit family must be nonempty")
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))

    def ids(self) -> list[SetId]:
        return [set_id(s) for s in self.sets]

    def validate(self, inst: IncentiveInstance) -> None:
        if any(not s <= set(inst.elements) for s in self.sets):
            raise InputError("family set mentions an unknown element")

    def contains(self, members: frozenset) -> bool:
        return members in self.sets

    def best_set(self, inst: IncentiveInstance, x: Mapping) -> tuple[SetId, float]:
        """``leader_favoured`` over the sorted ids: base payoff, leader mass (less its drift), then id."""
        sids = sorted(self.ids())
        values = [_base_value(inst, x, sid) for sid in sids]
        best = leader_favoured(values, [_mass(x, sid) for sid in sids])
        return sids[best], values[best]

    def explicit(self, limit: int) -> ExplicitFamily:
        return self

    def cut_bound(self) -> int:
        return len(self.sets)

    def to_json_obj(self) -> dict:
        return {"type": "explicit", "sets": [sorted(s) for s in self.sets]}


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

    @cached_property
    def _label(self) -> dict[int, int]:
        """The ends of the edges, s and t, relabelled 0..V'-1 in increasing id order.

        Lists indexed by the declared vertex ids would grow with the largest
        id, not with the graph. The relabelling keeps the order of the ids, and
        every tie rule is by edge id, so no answer moves.
        """
        used = {self.source, self.sink}.union(*((u, v) for _, u, v in self.edges))
        return {v: i for i, v in enumerate(sorted(used))}

    def adjacency(self) -> list[list[tuple[str, int]]]:
        """Each relabelled vertex's ``(edge id, other end)`` pairs, sorted; see ``_label``."""
        label = self._label
        adj: list[list[tuple[str, int]]] = [[] for _ in label]
        for eid, u, v in self.edges:
            adj[label[u]].append((eid, label[v]))
            adj[label[v]].append((eid, label[u]))
        for lst in adj:
            lst.sort()
        return adj

    def validate(self, inst: IncentiveInstance) -> None:
        if {e[0] for e in self.edges} != set(inst.elements):
            raise InputError("path-family edge ids must equal the element set")
        if any(inst.follower_reward[e] > ZERO for e in inst.elements):
            raise InputError("path families require c_e <= 0 (nonnegative costs)")
        zero = dict.fromkeys(inst.elements, 0.0)
        if _dijkstra(self.adjacency(), self._label[self.sink], zero)[self._label[self.source]] is None:
            raise InputError("no s-t path exists")

    def contains(self, members: frozenset) -> bool:
        """Whether the edges ``members`` form one simple s-t path."""
        ends = {eid: (u, v) for eid, u, v in self.edges}
        if not members <= ends.keys():
            return False
        left, v, seen = set(members), self.source, {self.source}
        while v != self.sink:
            out = [eid for eid in left if v in ends[eid]]
            if len(out) != 1:
                return False
            left.remove(out[0])
            a, b = ends[out[0]]
            v = b if a == v else a
            if v in seen:
                return False
            seen.add(v)
        return not left

    def best_set(self, inst: IncentiveInstance, x: Mapping) -> tuple[SetId, float]:
        costs = {e: -inst.follower_reward[e] for e in inst.elements}
        weights = {e: x.get(e, 0.0) + costs[e] for e in inst.elements}
        path = _lex_min_tight_path(self, weights, costs)
        if path is None:
            raise ToolkitError("no s-t path exists in a validated path family")
        sid = set_id(path)
        return sid, _base_value(inst, x, sid)

    def explicit(self, limit: int) -> ExplicitFamily:
        """The simple s-t paths, depth first in ``adjacency()`` order; more than ``limit`` raise.

        The walk runs on an explicit stack of (vertex, trail, visited bits),
        so a path's length is not limited by Python's recursion depth.
        """
        adj, sink = self.adjacency(), self._label[self.sink]
        paths: list[frozenset] = []
        stack: list[tuple[int, tuple[str, ...], int]] = [(self._label[self.source], (), 0)]
        while stack:
            v, trail, visited = stack.pop()
            if v == sink:
                paths.append(frozenset(trail))
                if len(paths) > limit:
                    raise SizeLimitError(f"more than {limit} simple paths")
                continue
            visited |= 1 << v
            # pushed in reverse, so that they are popped in adjacency order
            stack.extend((to, trail + (e,), visited) for e, to in reversed(adj[v]) if not visited >> to & 1)
        if not paths:
            raise ToolkitError("no s-t path exists in a validated path family")
        return ExplicitFamily(tuple(paths))

    def cut_bound(self) -> int:
        return len(self.edges) ** 2 + 4

    def to_json_obj(self) -> dict:
        edges = [{"id": eid, "u": u, "v": v} for eid, u, v in self.edges]
        return {"type": "path", "vertices": self.num_vertices, "edges": edges, "source": self.source, "sink": self.sink}


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
        if not all(isinstance(e, str) for e in elems):
            raise InputError("element ids must be strings")
        for name, table in (("c", self.follower_reward), ("C", self.leader_reward)):
            if set(table) != set(elems):
                raise InputError(f"{name} must assign a value to every element")
            if not all(math.isfinite(v) for v in table.values()):
                raise InputError(f"{name} values must be finite")
        object.__setattr__(self, "elements", elems)
        self.family.validate(self)


@dataclass(frozen=True)
class IncentiveLeaderStrategy:
    """A distribution ``x`` over elements plus sparse incentives per set id."""

    x: dict
    incentives: dict

    def __post_init__(self):
        probs = dict(self.x)
        object.__setattr__(self, "x", dict(zip(probs, probabilities(probs.values(), "x"))))
        inc = {set_id(k): float(v) for k, v in self.incentives.items()}
        if not all(math.isfinite(v) and v >= 0 for v in inc.values()):
            raise InputError("incentives must be finite and nonnegative")
        object.__setattr__(self, "incentives", inc)


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
    for sid in strat.incentives:
        if not inst.family.contains(frozenset(sid)):
            raise InputError(f"set id {sid} is not in the family")


def _payoffs(inst: IncentiveInstance, strat: IncentiveLeaderStrategy, members: frozenset) -> tuple[float, float]:
    """(follower, leader) payoffs of a family member, without checks."""
    bonus = strat.incentives.get(set_id(members), 0.0)
    drift = sum(strat.x.get(e, 0.0) * inst.leader_reward[e] for e in inst.elements)
    return _base_value(inst, strat.x, members) + bonus, _mass(strat.x, members) - bonus + drift


def _mass(x: Mapping, members) -> float:
    """sum_{e in S} x_e, summed in set-id order so that the bits do not follow the hash seed."""
    return sum(x.get(e, 0.0) for e in set_id(members))


def _base_value(inst: IncentiveInstance, x: Mapping, members) -> float:
    """sum_{e in S} (-x_e + c_e), summed in set-id order, as ``_mass`` is."""
    return sum(-x.get(e, 0.0) + inst.follower_reward[e] for e in set_id(members))


def base_best_set(inst: IncentiveInstance, x: Mapping) -> tuple[SetId, float]:
    """The family member maximizing the incentive-free follower payoff.

    Explicit families scan their sets by ``tolerances.leader_favoured``: the
    payoff within ``EQUAL`` of the best, then the leader mass
    ``sum_{e in S} x_e`` within ``EQUAL`` of the best among those, then the
    smallest set id, whatever the order of the family. Path families run
    shortest paths under edge weights ``x_e - c_e``, then under the costs
    ``-c_e``, with margins per edge (``_lex_min_tight_path``). Both report
    the payoff of their set by ``_base_value``. The package calls it
    through this module's global.
    """
    return inst.family.best_set(inst, x)


def separation_oracle_for(inst: IncentiveInstance) -> lp.SeparationOracle:
    """Oracle over the LP layout ``[x_e for e in elements] + [W]``.

    Finds the family member maximizing the base follower payoff at the
    candidate point and reports its constraint when that value exceeds
    ``-W`` by more than ``EQUAL``.
    """
    n = len(inst.elements)

    def oracle(values: Sequence[float]) -> Optional[lp.Cut]:
        x = {e: max(0.0, values[i]) for i, e in enumerate(inst.elements)}
        w = values[n]
        sid, val = base_best_set(inst, x)
        if val > -w + EQUAL:
            members = set(sid)
            coeffs = tuple(-1.0 if e in members else 0.0 for e in inst.elements) + (1.0,)
            rhs = -sum(inst.follower_reward[e] for e in sid)
            return lp.Cut(coeffs, rhs, val + w)
        return None

    return oracle


def _incentive_lp(inst: IncentiveInstance) -> lp.LinearProgram:
    n = len(inst.elements)
    # W <= 1 + sum |c| holds for every family member, so this cap never cuts
    # the optimum; it only keeps the initial relaxation bounded.
    cap = 1.0 + sum(abs(inst.follower_reward[e]) for e in inst.elements)
    return lp.LinearProgram(
        objective=[inst.leader_reward[e] for e in inst.elements] + [1.0],
        leq_rows=[[0.0] * n + [1.0, cap]],
        eq_rows=[[1.0] * n + [0.0, 1.0]],
        free={n},
    )


def solve_stackelberg_incentive(inst: IncentiveInstance) -> IncentiveSolution:
    """Optimal commitment: LP via constraint generation, then one incentive.

    Solves max W + sum x_e C_e over the simplex against the family oracle,
    picks the target set with the best total follower reward, and grants it
    exactly the incentive making it a weak best response.
    """
    n = len(inst.elements)
    sol = lp.solve_with_generation(
        _incentive_lp(inst),
        separation_oracle_for(inst),
        max_rounds=10 * (n + 1 + inst.family.cut_bound()),
        exact=True,
    )
    if not sol.is_optimal:
        # a validated instance makes this LP feasible (sum x = 1, W free
        # below) and bounded (the cap row), so this is a solver fault
        raise ToolkitError(f"incentive LP reported {sol.status} on a validated instance")
    x = {e: max(0.0, sol.values[i]) for i, e in enumerate(inst.elements)}
    w_star = float(sol.values[n])
    target, _ = base_best_set(inst, {})  # the best total follower reward
    v_star = -w_star - _base_value(inst, x, target)
    if v_star < -GUARANTEE:
        raise ToolkitError("negative incentive from a feasible LP point")
    v_star = max(0.0, v_star)
    incentives = {target: v_star} if v_star > ZERO else {}
    strategy = IncentiveLeaderStrategy(x, incentives)
    # built here from the family's own member, so _check_pair could only flag a solver bug
    fpay, lpay = _payoffs(inst, strategy, frozenset(target))
    _, best_fpay, _ = _choice(inst, strategy)
    if best_fpay - fpay > GUARANTEE:
        raise ToolkitError("target set is not a follower best response within tolerance")
    return IncentiveSolution(
        strategy=strategy,
        w_value=w_star,
        target_set=target,
        incentive_value=v_star,
        leader_payoff=lpay,
        follower_payoff=fpay,
        incentive_box_exceeded=v_star > 1.0 + EQUAL,
    )


def follower_best_set(inst: IncentiveInstance, strat: IncentiveLeaderStrategy) -> SetId:
    """The follower's choice against ``(x, V)``, by one rule for every family.

    The candidates are the incentivized sets and the incentive-free best set
    of ``base_best_set``, ranked in any order by ``tolerances.leader_favoured``
    on the follower's, then the leader's payoff, so that strong Stackelberg
    ties go to the leader; then incentivized sets win, then the smallest id.
    """
    _check_pair(inst, strat)
    return _choice(inst, strat)[0]


def _choice(inst: IncentiveInstance, strat: IncentiveLeaderStrategy) -> tuple[SetId, float, float]:
    """The follower's set and its follower payoff, and the best incentive-free payoff.

    One oracle call, with no checks on ``strat``. Incentivized sets, then
    the smaller id, win full ties.
    """
    base_sid, base_val = base_best_set(inst, strat.x)
    sids = sorted(strat.incentives) + [base_sid]
    follower, leader = zip(*(_payoffs(inst, strat, frozenset(sid)) for sid in sids))
    best = leader_favoured(follower, leader)
    return sids[best], follower[best], base_val


def check_incentive_lower_bound(inst: IncentiveInstance, strat: IncentiveLeaderStrategy) -> bool:
    """Every best response needs at least the closing incentive.

    With S' the follower's choice and -W' the best incentive-free payoff,
    verifies V_{S'} >= -W' - sum_{e in S'}(-x_e + c_e) - GUARANTEE.
    """
    _check_pair(inst, strat)
    s_prime, _, best_base = _choice(inst, strat)
    needed = best_base - _base_value(inst, strat.x, s_prime)
    return strat.incentives.get(s_prime, 0.0) >= needed - GUARANTEE


def incentive_bimatrix(inst: IncentiveInstance) -> tuple[BimatrixGame, list[SetId]]:
    """The no-incentive game in explicit form for the exact bimatrix solvers.

    Rows are elements in instance order, columns the family members in
    ``inst.family.explicit`` order; more than ``EXPLICIT_LIMIT`` (4,096)
    raise ``SizeLimitError``. With ``hits`` the 0/1 element-by-set matrix,
    uL = hits + C_e and uF = sum_{e' in S} c_{e'} - hits (summed in set-id order).
    """
    ids = inst.family.explicit(EXPLICIT_LIMIT).ids()
    row = {e: i for i, e in enumerate(inst.elements)}
    hits = np.zeros((len(inst.elements), len(ids)))
    for j, sid in enumerate(ids):
        hits[[row[e] for e in sid], j] = 1.0
    leader = np.array([inst.leader_reward[e] for e in inst.elements])
    reward = np.array([sum(inst.follower_reward[e] for e in sid) for sid in ids])
    return BimatrixGame(hits + leader[:, None], reward - hits), ids


# ---------------------------------------------------------------------------
# shortest paths (nonnegative weights, lexicographic tie-break)


def _dijkstra(into: list, sink: int, weights: Mapping) -> list[Optional[float]]:
    """Distance to ``sink`` (None when unreachable); ``into[v]`` lists the edges ``(eid, u)`` u -> v."""
    dist: list[Optional[float]] = [None] * len(into)
    heap: list[tuple[float, int]] = [(0.0, sink)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None:
            continue
        dist[v] = d
        for eid, u in into[v]:
            if dist[u] is None:
                heapq.heappush(heap, (d + weights[eid], u))
    return dist


def _tight(into: list, dist: list, weights: Mapping) -> list:
    """The edges of ``into`` with ``dist[u] = weights + dist[v]`` within ``EQUAL``."""
    return [
        [(eid, u) for eid, u in edges if dist[u] is not None and abs(weights[eid] + dist[v] - dist[u]) <= EQUAL]
        if dist[v] is not None else []
        for v, edges in enumerate(into)
    ]


def _lex_min_tight_path(fam: PathFamily, weights: Mapping, costs: Mapping) -> Optional[list[str]]:
    """Lexicographically-smallest edge-id s-t path over the edges tight for ``weights``, then ``costs``.

    An edge u -> v is tight when ``dist[u] = weights + dist[v]`` within
    ``EQUAL``, so an s-t walk of k tight edges is within k ``EQUAL`` of the
    shortest: on s-a, a-b, b-t, a-t, s-t weighing 1, 1, 1, 2 - 0.9 ``EQUAL``
    and 3 - 1.8 ``EQUAL``, it is s-a-b-t, 1.8 ``EQUAL`` above s-t. A second
    Dijkstra over the tight edges under ``costs`` (nonnegative) keeps the
    edges tight in both passes, whose s-t walks are, in that sense, the
    shortest paths of least cost. From the source, the walk takes the
    smallest-id kept edge whose head still reaches the sink over kept edges
    once the trail's vertices are removed, so it never enters a dead end.
    One reverse search per step makes this O(V * E).
    """
    adj = fam.adjacency()
    n, sink, v = len(adj), fam._label[fam.sink], fam._label[fam.source]
    dist = _dijkstra(adj, sink, weights)
    if dist[v] is None:
        return None
    into = _tight(adj, dist, weights)
    into = _tight(into, _dijkstra(into, sink, costs), costs)
    on_trail = [False] * n
    path: list[str] = []
    while v != sink:
        on_trail[v] = True
        reaches = [False] * n
        reaches[sink] = True
        stack = [sink]
        while stack:
            for _, u in into[stack.pop()]:
                if not reaches[u] and not on_trail[u]:
                    reaches[u] = True
                    stack.append(u)
        step = min(((eid, to) for to in range(n) if reaches[to] for eid, u in into[to] if u == v), default=None)
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
        edges = tuple((e["id"], as_index(e["u"], "edge end"), as_index(e["v"], "edge end")) for e in fam["edges"])
        source, sink = as_index(fam["source"], "source"), as_index(fam["sink"], "sink")
        family = PathFamily(as_index(fam["vertices"], "vertices"), edges, source, sink)
    else:
        raise InputError(f"unknown family type {fam['type']!r}")
    return IncentiveInstance(tuple(elements), c, big_c, family)


def incentive_to_json_obj(inst: IncentiveInstance) -> dict:
    elements = [{"id": e, "c": inst.follower_reward[e], "C": inst.leader_reward[e]} for e in inst.elements]
    return {"elements": elements, "family": inst.family.to_json_obj()}


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
