"""The permuted matching game, its approximation, and the 3DM reduction.

Both players pick matchings of a shared multigraph with an edge permutation
``pi``; the leader scores ``|M_L ∩ pi(M_F)|`` and the follower
``|M_L ∩ M_F|``. Best responses reduce to maximum-weight matchings under
marginal edge probabilities. The greedy pair algorithm plus the
(1/3-eps, 2/3+eps) two-point mixture gives the (1-3eps)/12 guarantee, and
``reduce_3dm``/``lift_3dm``/``extract_3dm`` implement the reduction that
makes finding a matching identical to its pi-image (pi-TIM) as hard as
maximum 3-dimensional matching.

The follower's best response runs one exact branch-and-bound matcher at
any size. It bounds a partial matching by the remaining candidates' total
weight first, and when that does not prune, by half the heaviest free
remaining candidate at each free vertex, since a vertex takes one edge; its
worst case is still exponential in the number of edges. The brute forces all
scan ``enumerate_matchings``, which runs on an explicit stack:
``explicit_bimatrix`` (capped at ``EXPLICIT_MATCHING_LIMIT`` matchings, its
payoffs two products of the matching-by-edge incidence matrix, whose diagonal
``pm bruteforce`` reads as pi-TIM) and ``bruteforce_pitim`` (12 edges).

Only ``explicit_bimatrix`` computes with numpy, and only it imports numpy
and ``bimatrix``, in its body. So ``pm approx``, ``pm bestresponse``,
``reduce 3dm-to-pm`` and ``gen random-pm``/``random-3dm`` run without
loading numpy; ``pm bruteforce`` loads it.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .errors import InputError, SizeLimitError, as_index
from .tolerances import EQUAL, probabilities

if TYPE_CHECKING:
    from .bimatrix import BimatrixGame

BRUTE_FORCE_EDGE_LIMIT = 12
# most matchings ``explicit_bimatrix`` writes out; see its docstring
EXPLICIT_MATCHING_LIMIT = 1280

Matching = frozenset  # of edge ids


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; edge ids are positions in ``edges``."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple((operator.index(u), operator.index(v)) for u, v in self.edges)
        for u, v in edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise InputError("edge endpoint out of range")
            if u == v:
                raise InputError("self-loops are not allowed")
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PermMatchInstance:
    graph: Multigraph
    pi: tuple[int, ...]

    def __post_init__(self):
        e = self.graph.num_edges
        pi = tuple(map(operator.index, self.pi))
        if sorted(pi) != list(range(e)):
            raise InputError("pi must be a bijection over the edge ids")
        object.__setattr__(self, "pi", pi)
        inv = [0] * e
        for src, dst in enumerate(pi):
            inv[dst] = src
        object.__setattr__(self, "_pi_inv", tuple(inv))

    def pi_image(self, edges: Iterable[int]) -> Matching:
        return frozenset(self.pi[e] for e in edges)


def as_matching(graph: Multigraph, edge_ids: Iterable[int]) -> Matching:
    """Validate vertex-disjointness and return the edge set."""
    ids = frozenset(map(operator.index, edge_ids))
    seen: set[int] = set()
    for e in ids:
        if not 0 <= e < graph.num_edges:
            raise InputError(f"unknown edge id {e}")
        u, v = graph.edges[e]
        if u in seen or v in seen:
            raise InputError("edge set is not a matching")
        seen.add(u)
        seen.add(v)
    return ids


@dataclass(frozen=True)
class TwoPointLeaderStrategy:
    """A finite-support leader mixture over matchings."""

    support: tuple[tuple[Matching, float], ...]

    def __post_init__(self):
        probs = probabilities((p for _, p in self.support), "leader support")
        object.__setattr__(self, "support", tuple((frozenset(m), p) for (m, _), p in zip(self.support, probs)))


StrategyLike = Union[TwoPointLeaderStrategy, Sequence[tuple[Matching, float]]]


def _support(inst: PermMatchInstance, x: StrategyLike) -> list[tuple[Matching, float]]:
    strat = x if isinstance(x, TwoPointLeaderStrategy) else TwoPointLeaderStrategy(tuple(x))
    return [(as_matching(inst.graph, m), p) for m, p in strat.support]


def enumerate_matchings(graph: Multigraph, limit: Optional[int] = None) -> list[Matching]:
    """All matchings (including the empty one); more than ``limit`` raise.

    Depth first over the edge ids, leaving each edge out before taking it,
    on an explicit stack of (next edge, chosen ids, used vertex bits), so
    the edge count is not limited by Python's recursion depth.
    """
    ends = _end_bits(graph.edges)
    out: list[Matching] = []
    stack: list[tuple[int, tuple[int, ...], int]] = [(0, (), 0)]
    while stack:
        idx, chosen, used = stack.pop()
        if idx == graph.num_edges:
            out.append(frozenset(chosen))
            if limit is not None and len(out) > limit:
                raise SizeLimitError(f"more than {limit} matchings")
            continue
        # take edge idx after leaving it out: the stack is LIFO
        if not used & ends[idx]:
            stack.append((idx + 1, chosen + (idx,), used | ends[idx]))
        stack.append((idx + 1, chosen, used))
    return out


def _end_bits(edges: Iterable[tuple[int, int]]) -> list[int]:
    """Each edge's two ends as the bits of an int, the vertices relabelled 0..V'-1 in order of appearance.

    Raw vertex ids would make ints as wide as the largest id.
    """
    label: dict[int, int] = {}
    return [(1 << label.setdefault(u, len(label))) | (1 << label.setdefault(v, len(label))) for u, v in edges]


def max_weight_matching(
    graph: Multigraph, weights: Sequence[float], tie_weights: Optional[Sequence[float]] = None
) -> Matching:
    """Maximum-weight matching by branch and bound, ties within ``EQUAL`` for the tie weight.

    It aims at the rule of ``tests/oracles.lexmax_matching_bruteforce``: the
    largest tie weight within ``EQUAL`` of the maximum weight, then the
    smallest sorted id set. Its incumbent rule is pairwise, so each tie won
    within ``EQUAL`` can lower the weight by up to ``EQUAL``: the answer is
    within (1 + r) ``EQUAL`` of the maximum after r such wins. It meets the
    rule when being within ``EQUAL`` is transitive on the totals, as on
    integer weights; parallel edges of weights [1.2, 0.6, 0] ``EQUAL`` and
    tie weights [1, 2, 3] give the third. Edges with negative weight, or
    with zero weight and no positive tie weight, are never included.
    Candidates are branched on in order of ``(-weight, -tie weight, id)``,
    taking a candidate before leaving it out, so that a heavy incumbent
    comes first.

    Bound: a node has decided the candidates before position ``idx``. The
    sum of the remaining candidates' weights (and positive tie weights)
    bounds its completion; this O(1) test runs first. When it does not
    prune, the completion is bounded by the sum over free vertices v of
    half the weight of the heaviest remaining candidate at v with both ends
    free: an edge is worth at most half of each end's heaviest, and a
    vertex takes one edge. One scan of the weight-sorted candidates finds
    it, stopping once the running sum passes the incumbent by ``EQUAL``
    (nothing could be pruned then); the tie bound is the sum of the free
    candidates' positive tie weights. A node is dropped only when none of
    its leaves could be accepted, so the answer is that of the same
    incumbent rule over every leaf in this order.
    The worst case is still exponential in the number of edges.

    The search runs on an explicit stack, so the number of edges is not
    limited by Python's recursion depth.
    """
    ties = [0.0] * graph.num_edges if tie_weights is None else tie_weights
    if len(weights) != graph.num_edges or len(ties) != graph.num_edges:
        raise InputError("one weight per edge required")
    if not (all(map(math.isfinite, weights)) and all(map(math.isfinite, ties))):
        raise InputError("weights must be finite")
    cand = sorted(
        (e for e in range(graph.num_edges) if weights[e] > 0 or (weights[e] == 0 and ties[e] > 0)),
        key=lambda e: (-weights[e], -ties[e], e),
    )
    n = len(cand)
    w = [float(weights[e]) for e in cand]
    t = [float(ties[e]) for e in cand]
    half = [0.5 * x for x in w]
    ends = _end_bits(graph.edges[e] for e in cand)  # relabelled in candidate order
    suffix_w = [0.0] * (n + 1)
    suffix_t = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_w[i] = suffix_w[i + 1] + w[i]
        suffix_t[i] = suffix_t[i + 1] + max(t[i], 0.0)
    best_w, best_t = 0.0, 0.0
    best_set: tuple[int, ...] = ()
    # a node: first undecided position, weight and tie weight so far, the
    # used vertex bits, and the chosen edge ids as a linked list (id, rest)
    stack: list[tuple[int, float, float, int, tuple]] = [(0, 0.0, 0.0, 0, ())]
    while stack:
        idx, total, tie, used, chosen = stack.pop()
        bound = total + suffix_w[idx]
        if bound < best_w - EQUAL or (bound <= best_w + EQUAL and tie + suffix_t[idx] < best_t - EQUAL):
            continue
        limit = best_w + EQUAL
        bound = total
        free_ties = 0.0
        seen = 0
        first = -1  # the first free candidate at or after idx
        for pos in range(idx, n):
            ends_pos = ends[pos]
            if used & ends_pos:
                continue
            if first < 0:
                first = pos
            fresh = ends_pos & ~seen
            if fresh:
                seen |= ends_pos
                bound += w[pos] if fresh == ends_pos else half[pos]
                if bound > limit:
                    break
            if t[pos] > 0:
                free_ties += t[pos]
        else:
            if bound < best_w - EQUAL or (bound <= limit and tie + free_ties < best_t - EQUAL):
                continue
            if first < 0:  # a leaf: no remaining candidate fits
                ids = []
                while chosen:
                    e, chosen = chosen
                    ids.append(e)
                key = tuple(sorted(ids))
                if total > best_w + EQUAL or (
                    total >= best_w - EQUAL
                    and (tie > best_t + EQUAL or (tie >= best_t - EQUAL and key < best_set))
                ):
                    best_w, best_t, best_set = total, tie, key
                continue
        # leave candidate ``first`` out after taking it: the stack is LIFO
        stack.append((first + 1, total, tie, used, chosen))
        stack.append((first + 1, total + w[first], tie + t[first], used | ends[first], (cand[first], chosen)))
    return frozenset(best_set)


def _edge_mass(support: list[tuple[Matching, float]], label: Sequence[int]) -> list[float]:
    """P[e in M] under the mixture, placed at ``label[e]`` (one entry per edge)."""
    w = [0.0] * len(label)
    for m, p in support:
        for e in m:
            w[label[e]] += p
    return w


def _expected_leader(inst: PermMatchInstance, support, m_follower: Matching) -> float:
    image = inst.pi_image(m_follower)
    return sum(p * len(m & image) for m, p in support)


def follower_best_response_pm(inst: PermMatchInstance, x: StrategyLike) -> Matching:
    """Follower's maximum-weight matching under the leader's edge marginals.

    Weight ties (``EQUAL``) break toward the best expected leader
    payoff, which is linear in the follower's edges: edge e pays the leader
    P[pi(e) in M_L]. Remaining ties go to the smallest sorted edge-id set.
    Edges that pay neither player are left out.
    """
    support = _support(inst, x)
    marginals = _edge_mass(support, range(inst.graph.num_edges))
    return max_weight_matching(inst.graph, marginals, _edge_mass(support, inst._pi_inv))


def greedy_pair(inst: PermMatchInstance) -> tuple[Matching, Matching]:
    """One pass of the pairing greedy: scan e' in id order, pair it with e = pi(e').

    Adds e to x and e' to x' whenever e is vertex-disjoint from x and e'
    vertex-disjoint from x'; afterwards no admissible pair remains and
    pi(x') = x, so |x| = |x'| = |x ∩ pi(x')|.
    """
    x_used: set[int] = set()
    xp_used: set[int] = set()
    x: set[int] = set()
    xp: set[int] = set()
    for ep in range(inst.graph.num_edges):
        e = inst.pi[ep]
        eu, ev = inst.graph.edges[e]
        pu, pv = inst.graph.edges[ep]
        if eu in x_used or ev in x_used or pu in xp_used or pv in xp_used:
            continue
        x.add(e)
        x_used.update((eu, ev))
        xp.add(ep)
        xp_used.update((pu, pv))
    return frozenset(x), frozenset(xp)


def approx_leader_strategy(inst: PermMatchInstance, eps: float) -> TwoPointLeaderStrategy:
    """The two-point mixture: greedy x with weight 1/3-eps, x' with 2/3+eps."""
    if not 0 < eps < 1 / 3:
        raise InputError("eps must lie strictly between 0 and 1/3")
    x, xp = greedy_pair(inst)
    p = 1 / 3 - eps
    return TwoPointLeaderStrategy(((x, p), (xp, 1.0 - p)))


def approx_solve(inst: PermMatchInstance, eps: float) -> tuple[TwoPointLeaderStrategy, Matching, float]:
    """Two-point strategy, the follower's response, and the leader's payoff.

    The payoff is guaranteed to be at least (1-3eps)/12 of the exact
    commitment optimum.
    """
    strategy = approx_leader_strategy(inst, eps)
    response = follower_best_response_pm(inst, strategy)
    value = _expected_leader(inst, list(strategy.support), response)
    return strategy, response, value


def pitim_value(inst: PermMatchInstance, m: Iterable[int]) -> int:
    """|M ∩ pi(M)| for a single matching."""
    ids = as_matching(inst.graph, m)
    return len(ids & inst.pi_image(ids))


def bruteforce_pitim(inst: PermMatchInstance) -> tuple[Matching, int]:
    """Exact pi-TIM optimum by matching enumeration (12-edge limit); the first best one wins."""
    if inst.graph.num_edges > BRUTE_FORCE_EDGE_LIMIT:
        raise SizeLimitError(f"bruteforce_pitim is limited to {BRUTE_FORCE_EDGE_LIMIT} edges")
    best = max(enumerate_matchings(inst.graph), key=lambda m: len(m & inst.pi_image(m)))
    return best, len(best & inst.pi_image(best))


def explicit_bimatrix(inst: PermMatchInstance) -> tuple[BimatrixGame, list[Matching]]:
    """The game in explicit form, one pure strategy per matching in ``enumerate_matchings`` order.

    More than ``EXPLICIT_MATCHING_LIMIT`` (1,280) matchings raise
    ``SizeLimitError``. The cap bounds the memory of ``pm bruteforce``, which
    solves this game exactly: at 1,280 matchings (eight disjoint edges and a
    3-edge path) one such process peaked at 237 MB and took 1.8-2.0 s; at
    2,048 (eleven disjoint edges) it took 9 s and 554 MB, and at 4,096
    about 2.2 GB. It does not bound the time, which depends on the game as
    well as on its size: on 40 games of 700-960 matchings with pi drawn at
    random, 15 took over 2 s and one 24 s, most of it in one exact column
    LP (a 720-matching one pivoted 495 times in 22 s).

    With ``hits`` the 0/1 matching-by-edge matrix, uF = hits hits^T and
    uL = hits hits[:, pi^{-1}]^T; the counts are small integers, so exact.
    """
    import numpy as np

    from .bimatrix import BimatrixGame

    matchings = enumerate_matchings(inst.graph, limit=EXPLICIT_MATCHING_LIMIT)
    hits = np.zeros((len(matchings), inst.graph.num_edges))
    for i, m in enumerate(matchings):
        hits[i, list(m)] = 1.0
    return BimatrixGame(hits @ hits[:, list(inst._pi_inv)].T, hits @ hits.T), matchings


# ---------------------------------------------------------------------------
# 3-dimensional matching reduction


@dataclass(frozen=True)
class ThreeDMInstance:
    n_a: int
    n_b: int
    n_c: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if min(self.n_a, self.n_b, self.n_c) < 0:
            raise InputError("part sizes must be nonnegative")
        triples = tuple(tuple(map(operator.index, t)) for t in self.triples)
        for a, b, c in triples:
            if not (0 <= a < self.n_a and 0 <= b < self.n_b and 0 <= c < self.n_c):
                raise InputError("triple index out of range")
        object.__setattr__(self, "triples", triples)


@dataclass(frozen=True)
class ReductionMap:
    """Bookkeeping for the 3DM -> permuted-matching construction.

    Vertices: A' = [0, n_a), A'' = [n_a, 2n_a), B' = [2n_a, 2n_a+n_b),
    C' = [2n_a+n_b, 2n_a+n_b+n_c). Triple t owns edges 2t (a'-b') and
    2t+1 (a''-c'), and pi swaps the two.
    """

    n_a: int
    n_b: int
    n_c: int
    triples: tuple[tuple[int, int, int], ...]
    per_triple: tuple[tuple[int, int], ...]


def reduce_3dm(tdm: ThreeDMInstance) -> tuple[PermMatchInstance, ReductionMap]:
    edges = []
    pi = []
    for a, b, c in tdm.triples:
        edges.append((a, 2 * tdm.n_a + b))
        edges.append((tdm.n_a + a, 2 * tdm.n_a + tdm.n_b + c))
        pi.extend([len(edges) - 1, len(edges) - 2])
    graph = Multigraph(2 * tdm.n_a + tdm.n_b + tdm.n_c, tuple(edges))
    inst = PermMatchInstance(graph, tuple(pi))
    rmap = ReductionMap(
        tdm.n_a,
        tdm.n_b,
        tdm.n_c,
        tdm.triples,
        tuple((2 * t, 2 * t + 1) for t in range(len(tdm.triples))),
    )
    return inst, rmap


def lift_3dm(rmap: ReductionMap, selected: Iterable[int]) -> Matching:
    """Edges of the reduced graph realizing a 3D matching, value 2|selected|."""
    chosen = sorted(set(int(t) for t in selected))
    seen_a: set[int] = set()
    seen_b: set[int] = set()
    seen_c: set[int] = set()
    for t in chosen:
        if not 0 <= t < len(rmap.triples):
            raise InputError(f"unknown triple index {t}")
        a, b, c = rmap.triples[t]
        if a in seen_a or b in seen_b or c in seen_c:
            raise InputError("selected triples are not a 3D matching")
        seen_a.add(a)
        seen_b.add(b)
        seen_c.add(c)
    out: set[int] = set()
    for t in chosen:
        out.update(rmap.per_triple[t])
    return frozenset(out)


def extract_3dm(rmap: ReductionMap, inst: PermMatchInstance, mp: Iterable[int]) -> set[int]:
    """Triples whose both reduction edges appear in the matching ``mp``."""
    ids = as_matching(inst.graph, mp)
    return {t for t, (e1, e2) in enumerate(rmap.per_triple) if e1 in ids and e2 in ids}


# ---------------------------------------------------------------------------
# JSON


def permmatch_from_json(text: str) -> PermMatchInstance:
    data = json.loads(text)
    entries = sorted(data["edges"], key=lambda e: as_index(e["id"], "edge id"))
    if [e["id"] for e in entries] != list(range(len(entries))):
        raise InputError("edge ids must be exactly 0..E-1")
    edges = tuple((as_index(e["u"], "edge end"), as_index(e["v"], "edge end")) for e in entries)
    graph = Multigraph(as_index(data["vertices"], "vertices"), edges)
    return PermMatchInstance(graph, tuple(as_index(p, "pi entry") for p in data["pi"]))


def permmatch_to_json_obj(inst: PermMatchInstance) -> dict:
    return {
        "vertices": inst.graph.num_vertices,
        "edges": [{"id": i, "u": u, "v": v} for i, (u, v) in enumerate(inst.graph.edges)],
        "pi": list(inst.pi),
    }


def threedm_from_json(text: str) -> ThreeDMInstance:
    data = json.loads(text)
    return ThreeDMInstance(
        as_index(data["nA"], "nA"),
        as_index(data["nB"], "nB"),
        as_index(data["nC"], "nC"),
        tuple(tuple(as_index(i, "triple entry") for i in t) for t in data["triples"]),
    )


def threedm_to_json_obj(tdm: ThreeDMInstance) -> dict:
    return {
        "nA": tdm.n_a,
        "nB": tdm.n_b,
        "nC": tdm.n_c,
        "triples": [list(t) for t in tdm.triples],
    }
