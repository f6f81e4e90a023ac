"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's solver code paths:
oracles enumerate, grid-search, or intersect constraints directly, so a bug
in a solver cannot hide inside its own checker. The exceptions are the
differential references, which keep a replaced implementation and share the
rest of the solver so that they isolate the part that changed:
``solve_exact_dense`` (the dense Fraction tableau that ``exact=True`` used
to run), ``solve_highs_linprog`` (HiGHS through ``linprog``, as
``exact=False`` used to run), ``unpruned_stackelberg`` (the pruning, sharing the column LPs),
``column_bounds_per_column`` (the column bounds, one column at a time),
``discretized_se_reference`` (the grid enumeration and chunk scan) and
``suffix_bound_matching`` (the matcher's vertex bound and explicit stack).
It also holds helpers only the tests use, which call the package's
solvers: ``realized_maximin_profile``, ``extract_pitim_from_se``,
``leader_best_response_pm`` (the matcher under the leader's weights),
``opt_pure_pair`` (a 12-edge brute force) and ``materialized`` (a path
family written out as explicit sets).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from stacksolve import bimatrix
from stacksolve import discretize as dz
from stacksolve import incentive as inc
from stacksolve import lp
from stacksolve import permmatch as pm
from stacksolve.errors import LpNumericalError, SizeLimitError
from stacksolve.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpSolution
from stacksolve.tolerances import EQUAL, LP_FEASIBILITY
from stacksolve.bimatrix import (
    EXPLICIT_LIMIT,
    MixedStrategy,
    StackelbergSolution,
    expected_utilities,
    follower_best_response,
)


# ---------------------------------------------------------------------------
# linear programming


def lp_vertex_oracle(
    objective: Sequence[float],
    leq_rows: Sequence[tuple[Sequence[float], float]],
    tol: float = 1e-9,
) -> Optional[tuple[float, tuple[float, float]]]:
    """Maximize a 2-variable LP by enumerating constraint-pair vertices.

    All constraints must be <=-rows over exactly two variables (put bounds
    in as rows). Returns (value, point) or None when infeasible. Assumes the
    feasible region is bounded.
    """
    rows = [(np.asarray(a, dtype=float), float(b)) for a, b in leq_rows]

    def feasible(pt):
        return all(a @ pt <= b + tol for a, b in rows)

    best = None
    for (a1, b1), (a2, b2) in itertools.combinations(rows, 2):
        mat = np.vstack([a1, a2])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        pt = np.linalg.solve(mat, [b1, b2])
        if not feasible(pt):
            continue
        val = float(np.dot(objective, pt))
        if best is None or val > best[0]:
            best = (val, (float(pt[0]), float(pt[1])))
    return best


def solve_exact_dense(program: lp.LinearProgram) -> lp.LpSolution:
    """Dense two-phase simplex with Bland's rule over ``fractions.Fraction``.

    This was the exact backend before ``lp`` kept its tableau in integer
    rows. It takes the same pivots on the same rationals, so
    ``lp.solve(program, exact=True)`` must match it bit for bit.
    """
    frac = Fraction
    n = program.num_vars

    # Column layout: a variable >= 0 keeps one column, a free one becomes
    # the difference of two, so col_of_var[i] lists (column, multiplier).
    col_of_var: list[list[tuple[int, Fraction]]] = []
    ncols = 0
    for i in range(n):
        if i in program.free:
            col_of_var.append([(ncols, frac(1)), (ncols + 1, frac(-1))])
            ncols += 2
        else:
            col_of_var.append([(ncols, frac(1))])
            ncols += 1
    nstruct = ncols

    def transform(coeffs: Sequence[float], rhs: float) -> tuple[list[Fraction], Fraction]:
        out = [frac(0)] * nstruct
        r = frac(rhs)
        for i, a in enumerate(coeffs):
            if a == 0:
                continue
            fa = frac(a)
            for j, mult in col_of_var[i]:
                out[j] += fa * mult
        return out, r

    rows: list[list[Fraction]] = []
    row_kind: list[str] = []  # "leq" or "eq"
    for *coeffs, rhs in program.leq_rows.tolist():
        out, r = transform(coeffs, rhs)
        rows.append(out)
        row_kind.append("leq")
        rows[-1].append(r)
    for *coeffs, rhs in program.eq_rows.tolist():
        out, r = transform(coeffs, rhs)
        rows.append(out + [r])
        row_kind.append("eq")

    # Slacks for <= rows, then sign-normalize rhs.
    nslack = sum(1 for k in row_kind if k == "leq")
    si = 0
    for r, kind in enumerate(row_kind):
        slacks = [frac(0)] * nslack
        if kind == "leq":
            slacks[si] = frac(1)
            si += 1
        rows[r] = rows[r][:-1] + slacks + [rows[r][-1]]
    width = nstruct + nslack
    for r in range(len(rows)):
        if rows[r][-1] < 0:
            rows[r] = [-v for v in rows[r]]

    # Phase 1 basis: the row's own slack when usable (+1 coefficient after
    # sign normalization), otherwise an artificial variable.
    slack_of_row: dict[int, int] = {}
    si = nstruct
    for r, kind in enumerate(row_kind):
        if kind == "leq":
            slack_of_row[r] = si
            si += 1
    basis: list[int] = []
    art_cols: list[int] = []
    for r in range(len(rows)):
        sc = slack_of_row.get(r)
        if sc is not None and rows[r][sc] == 1:
            basis.append(sc)
        else:
            col = width + len(art_cols)
            art_cols.append(col)
            basis.append(col)
    if art_cols:
        for r in range(len(rows)):
            ext = [frac(0)] * len(art_cols)
            if basis[r] >= width:
                ext[basis[r] - width] = frac(1)
            rows[r] = rows[r][:-1] + ext + [rows[r][-1]]
        cost1 = [frac(0)] * width + [frac(1)] * len(art_cols)
        z = _dense_priced_objective(rows, basis, cost1)
        status = _dense_bland(rows, basis, z)
        if status == lp.UNBOUNDED:  # pragma: no cover - phase 1 is bounded below
            raise lp.LpNumericalError("phase-1 reported unbounded")
        if -z[-1] > 0:
            return lp.LpSolution(lp.INFEASIBLE)
        _dense_evict_artificials(rows, basis, width)
        keep = [r for r in range(len(rows)) if basis[r] < width]
        rows = [rows[r][:width] + [rows[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]

    cost2 = [frac(0)] * width
    obj = [frac(v) for v in program.objective]
    for i in range(n):
        for j, mult in col_of_var[i]:
            cost2[j] += -obj[i] * mult  # minimize the negated objective
    z = _dense_priced_objective(rows, basis, cost2)
    status = _dense_bland(rows, basis, z)
    if status == lp.UNBOUNDED:
        return lp.LpSolution(lp.UNBOUNDED)

    u = [frac(0)] * width
    for r, b in enumerate(basis):
        u[b] = rows[r][-1]
    exact_x = []
    for i in range(n):
        exact_x.append(sum(mult * u[j] for j, mult in col_of_var[i]))
    exact_obj = sum(o * v for o, v in zip(obj, exact_x))
    return lp.LpSolution(lp.OPTIMAL, [float(v) for v in exact_x], float(exact_obj))


def _dense_priced_objective(rows, basis, cost):
    # z = reduced costs plus a trailing slot holding -(objective value);
    # rows carry their rhs in the same trailing position, so one zip prices
    # both at once.
    z = list(cost) + [Fraction(0)]
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            z = [zj - cb * aj for zj, aj in zip(z, rows[r])]
    return z


def _dense_bland(rows, basis, z):
    """Minimize with Bland's rule; mutates the tableau in place."""
    ncols = len(z) - 1
    for _ in range(lp._PIVOT_GUARD):
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            return lp.OPTIMAL
        leave = None
        best = None
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                key = (row[-1] / a, basis[r])
                if best is None or key < best:
                    best = key
                    leave = r
        if leave is None:
            return lp.UNBOUNDED
        _dense_pivot(rows, z, leave, enter)
        basis[leave] = enter
    raise lp.LpNumericalError("simplex pivot guard exceeded")


def _dense_pivot(rows, z, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    prow = rows[r]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
    if z[c] != 0:
        f = z[c]
        z[:] = [a - f * b for a, b in zip(z, prow)]


def _dense_evict_artificials(rows, basis, width):
    for r in range(len(rows)):
        if basis[r] >= width:
            col = next((j for j in range(width) if rows[r][j] != 0), None)
            if col is not None:
                dummy = [Fraction(0)] * len(rows[r])
                _dense_pivot(rows, dummy, r, col)
                basis[r] = col


def solve_highs_linprog(lp: LinearProgram) -> LpSolution:
    """HiGHS through ``scipy.optimize.linprog``, as the HiGHS backend used to.

    ``lp.solve`` passes the same model and options to the HiGHS bindings
    that ``linprog`` calls, so it must match this bit for bit.
    """
    from scipy.optimize import linprog

    c = -lp.objective
    a_ub = b_ub = a_eq = b_eq = None
    if len(lp.leq_rows):
        a_ub, b_ub = lp.leq_rows[:, :-1], lp.leq_rows[:, -1]
    if len(lp.eq_rows):
        a_eq, b_eq = lp.eq_rows[:, :-1], lp.eq_rows[:, -1]
    bounds = [(None, None) if i in lp.free else (0.0, None) for i in range(lp.num_vars)]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": LP_FEASIBILITY,
            "dual_feasibility_tolerance": LP_FEASIBILITY,
        },
    )
    if res.status == 2:
        return LpSolution(INFEASIBLE)
    if res.status == 3:
        return LpSolution(UNBOUNDED)
    if res.status != 0 or res.x is None:
        raise LpNumericalError(f"HiGHS failed: status={res.status} ({res.message})")
    values = [float(v) for v in res.x]
    obj = float(np.dot(lp.objective, values))
    return LpSolution(OPTIMAL, values, obj)


# ---------------------------------------------------------------------------
# bimatrix games


def simplex_grid(n: int, steps: int) -> Iterable[tuple[float, ...]]:
    """All distributions over n atoms with numerators summing to ``steps``."""
    for combo in itertools.combinations(range(steps + n - 1), n - 1):
        cuts = (-1,) + combo + (steps + n - 1,)
        yield tuple((cuts[i + 1] - cuts[i] - 1) / steps for i in range(n))


def grid_search_stackelberg(u_leader, u_follower, steps: int) -> float:
    """Exhaustive commitment value over a leader simplex grid.

    The follower best-responds with leader-favoring tie-breaking; returns
    the best leader payoff over the grid.
    """
    ul = np.asarray(u_leader, dtype=float)
    uf = np.asarray(u_follower, dtype=float)
    n = ul.shape[0]
    best = -np.inf
    for x in simplex_grid(n, steps):
        xv = np.asarray(x)
        fvals = xv @ uf
        lvals = xv @ ul
        tied = fvals >= fvals.max() - 1e-9
        val = lvals[tied].max()
        if val > best:
            best = val
    return float(best)


def unpruned_stackelberg(game, exact: bool = False):
    """Multiple LPs over every follower column, in index order, no pruning.

    The differential reference for the bound-ordered pruning of
    ``bimatrix.solve_stackelberg``. It shares that solver's column LPs
    (``bimatrix._column_lp``), LP backend and best-response re-evaluation on
    purpose, on the same unit game (``bimatrix._unit``), so that only the
    visiting order and the stop rule differ: the strictly largest column
    value u_leader[:, j] . x wins, so the lowest column index among exactly
    equal values, and only the winner's x is re-evaluated on the game as
    given.
    """
    unit = bimatrix.BimatrixGame(bimatrix._unit(game.u_leader)[0], bimatrix._unit(game.u_follower)[0])
    best = None
    for j in range(game.m):
        sol = lp.solve(bimatrix._column_lp(unit, j), exact=exact)
        if not sol.is_optimal:
            continue
        x = MixedStrategy(tuple(min(1.0, max(0.0, v)) for v in sol.values))
        value = float(unit.u_leader[:, j] @ x.as_array())
        if best is None or value > best[0]:
            best = (value, x)
    x = best[1]
    response = follower_best_response(game, x)
    payoff, follower = expected_utilities(game, x, MixedStrategy.point_mass(game.m, response))
    return StackelbergSolution(x, response, payoff, follower)


def column_bounds_per_column(game) -> np.ndarray:
    """``bimatrix._column_bounds`` as it was first written, one column at a time.

    The same sums uL[i, j] + lam (uF[i, j] - uF[i, r]) in one
    |multipliers| x n x m array per column, so the blocked version must
    match it bit for bit: max and min are exact.
    """
    ul, uf = game.u_leader, game.u_follower
    lam = bimatrix._MULTIPLIERS[:, None, None]
    return np.array([(ul[:, [j]] + lam * (uf[:, [j]] - uf)).max(axis=1).min() for j in range(game.m)])


def realized_maximin_profile(game, exact: bool = False) -> tuple[MixedStrategy, MixedStrategy, float, float]:
    """Pair both players' maximin strategies and evaluate the realized payoffs."""
    xl, _ = bimatrix.solve_maximin(game, bimatrix.LEADER, exact=exact)
    yf, _ = bimatrix.solve_maximin(game, bimatrix.FOLLOWER, exact=exact)
    lpay, fpay = expected_utilities(game, xl, yf)
    return xl, yf, lpay, fpay


# ---------------------------------------------------------------------------
# eps-grid discretization


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All length-n tuples of nonnegative ints summing to k, in lex order."""
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(n - 1, k - first):
            yield (first,) + rest


def grid_strategies(n: int, params, cap: int = dz.DEFAULT_GRID_CAP) -> list[MixedStrategy]:
    """Every mixed strategy with probabilities in {0, eps, 2 eps, ..., 1}, in grid order."""
    dz._check_cap(n, params, cap)
    return [
        MixedStrategy(tuple(c / params.k for c in row))
        for block in dz._grid_blocks(n, params.k)
        for row in block.tolist()
    ]


def discretized_se_reference(game, params) -> dz.ApproxSolution:
    """``discretize.discretized_se`` as a tuple generator and a per-row scan.

    Rows come from ``_compositions`` in chunks of 16384; every row of every
    chunk is compared in turn, so the first row holding the best payoff
    wins, and within it the lowest column.
    """
    n = game.n
    count = dz.grid_size(n, params)
    big_m = dz.max_abs_payoff(game)
    slack = 2.0 * n * params.eps * big_m
    ul = game.u_leader
    uf = game.u_follower
    best = None  # payoff, numerators, j, fpay

    def flush(chunk_rows):
        nonlocal best
        if not chunk_rows:
            return
        xs = np.asarray(chunk_rows, dtype=float) / params.k
        fvals = xs @ uf
        lvals = xs @ ul
        tops = fvals.max(axis=1, keepdims=True)
        allowed = fvals >= tops - slack - 1e-12
        masked = np.where(allowed, lvals, -np.inf)
        picks = masked.argmax(axis=1)
        rows = np.arange(len(chunk_rows))
        values = masked[rows, picks]
        for i in range(len(chunk_rows)):
            if best is None or values[i] > best[0]:
                best = (float(values[i]), chunk_rows[i], int(picks[i]), float(fvals[i, picks[i]]))

    chunk = []
    for combo in _compositions(n, params.k):
        chunk.append(combo)
        if len(chunk) >= 16384:
            flush(chunk)
            chunk = []
    flush(chunk)
    payoff, numerators, j, fpay = best
    return dz.ApproxSolution(
        leader=MixedStrategy(tuple(c / params.k for c in numerators)),
        follower_response=j,
        leader_payoff=payoff,
        follower_payoff=fpay,
        slack=slack,
        max_payoff=big_m,
        grid_size=count,
        candidates_examined=count,
    )


# ---------------------------------------------------------------------------
# matchings


def all_matchings_bruteforce(num_vertices: int, edges: Sequence[tuple[int, int]]) -> list[frozenset[int]]:
    """Every matching, found by filtering all edge subsets (itertools-based)."""
    out = []
    ids = range(len(edges))
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(ids, r):
            used = set()
            ok = True
            for e in combo:
                u, v = edges[e]
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                out.append(frozenset(combo))
    return out


def max_weight_matching_bruteforce(num_vertices: int, edges, weights) -> tuple[float, frozenset[int]]:
    best_w = 0.0
    best_m: frozenset[int] = frozenset()
    for m in all_matchings_bruteforce(num_vertices, edges):
        w = sum(weights[e] for e in m)
        if w > best_w + 1e-12:
            best_w = w
            best_m = m
    return best_w, best_m


def suffix_bound_matching(graph, weights, tie_weights=None) -> frozenset[int]:
    """``permmatch.max_weight_matching`` as it searched before its vertex bound.

    The same candidates, branching order, acceptance and tie rules, bounded
    only by the sums of the remaining candidates' weights and positive tie
    weights, and recursing once per candidate. It visits every leaf the
    vertex-bounded search could accept, so the two must return the same edge
    set; it reaches edge counts brute force cannot.
    """
    ties = [0.0] * graph.num_edges if tie_weights is None else tie_weights
    cand = sorted(
        (e for e in range(graph.num_edges) if weights[e] > 0 or (weights[e] == 0 and ties[e] > 0)),
        key=lambda e: (-weights[e], -ties[e], e),
    )
    suffix_w = [0.0] * (len(cand) + 1)
    suffix_t = [0.0] * (len(cand) + 1)
    for i in range(len(cand) - 1, -1, -1):
        suffix_w[i] = suffix_w[i + 1] + weights[cand[i]]
        suffix_t[i] = suffix_t[i + 1] + max(ties[cand[i]], 0.0)
    best_w, best_t = 0.0, 0.0
    best_set: tuple[int, ...] = ()
    chosen: list[int] = []
    used: set[int] = set()

    def recurse(idx: int, total: float, tie: float) -> None:
        nonlocal best_w, best_t, best_set
        bound = total + suffix_w[idx]
        if bound < best_w - EQUAL or (
            bound <= best_w + EQUAL and tie + suffix_t[idx] < best_t - EQUAL
        ):
            return
        if idx == len(cand):
            key = tuple(sorted(chosen))
            if total > best_w + EQUAL or (
                total >= best_w - EQUAL
                and (tie > best_t + EQUAL or (tie >= best_t - EQUAL and key < best_set))
            ):
                best_w, best_t, best_set = total, tie, key
            return
        e = cand[idx]
        u, v = graph.edges[e]
        if u not in used and v not in used:
            chosen.append(e)
            used.update((u, v))
            recurse(idx + 1, total + weights[e], tie + ties[e])
            used.difference_update((u, v))
            chosen.pop()
        recurse(idx + 1, total, tie)

    recurse(0, 0.0, 0.0)
    return frozenset(best_set)


def lexmax_matching_bruteforce(num_vertices: int, edges, weights, ties) -> frozenset[int]:
    """The documented rule of ``max_weight_matching`` with tie weights, by enumeration.

    Matchings with an edge of negative weight, or of zero weight and no
    positive tie weight, are dropped. Of the rest: the largest weight, then
    the largest tie weight among those within 1e-9 of it, then the smallest
    sorted edge-id set among those within 1e-9 again.
    """
    allowed = [
        m
        for m in all_matchings_bruteforce(num_vertices, edges)
        if all(weights[e] > 0 or (weights[e] == 0 and ties[e] > 0) for e in m)
    ]
    best_w = max(sum(weights[e] for e in m) for m in allowed)
    allowed = [m for m in allowed if sum(weights[e] for e in m) >= best_w - 1e-9]
    best_t = max(sum(ties[e] for e in m) for m in allowed)
    allowed = [m for m in allowed if sum(ties[e] for e in m) >= best_t - 1e-9]
    return min(allowed, key=sorted)


def pm_utilities(inst, m_leader: Iterable[int], m_follower: Iterable[int]) -> tuple[int, int]:
    """(leader, follower) payoffs of one pair of matchings: |M_L ∩ pi(M_F)| and |M_L ∩ M_F|."""
    ml = pm.as_matching(inst.graph, m_leader)
    mf = pm.as_matching(inst.graph, m_follower)
    return len(ml & inst.pi_image(mf)), len(ml & mf)


def common_dist(x: Iterable[int], y: Iterable[int]) -> tuple[int, int]:
    """(|x ∩ y|, |x| + |y| - 2|x ∩ y|); the second term is a metric."""
    xs, ys = frozenset(x), frozenset(y)
    common = len(xs & ys)
    return common, len(xs) + len(ys) - 2 * common


def follower_best_response_bruteforce(inst, support) -> tuple[float, float]:
    """(best follower payoff, best leader payoff among follower ties within 1e-9).

    Enumerates every matching and scores it from the payoff definitions,
    ``sum_p p |M_L ∩ M_F|`` and ``sum_p p |M_L ∩ pi(M_F)|``, not from edge
    marginals.
    """
    scored = []
    for m in all_matchings_bruteforce(inst.graph.num_vertices, inst.graph.edges):
        image = frozenset(inst.pi[e] for e in m)
        follower = sum(p * len(frozenset(ml) & m) for ml, p in support)
        leader = sum(p * len(frozenset(ml) & image) for ml, p in support)
        scored.append((follower, leader))
    best_f = max(f for f, _ in scored)
    return best_f, max(l for f, l in scored if f >= best_f - 1e-9)


def leader_best_response_pm(inst, y) -> pm.Matching:
    """Leader's best response to the follower mixture ``y``: weights are P[pi^{-1}(e) in M_F]."""
    return pm.max_weight_matching(inst.graph, pm._edge_mass(pm._support(inst, y), inst.pi))


def opt_pure_pair(inst) -> tuple[pm.Matching, pm.Matching, int]:
    """Exact max over pure pairs of |y ∩ pi(y')| (12-edge brute force).

    The value is the size of the largest matching S whose pi-image is a
    matching too: a pair (y, y') gives such an S = {e' in y' : pi(e') in y},
    of size |y ∩ pi(y')|, and y = pi(S), y' = S reach |S|. Returns
    (pi(S), S, |S|) for the first largest S in ``enumerate_matchings`` order.
    """
    if inst.graph.num_edges > pm.BRUTE_FORCE_EDGE_LIMIT:
        raise SizeLimitError(f"opt_pure_pair is limited to {pm.BRUTE_FORCE_EDGE_LIMIT} edges")

    def image_is_matching(s: pm.Matching) -> bool:
        ends = [v for e in inst.pi_image(s) for v in inst.graph.edges[e]]
        return len(set(ends)) == len(ends)

    best = max(filter(image_is_matching, pm.enumerate_matchings(inst.graph)), key=len)
    return inst.pi_image(best), best, len(best)


def extract_pitim_from_se(inst, y: Iterable[int]) -> tuple[pm.Matching, int]:
    """Read a pi-TIM candidate off a commitment solution's follower response.

    When the pair is close to optimal on a yes-instance, y is close to
    pi(y), so its pi-TIM value is close to maximal.
    """
    ids = pm.as_matching(inst.graph, y)
    return ids, pm.pitim_value(inst, ids)


# ---------------------------------------------------------------------------
# 3-dimensional matching


def bruteforce_3dm_value(triples: Sequence[tuple[int, int, int]]) -> int:
    """Maximum number of pairwise-disjoint triples, by subset enumeration."""
    best = 0
    idx = range(len(triples))
    for r in range(len(triples), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(idx, r):
            seen_a, seen_b, seen_c = set(), set(), set()
            ok = True
            for t in combo:
                a, b, c = triples[t]
                if a in seen_a or b in seen_b or c in seen_c:
                    ok = False
                    break
                seen_a.add(a)
                seen_b.add(b)
                seen_c.add(c)
            if ok:
                best = max(best, r)
                break
    return best


def is_3d_matching(triples, selected) -> bool:
    seen_a, seen_b, seen_c = set(), set(), set()
    for t in selected:
        a, b, c = triples[t]
        if a in seen_a or b in seen_b or c in seen_c:
            return False
        seen_a.add(a)
        seen_b.add(b)
        seen_c.add(c)
    return True


# ---------------------------------------------------------------------------
# incentive games


def lex_min_tight_path_dfs(fam, weights: Mapping, costs: Mapping, tol: float = 1e-9) -> Optional[list[str]]:
    """Lexicographically-smallest edge-id s-t path of least weight, then least cost.

    Lists every simple s-t path depth first with id-sorted branching, so in
    lexicographic order of edge-id sequences; keeps the paths within ``tol``
    of the least weight, then those within ``tol`` of the least cost among
    them, and returns the first. Exponential in the graph.
    """
    adj = fam.adjacency()
    visited = [False] * fam.num_vertices
    paths: list[list[str]] = []

    def walk(v: int, trail: list[str]) -> None:
        if v == fam.sink:
            paths.append(list(trail))
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
        return None
    for table in (weights, costs):
        totals = [sum(table[e] for e in path) for path in paths]
        paths = [path for path, total in zip(paths, totals) if total <= min(totals) + tol]
    return paths[0]


def materialized(inst: inc.IncentiveInstance) -> inc.IncentiveInstance:
    """The same instance with its path family replaced by explicit sets."""
    return replace(inst, family=inst.family.explicit(EXPLICIT_LIMIT))


def incentive_grid_oracle(
    elements: Sequence[str],
    c: dict,
    big_c: dict,
    sets: Sequence[frozenset],
    target_index: int,
    steps: int = 100,
    v_max: float = 1.0,
) -> float:
    """Best leader payoff over a grid of (x, V_target) leader strategies.

    x ranges over the simplex grid with ``steps`` subdivisions, the single
    incentive on ``sets[target_index]`` over multiples of 1/steps in
    [0, v_max]. The follower best-responds with leader-favoring ties.
    """
    n = len(elements)
    masks = np.array([[1.0 if e in s else 0.0 for e in elements] for s in sets])
    c_sums = np.array([sum(c[e] for e in s) for s in sets])
    c_vec = np.array([big_c[e] for e in elements])
    xs = np.array(list(simplex_grid(n, steps)))
    base_f = -xs @ masks.T + c_sums  # follower payoff per (x, set), before incentives
    base_l = xs @ masks.T + (xs @ c_vec)[:, None]
    best = -np.inf
    v_grid = np.arange(0, round(v_max * steps) + 1) / steps
    block = 8192
    for start in range(0, xs.shape[0], block):
        bf = base_f[start:start + block]
        bl = base_l[start:start + block]
        fv = np.repeat(bf[:, :, None], len(v_grid), axis=2)
        lv = np.repeat(bl[:, :, None], len(v_grid), axis=2)
        fv[:, target_index, :] += v_grid
        lv[:, target_index, :] -= v_grid
        top = fv.max(axis=1, keepdims=True)
        tied = fv >= top - 1e-9
        cand = np.where(tied, lv, -np.inf).max(axis=1)
        best = max(best, float(cand.max()))
    return best
