"""Linear programming with optional exact rational arithmetic.

Two interchangeable backends sit behind ``solve``:

* ``exact=True``  -- a dense two-phase simplex over ``fractions.Fraction``
  with Bland's rule, so degenerate desk-scale programs terminate and return
  bit-reproducible optima.
* ``exact=False`` -- scipy's HiGHS solver with tightened feasibility
  tolerances, for the larger programs produced by the game solvers.

``solve_with_generation`` runs the cutting-plane loop: solve the current
relaxation, ask a separation oracle for a violated constraint at the
optimum, add it, and repeat until no violation exceeds the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError, LpNumericalError, ToolkitError
from .tolerances import GUARANTEE, LP_FEASIBILITY

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """A maximization LP over real variables with optional box bounds.

    ``leq_rows`` and ``eq_rows`` are ``(coefficients, rhs)`` pairs; bounds
    are per-variable and ``None`` means unbounded on that side.
    """

    num_vars: int
    objective: tuple[float, ...]
    leq_rows: tuple[tuple[tuple[float, ...], float], ...] = ()
    eq_rows: tuple[tuple[tuple[float, ...], float], ...] = ()
    lower_bounds: tuple[Optional[float], ...] = ()
    upper_bounds: tuple[Optional[float], ...] = ()

    def __post_init__(self):
        if self.num_vars < 1:
            raise InputError("LP needs at least one variable")
        if len(self.objective) != self.num_vars:
            raise InputError("objective length != num_vars")
        for coeffs, _ in list(self.leq_rows) + list(self.eq_rows):
            if len(coeffs) != self.num_vars:
                raise InputError("constraint row length != num_vars")
        lo = self.lower_bounds or (None,) * self.num_vars
        hi = self.upper_bounds or (None,) * self.num_vars
        if len(lo) != self.num_vars or len(hi) != self.num_vars:
            raise InputError("bound vectors must have num_vars entries")
        for lb, ub in zip(lo, hi):
            if lb is not None and ub is not None and lb > ub:
                raise InputError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower_bounds", tuple(lo))
        object.__setattr__(self, "upper_bounds", tuple(hi))

    def with_leq_row(self, coeffs: Sequence[float], rhs: float) -> "LinearProgram":
        row = (tuple(float(c) for c in coeffs), float(rhs))
        return LinearProgram(
            self.num_vars,
            self.objective,
            self.leq_rows + (row,),
            self.eq_rows,
            self.lower_bounds,
            self.upper_bounds,
        )


@dataclass
class LpSolution:
    status: str
    values: list[float] = field(default_factory=list)
    objective_value: float = float("nan")

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class Cut(NamedTuple):
    """A violated <=-constraint returned by a separation oracle."""

    coeffs: tuple[float, ...]
    rhs: float
    violation: float


# Given a candidate assignment, return the most violated constraint or None.
SeparationOracle = Callable[[Sequence[float]], Optional[Cut]]


class GenerationLimitError(ToolkitError):
    """Constraint generation hit its round limit; carries the last iterate."""

    def __init__(self, rounds: int, last: LpSolution):
        super().__init__(f"constraint generation did not converge in {rounds} rounds")
        self.rounds = rounds
        self.last = last


def solve(lp: LinearProgram, exact: bool = False) -> LpSolution:
    """Solve ``lp`` to optimality, or report infeasible/unbounded status.

    Raises LpNumericalError when the backend fails numerically (pivot guard
    exceeded, solver breakdown); that is never conflated with infeasibility.
    """
    if exact:
        return _solve_exact(lp)
    return _solve_scipy(lp)


def solve_with_generation(
    base: LinearProgram,
    oracle: SeparationOracle,
    tol: float = GUARANTEE,
    max_rounds: Optional[int] = None,
    exact: bool = False,
) -> LpSolution:
    """Cutting-plane loop around ``solve`` driven by a separation oracle.

    Stops when the oracle reports no constraint violated by more than
    ``tol``. Non-optimal statuses of the relaxation are returned as-is.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    if max_rounds is None:
        max_rounds = 10 * (base.num_vars + 100)
    current = base
    last: Optional[LpSolution] = None
    for _ in range(max_rounds):
        last = solve(current, exact=exact)
        if not last.is_optimal:
            return last
        cut = oracle(last.values)
        if cut is None or cut.violation <= tol:
            return last
        current = current.with_leq_row(cut.coeffs, cut.rhs)
    raise GenerationLimitError(max_rounds, last if last is not None else LpSolution(INFEASIBLE))


# ---------------------------------------------------------------------------
# scipy backend


def _solve_scipy(lp: LinearProgram) -> LpSolution:
    # imported here so that commands which solve no HiGHS LP skip scipy's
    # start-up cost
    from scipy.optimize import linprog

    c = -np.asarray(lp.objective, dtype=float)
    a_ub = b_ub = a_eq = b_eq = None
    if lp.leq_rows:
        a_ub = np.asarray([r[0] for r in lp.leq_rows], dtype=float)
        b_ub = np.asarray([r[1] for r in lp.leq_rows], dtype=float)
    if lp.eq_rows:
        a_eq = np.asarray([r[0] for r in lp.eq_rows], dtype=float)
        b_eq = np.asarray([r[1] for r in lp.eq_rows], dtype=float)
    bounds = list(zip(lp.lower_bounds, lp.upper_bounds))
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
# exact simplex backend

_PIVOT_GUARD = 200_000


def _solve_exact(lp: LinearProgram) -> LpSolution:
    frac = Fraction
    n = lp.num_vars

    # Column layout for the nonnegative standard-form variables. Each
    # original variable maps to (constant, [(column, multiplier), ...]).
    col_of_var: list[tuple[Fraction, list[tuple[int, Fraction]]]] = []
    extra_rows: list[tuple[list[Fraction], Fraction]] = []  # from two-sided bounds
    ncols = 0
    for i in range(n):
        lb, ub = lp.lower_bounds[i], lp.upper_bounds[i]
        if lb is not None:
            col_of_var.append((frac(lb), [(ncols, frac(1))]))
            if ub is not None:
                row = [frac(0)] * (ncols + 1)
                row[ncols] = frac(1)
                extra_rows.append((row, frac(ub) - frac(lb)))
            ncols += 1
        elif ub is not None:
            col_of_var.append((frac(ub), [(ncols, frac(-1))]))
            ncols += 1
        else:
            col_of_var.append((frac(0), [(ncols, frac(1)), (ncols + 1, frac(-1))]))
            ncols += 2
    nstruct = ncols

    def transform(coeffs: Sequence[float], rhs: float) -> tuple[list[Fraction], Fraction]:
        out = [frac(0)] * nstruct
        r = frac(rhs)
        for i, a in enumerate(coeffs):
            if a == 0:
                continue
            fa = frac(a)
            const, cols = col_of_var[i]
            r -= fa * const
            for j, mult in cols:
                out[j] += fa * mult
        return out, r

    rows: list[list[Fraction]] = []
    row_kind: list[str] = []  # "leq" or "eq"
    for coeffs, rhs in lp.leq_rows:
        out, r = transform(coeffs, rhs)
        rows.append(out)
        row_kind.append("leq")
        rows[-1].append(r)
    for out, r in extra_rows:
        out = out + [frac(0)] * (nstruct - len(out))
        rows.append(out + [r])
        row_kind.append("leq")
    for coeffs, rhs in lp.eq_rows:
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
        z = _priced_objective(rows, basis, cost1)
        status = _bland(rows, basis, z)
        if status == UNBOUNDED:  # pragma: no cover - phase 1 is bounded below
            raise LpNumericalError("phase-1 reported unbounded")
        if -z[-1] > 0:
            return LpSolution(INFEASIBLE)
        _evict_artificials(rows, basis, width)
        keep = [r for r in range(len(rows)) if basis[r] < width]
        rows = [rows[r][:width] + [rows[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]

    cost2 = [frac(0)] * width
    obj = [frac(v) for v in lp.objective]
    for i in range(n):
        _, cols = col_of_var[i]
        for j, mult in cols:
            cost2[j] += -obj[i] * mult  # minimize the negated objective
    z = _priced_objective(rows, basis, cost2)
    status = _bland(rows, basis, z)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    u = [frac(0)] * width
    for r, b in enumerate(basis):
        u[b] = rows[r][-1]
    exact_x = []
    for i in range(n):
        const, cols = col_of_var[i]
        val = const
        for j, mult in cols:
            val += mult * u[j]
        exact_x.append(val)
    exact_obj = sum(o * v for o, v in zip(obj, exact_x))
    return LpSolution(OPTIMAL, [float(v) for v in exact_x], float(exact_obj))


def _priced_objective(rows, basis, cost):
    # z = reduced costs plus a trailing slot holding -(objective value);
    # rows carry their rhs in the same trailing position, so one zip prices
    # both at once.
    z = list(cost) + [Fraction(0)]
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            z = [zj - cb * aj for zj, aj in zip(z, rows[r])]
    return z


def _bland(rows, basis, z):
    """Minimize with Bland's rule; mutates the tableau in place."""
    ncols = len(z) - 1
    for _ in range(_PIVOT_GUARD):
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            return OPTIMAL
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
            return UNBOUNDED
        _pivot(rows, z, leave, enter)
        basis[leave] = enter
    raise LpNumericalError("simplex pivot guard exceeded")


def _pivot(rows, z, r, c):
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


def _evict_artificials(rows, basis, width):
    for r in range(len(rows)):
        if basis[r] >= width:
            col = next((j for j in range(width) if rows[r][j] != 0), None)
            if col is not None:
                dummy = [Fraction(0)] * len(rows[r])
                _pivot(rows, dummy, r, col)
                basis[r] = col
