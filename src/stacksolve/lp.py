"""Linear programming with optional exact rational arithmetic.

A ``LinearProgram`` is in standard form: every variable is >= 0 unless it
is named in ``free`` (then it is x+ - x- in the exact tableau, and -inf
below in HiGHS), and any other bound is a row. Its numbers are read-only
float arrays, built once: the objective (n values), and the <= and ==
rows as k x (n + 1) arrays, each row its n coefficients, then its
right-hand side. Callers build them with numpy; HiGHS takes slices of
them, and the exact simplex reads each number once as a Python float.

Two interchangeable backends sit behind ``solve``:

* ``exact=True``  -- a two-phase simplex with Bland's rule whose tableau
  rows are Python ints over one positive denominator each, so every sign
  test and ratio comparison is exact integer arithmetic. Degenerate
  desk-scale programs terminate, and the optima are bit-reproducible: the
  pivots and rationals are those of a ``fractions.Fraction`` tableau.
* ``exact=False`` -- HiGHS's dual simplex, for the larger programs of the
  game solvers, called through the bindings scipy ships. ``solve`` passes
  the model and options ``linprog(method="highs", options={"presolve":
  False})`` would pass (feasibility tolerances at ``LP_FEASIBILITY``).
  Presolve is off: on the small dense LPs of the game solvers it costs
  more than it saves. linprog's finiteness and residual checks are kept,
  so the answers of ``solve`` are linprog's, bit for bit, without its
  per-call overhead. The column models of ``TightRowLps`` take the same
  options but for one: HiGHS's scaling is off (``simplex_scale_strategy``
  0). Their callers pass a matrix already scaled (``bimatrix._unit`` puts
  max|a| in [1/2, 1)), and the envelope's other coefficients are -1, 0
  and 1, so HiGHS's equilibration has little to even out: on the
  benchmark's games it doubled the dual simplex iterations of those LPs
  and changed no column's status. Unscaled, HiGHS also holds
  ``LP_FEASIBILITY`` to the rows as written, not to rescaled ones. The
  LPs of ``solve`` come at any scale, so it keeps linprog's scaling.
  The bindings' extension file is loaded by itself, without importing
  ``scipy.optimize``, whose import takes longer than a whole CLI solve.
  The options go to HiGHS before each model, which goes as plain arrays,
  through the array overload of ``passModel``; every LP is solved by one
  solver object made on first use. ``passModel`` clears that object's
  model, basis and solution, so no LP sees the one before, except within
  one warm sequence of ``TightRowLps``, whose re-solves that end with
  model status Unknown are run once more from no basis. The object is not
  re-entrant: the package runs no threads, and nothing may solve an LP
  from inside another solve.

``envelope(a)`` is the upper envelope of the columns of an n x m matrix a
over the simplex: x and one free t, with ``a[:, r] . x - t <= 0`` for every
column r and x summing to 1. ``TightRowLps(a)`` solves the LPs
max c . x over that simplex with column j on the envelope, for an n-vector
c and a column j, and returns x. On HiGHS they are re-solves of one
envelope model with row j held at equality, t at no cost. On the exact
backend t is substituted out through row j, which leaves the rows
``(a[:, s] - a[:, j]) . x <= 0``, s != j in order, and the sum of x: the
tableau of the same LP written without t, so Bland's rule takes its
pivots and gives its bits. Keeping t as a variable pivots more and moves
optima among ties.

``solve_with_generation`` runs the cutting-plane loop: solve the current
relaxation, ask a separation oracle for a violated constraint at the
optimum, add it, and repeat until no violation exceeds ``GUARANTEE``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field, replace
from math import gcd, lcm
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError, LpNumericalError, ToolkitError
from .tolerances import GUARANTEE, LP_FEASIBILITY, LP_RESIDUAL

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A maximization LP in standard form: variables >= 0 unless in ``free``.

    ``objective`` holds the n objective coefficients. ``leq_rows`` and
    ``eq_rows`` are k x (n + 1) arrays: row r says ``row[:-1] . x <= row[-1]``
    (or ``==``). Any array-like is taken and stored as a read-only float
    array; any other bound on a variable is a row.
    """

    objective: np.ndarray
    leq_rows: np.ndarray = ()
    eq_rows: np.ndarray = ()
    free: frozenset[int] = frozenset()

    def __post_init__(self):
        objective = _frozen(self.objective)
        if objective.ndim != 1 or len(objective) == 0:
            raise InputError("LP needs a nonempty objective vector")
        n = len(objective)
        object.__setattr__(self, "objective", objective)
        for name in ("leq_rows", "eq_rows"):
            rows = _frozen(getattr(self, name))
            if rows.shape == (0,):
                rows = rows.reshape(0, n + 1)
            if rows.ndim != 2 or rows.shape[1] != n + 1:
                raise InputError(f"{name} must be rows of {n} coefficients and a right-hand side")
            object.__setattr__(self, name, rows)
        if not all(0 <= i < n for i in self.free):
            raise InputError("free variable index out of range")
        object.__setattr__(self, "free", frozenset(self.free))

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def with_leq_row(self, coeffs: Sequence[float], rhs: float) -> "LinearProgram":
        return replace(self, leq_rows=(*self.leq_rows, np.append(coeffs, rhs)))


def _frozen(values) -> np.ndarray:
    try:
        array = np.array(values, dtype=float)
    except ValueError as exc:  # ragged rows, or text
        raise InputError(f"LP numbers must form an array: {exc}") from None
    array.setflags(write=False)
    return array


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
    """Constraint generation hit its round limit."""


def solve(lp: LinearProgram, exact: bool = False) -> LpSolution:
    """Solve ``lp`` to optimality, or report infeasible/unbounded status.

    Raises LpNumericalError when the backend fails numerically (pivot guard
    exceeded, solver breakdown, an optimum beyond the float range); that is
    never conflated with infeasibility. Non-finite numbers raise InputError.
    """
    _check_finite(lp.objective, lp.leq_rows, lp.eq_rows)
    return _solve_exact(lp) if exact else _solve_highs(lp)


def _check_finite(*arrays: np.ndarray) -> None:
    # count_nonzero runs in C; .all() would add numpy's Python wrapper to every LP
    if any(np.count_nonzero(np.isfinite(a)) != a.size for a in arrays):
        raise InputError("LP numbers must be finite")


def solve_with_generation(
    base: LinearProgram, oracle: SeparationOracle, max_rounds: int, exact: bool = False
) -> LpSolution:
    """Cutting-plane loop around ``solve`` driven by a separation oracle.

    Stops when the oracle reports no constraint violated by more than
    ``GUARANTEE``; raises ``GenerationLimitError`` after ``max_rounds``
    relaxations without that. Non-optimal statuses of the relaxation are
    returned as-is.
    """
    current = base
    for _ in range(max_rounds):
        last = solve(current, exact=exact)
        if not last.is_optimal:
            return last
        cut = oracle(last.values)
        if cut is None or cut.violation <= GUARANTEE:
            return last
        current = current.with_leq_row(cut.coeffs, cut.rhs)
    raise GenerationLimitError(f"constraint generation did not converge in {max_rounds} rounds")


# ---------------------------------------------------------------------------
# HiGHS backend


_CORE = "scipy.optimize._highspy._core"


def _load_core():
    """scipy's HiGHS extension, loaded from its own file.

    Importing it the usual way runs ``scipy.optimize/__init__``, 0.4 s or
    more, most of a HiGHS CLI run, and the bindings need none of it. The
    file taken is the one the import system would pick: the first suffix of
    ``EXTENSION_SUFFIXES`` present. The module is registered under its real
    name, so a later ``import scipy.optimize`` reuses this very object, and
    one imported earlier is reused here.
    """
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    scipy = importlib.util.find_spec("scipy")  # locates the package, imports nothing
    if scipy is None:
        raise ImportError("HiGHS bindings not found: scipy is not installed")
    folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"HiGHS bindings not found: no _core extension in {folder}")
    loader = importlib.machinery.ExtensionFileLoader(_CORE, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_CORE, loader))
    loader.exec_module(module)
    sys.modules[_CORE] = module
    return module


# The bindings (private to scipy, loaded by ``_load_core`` without
# ``scipy.optimize``), the one solver, and its two option sets, made on
# first use, so that commands which solve no HiGHS LP skip even that:
# linprog's, and the column models' copy of them with scaling off.
@functools.cache
def _highs():
    _core = _load_core()
    linprog, columns = _core.HighsOptions(), _core.HighsOptions()
    for options in (linprog, columns):
        options.presolve = "off"
        options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = options.output_flag = False
        options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = LP_FEASIBILITY
    columns.simplex_scale_strategy = 0  # off
    return _core, _core._Highs(), linprog, columns


def _solve_highs(lp: LinearProgram) -> LpSolution:
    global _holder
    core, highs, options, _ = _highs()
    n_leq = len(lp.leq_rows)
    rows = np.concatenate((lp.leq_rows, lp.eq_rows))
    lower, lhs, rhs = _bounds(lp, rows, n_leq)
    _holder = None
    _pass_model(core, highs, options, -lp.objective, lower, lhs, rhs, rows[:, :-1])
    return _run(core, highs, lp.objective, lower, lhs, rhs)


def _bounds(lp: LinearProgram, rows: np.ndarray, n_leq: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column lower bounds, then row lower and upper sides: the first ``n_leq`` rows are <= rows."""
    lower = np.zeros(lp.num_vars)
    lower[list(lp.free)] = -np.inf
    rhs = rows[:, -1]
    return lower, np.concatenate((np.full(n_leq, -np.inf), rhs[n_leq:])), rhs


def _pass_model(core, highs, options, cost, lower, lhs, rhs, a) -> None:
    # the options, then the rows column by column, explicit zeros dropped;
    # every variable is continuous (an empty integrality array is an error,
    # not "none")
    if highs.passOptions(options) == core.HighsStatus.kError:
        raise LpNumericalError("HiGHS rejected its options")
    n = len(cost)
    cols, row_index = np.nonzero(a.T)
    status = highs.passModel(
        n, len(a), len(cols), core.MatrixFormat.kColwise, core.ObjSense.kMinimize, 0.0,
        cost, lower, np.full(n, np.inf), lhs, rhs,
        np.searchsorted(cols, np.arange(n + 1)).astype(np.int32), row_index.astype(np.int32),
        a[row_index, cols], np.zeros(n, np.int32),
    )
    if status == core.HighsStatus.kError:
        raise LpNumericalError("HiGHS rejected the model")


def _run(core, highs, objective, lower, lhs, rhs) -> LpSolution:
    """Solve the model HiGHS holds: map its status, and check an optimum as linprog does."""
    run_status = highs.run()
    status = highs.getModelStatus()
    if status == core.HighsModelStatus.kInfeasible:
        return LpSolution(INFEASIBLE)
    if status == core.HighsModelStatus.kUnbounded:
        return LpSolution(UNBOUNDED)
    if status != core.HighsModelStatus.kOptimal or run_status == core.HighsStatus.kError:
        raise LpNumericalError(f"HiGHS failed: {highs.modelStatusToString(status)}")

    # linprog's residual check: an optimum outside its bounds or rows is a
    # solver failure, not an answer (a row with lhs == rhs is an equality)
    solution = highs.getSolution()
    x, activity = np.array(solution.col_value), np.asarray(solution.row_value)
    if not (
        np.all(x >= lower - LP_RESIDUAL)
        and np.all(rhs - activity >= -LP_RESIDUAL)
        and np.all(activity - lhs >= -LP_RESIDUAL)
    ):
        raise LpNumericalError("HiGHS reported an optimum that breaks its constraints")
    values = [float(v) for v in x]
    return LpSolution(OPTIMAL, values, float(np.dot(objective, values)))


def envelope(a: np.ndarray) -> LinearProgram:
    """The upper envelope of a's columns over the simplex, in x and one free variable t = x[n].

    Row r says a[:, r] . x - t <= 0, and x sums to 1; the objective is 0.
    Under the objective -t, t is the largest a[:, r] . x (the maximin LP);
    with row j held at equality (``TightRowLps``), a[:, j] . x is.
    """
    n, m = a.shape
    rows = np.concatenate((a.T, np.full((m, 1), -1.0), np.zeros((m, 1))), axis=1)
    return LinearProgram(np.zeros(n + 1), rows, [np.append(np.ones(n), (0.0, 1.0))], {n})


# The ``TightRowLps`` whose model the HiGHS solver holds, if any; a cold
# ``solve`` passes its own model and clears this.
_holder: Optional["TightRowLps"] = None


class TightRowLps:
    """The LPs max c . x over the simplex with column j on the upper envelope of a's columns.

    ``a`` is an n x m matrix; ``solve(c, j)`` takes an n-vector c and a
    column j and returns x only.

    On HiGHS the ``envelope`` model goes to the solver once, with scaling
    off, so the tolerances apply to a's entries as given: pass a matrix
    scaled to about 1, as ``bimatrix._unit`` does. Each later solve changes
    the costs and two rows' bounds, and the dual simplex starts from the
    basis the solve before left. If a cold ``solve`` passed
    another model in between, the model is passed again, so a solve never
    runs on another LP's model. A re-solve that ends with model status
    Unknown, as some warm re-solves of infeasible columns do where a cold
    solve finds them infeasible, is run once more on the model passed
    afresh; a second failure raises. The answers depend on the order of the
    solves, so make one object per sequence to repeat.

    With ``exact``, each solve is a cold exact ``solve`` of the LP with t
    substituted out.
    """

    def __init__(self, a, exact: bool = False):
        a = _frozen(a)
        if a.ndim != 2:
            raise InputError("the envelope needs an n x m matrix")
        _check_finite(a)
        self._a, self._exact = a, exact
        if exact:
            return
        program = envelope(a)
        self._rows = np.concatenate((program.leq_rows, program.eq_rows))
        self._lower, self._lhs, self._rhs = _bounds(program, self._rows, a.shape[1])
        self._cols = np.arange(program.num_vars, dtype=np.int32)
        self._tight: Optional[int] = None

    def solve(self, c, j: int) -> LpSolution:
        c = _frozen(c)
        n, m = self._a.shape
        if c.shape != (n,) or not 0 <= j < m:
            raise InputError("objective or column does not fit the matrix")
        return self._substituted(c, j) if self._exact else self._warm(c, j)

    def _substituted(self, c: np.ndarray, j: int) -> LpSolution:
        a = self._a
        diff = (np.delete(a, j, axis=1) - a[:, [j]]).T
        rows = np.concatenate((diff, np.zeros((len(diff), 1))), axis=1)
        return solve(LinearProgram(c, rows, np.ones((1, len(a) + 1))), exact=True)

    def _warm(self, c: np.ndarray, j: int) -> LpSolution:
        global _holder
        _check_finite(c)
        core, highs, _, options = _highs()
        objective = np.append(c, 0.0)  # t has no cost
        lhs, rhs = self._lhs, self._rhs
        previous, self._tight = self._tight, j
        if previous is not None:
            lhs[previous] = -np.inf
        lhs[j] = rhs[j]
        if _holder is self:
            statuses = (
                highs.changeColsCost(len(objective), self._cols, -objective),
                highs.changeRowBounds(previous, -np.inf, rhs[previous]),
                highs.changeRowBounds(j, rhs[j], rhs[j]),
            )
            if core.HighsStatus.kError in statuses:
                _holder = None
                raise LpNumericalError("HiGHS rejected a change to the model")
            try:
                sol = _run(core, highs, objective, self._lower, lhs, rhs)
            except LpNumericalError:
                if highs.getModelStatus() != core.HighsModelStatus.kUnknown:
                    raise
                sol = self._cold(core, highs, options, objective)
        else:
            sol = self._cold(core, highs, options, objective)
        del sol.values[len(c):]
        return sol

    def _cold(self, core, highs, options, objective: np.ndarray) -> LpSolution:
        """Pass the column options and the envelope model, with the current tight row; solve from no basis."""
        global _holder
        _holder = None
        _pass_model(core, highs, options, -objective, self._lower, self._lhs, self._rhs, self._rows[:, :-1])
        _holder = self
        return _run(core, highs, objective, self._lower, self._lhs, self._rhs)


# ---------------------------------------------------------------------------
# exact simplex backend

_PIVOT_GUARD = 200_000

# The tableau keeps each row as a list of integer numerators, rhs last, over
# one positive denominator, so entry j is row[j] / den; the objective row z,
# reduced costs then -(objective value), is kept the same way as the last
# row. Every sign test and ratio comparison of the simplex is a test on
# ints, and the pivots are those of a Fraction tableau on the same values.


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _solve_exact(lp: LinearProgram) -> LpSolution:
    obj = [v.as_integer_ratio() for v in lp.objective.tolist()]

    # Column layout: a variable >= 0 keeps one column, a free one is the
    # difference of two; cols_of_var[i] lists (column, multiplier) pairs.
    cols_of_var: list[list[tuple[int, int]]] = []
    ncols = 0
    for i in range(lp.num_vars):
        cols_of_var.append([(ncols, 1), (ncols + 1, -1)] if i in lp.free else [(ncols, 1)])
        ncols += len(cols_of_var[-1])
    width = ncols + len(lp.leq_rows)  # one slack per <= row

    def int_row(numbers, slack):
        # numbers[:-1] . x <= numbers[-1] (with a slack) or == numbers[-1],
        # over the columns, put over one common denominator and
        # sign-normalized to a right-hand side >= 0
        nz = [(a.as_integer_ratio(), cols) for a, cols in zip(numbers, cols_of_var) if a != 0]
        rp, rq = numbers[-1].as_integer_ratio()
        den = lcm(rq, *(q for (_, q), _ in nz))
        row = [0] * (width + 1)
        for (p, q), cols in nz:
            for j, mult in cols:
                row[j] = mult * p * (den // q)
        row[-1] = rp * (den // rq)
        if slack is not None:
            row[slack] = den
        if row[-1] < 0:
            row = [-v for v in row]
        return _reduced(row, den)

    # Phase 1 starts from the row's own slack when it kept coefficient +1,
    # otherwise from an artificial variable.
    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for r, numbers in enumerate(lp.leq_rows.tolist() + lp.eq_rows.tolist()):
        slack = ncols + r if r < len(lp.leq_rows) else None
        row, den = int_row(numbers, slack)
        rows.append(row)
        dens.append(den)
        basis.append(slack if slack is not None and row[slack] > 0 else -1)
    nart = basis.count(-1)
    if nart:
        art = width
        for r, row in enumerate(rows):
            ext = [0] * nart
            if basis[r] < 0:
                ext[art - width] = dens[r]
                basis[r] = art
                art += 1
            rows[r] = row[:-1] + ext + row[-1:]
        rows.append([0] * width + [1] * nart + [0])
        dens.append(1)
        _price(rows, dens, basis)
        status = _bland(rows, dens, basis)
        if status == UNBOUNDED:  # pragma: no cover - phase 1 is bounded below
            raise LpNumericalError("phase-1 reported unbounded")
        z = rows.pop()
        dens.pop()
        if z[-1] < 0:
            return LpSolution(INFEASIBLE)
        _evict_artificials(rows, dens, basis, width)
        keep = [r for r, b in enumerate(basis) if b < width]
        rows = [rows[r][:width] + rows[r][-1:] for r in keep]
        dens = [dens[r] for r in keep]
        basis = [basis[r] for r in keep]

    # Phase 2 minimizes the negated objective.
    den = lcm(*(q for _, q in obj))
    row = [0] * (width + 1)
    for (p, q), cols in zip(obj, cols_of_var):
        for j, mult in cols:
            row[j] = -mult * p * (den // q)
    rows.append(row)
    dens.append(den)
    _price(rows, dens, basis)
    if _bland(rows, dens, basis) == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    # Answers as exact (numerator, denominator) pairs; int / int rounds
    # correctly, as float(Fraction) does, so no Fraction is needed. The two
    # columns of a free variable are negatives, so at most one is basic.
    value = {b: (rows[r][-1], dens[r]) for r, b in enumerate(basis)}
    exact_x = [
        next(((mult * value[j][0], value[j][1]) for j, mult in cols if j in value), (0, 1))
        for cols in cols_of_var
    ]
    obj_num, obj_den = 0, 1
    for (p, q), (num, den) in zip(obj, exact_x):
        if p != 0 and num != 0:
            obj_num, obj_den = obj_num * q * den + p * num * obj_den, obj_den * q * den
    try:
        return LpSolution(OPTIMAL, [num / den for num, den in exact_x], obj_num / obj_den)
    except OverflowError:
        raise LpNumericalError("the exact optimum has no float value") from None


def _price(rows, dens, basis):
    # Turn the cost row (last) into reduced costs: eliminate every basic
    # column, each of which is a unit column of the constraint rows.
    for r, b in enumerate(basis):
        if rows[-1][b] != 0:
            _eliminate(rows, dens, len(rows) - 1, rows[r], b)


def _bland(rows, dens, basis):
    """Minimize with Bland's rule; mutates the tableau in place."""
    for _ in range(_PIVOT_GUARD):
        z = rows[-1]
        enter = next((j for j in range(len(z) - 1) if z[j] < 0), None)
        if enter is None:
            return OPTIMAL
        # ratio test: rhs/a compared by cross-multiplying (a > 0 and the
        # row denominator cancels); ties go to the smaller basis index
        leave = None
        for r, b in enumerate(basis):
            row = rows[r]
            a = row[enter]
            if a > 0:
                if leave is not None:
                    t = row[-1] * best_a - best_rhs * a
                    if t > 0 or (t == 0 and b > basis[leave]):
                        continue
                leave, best_a, best_rhs = r, a, row[-1]
        if leave is None:
            return UNBOUNDED
        _pivot(rows, dens, leave, enter)
        basis[leave] = enter
    raise LpNumericalError("simplex pivot guard exceeded")


def _pivot(rows, dens, r, c):
    # Dividing row r by its entry at c cancels its denominator; the sign
    # goes into the numerators so that the new denominator is positive.
    prow = rows[r]
    if prow[c] < 0:
        prow = [-v for v in prow]
    prow, pd = _reduced(prow, prow[c])
    rows[r], dens[r] = prow, pd
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            _eliminate(rows, dens, i, prow, c)


def _eliminate(rows, dens, i, prow, c):
    # rows[i] -= (its entry at c) * prow, where prow over the denominator
    # prow[c] has entry 1 at c.
    f = rows[i][c]
    pd = prow[c]
    rows[i], dens[i] = _reduced([a * pd - f * b for a, b in zip(rows[i], prow)], dens[i] * pd)


def _evict_artificials(rows, dens, basis, width):
    for r, b in enumerate(basis):
        if b >= width:
            col = next((j for j in range(width) if rows[r][j] != 0), None)
            if col is not None:
                _pivot(rows, dens, r, col)
                basis[r] = col
