import ast
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stacksolve import bimatrix, gen, lp, permmatch
from stacksolve import incentive as inc
from stacksolve.bimatrix import FOLLOWER, LEADER, BimatrixGame, solve_maximin, solve_stackelberg
from stacksolve.errors import InputError, LpNumericalError
from stacksolve.tolerances import LP_RESIDUAL

from . import oracles
from .instances import commit_instance, grid_instance
from .oracles import column_lp, lp_vertex_oracle, solve_exact_dense, solve_highs_linprog, unpruned_stackelberg


def two_var_lp(objective, rows):
    return lp.LinearProgram(objective=objective, leq_rows=[(*a, b) for a, b in rows])


@pytest.mark.parametrize("exact", [False, True])
def test_single_bound(exact):
    program = lp.LinearProgram(objective=(1.0,), leq_rows=[(1.0, 3.0)])
    sol = lp.solve(program, exact=exact)
    assert sol.is_optimal
    assert abs(sol.objective_value - 3.0) < 1e-9
    assert abs(sol.values[0] - 3.0) < 1e-9


@pytest.mark.parametrize("exact", [False, True])
def test_two_var_example_matches_vertex_enumeration(exact):
    # max x+y s.t. x+2y <= 4, 3x+y <= 6, x,y >= 0  ->  2.8 at (1.6, 1.2)
    rows = [((1, 2), 4), ((3, 1), 6), ((-1, 0), 0), ((0, -1), 0)]
    expected = lp_vertex_oracle((1, 1), rows)
    assert expected is not None and abs(expected[0] - 2.8) < 1e-12
    sol = lp.solve(two_var_lp((1, 1), [((1, 2), 4), ((3, 1), 6)]), exact=exact)
    assert sol.is_optimal
    assert abs(sol.objective_value - expected[0]) < 1e-8


@pytest.mark.parametrize("exact", [False, True])
def test_contradictory_bounds_infeasible(exact):
    program = lp.LinearProgram(objective=(1.0,), leq_rows=[(1.0, 1.0), (-1.0, -2.0)])
    sol = lp.solve(program, exact=exact)
    assert sol.status == lp.INFEASIBLE


@pytest.mark.parametrize("exact", [False, True])
def test_unbounded_reported(exact):
    program = lp.LinearProgram(objective=(1.0,))
    sol = lp.solve(program, exact=exact)
    assert sol.status == lp.UNBOUNDED


@pytest.mark.parametrize("exact", [False, True])
def test_equality_and_free_variable(exact):
    # max v s.t. v <= x, x = 1; v free
    program = lp.LinearProgram(
        objective=(0.0, 1.0),
        leq_rows=[(-1.0, 1.0, 0.0)],
        eq_rows=[(1.0, 0.0, 1.0)],
        free={1},
    )
    sol = lp.solve(program, exact=exact)
    assert sol.is_optimal
    assert abs(sol.objective_value - 1.0) < 1e-9


@pytest.mark.parametrize("exact", [False, True])
def test_upper_bounds_and_negative_lower(exact):
    # max x+y with x in [-2, -1], y in [0, 5], x+y <= 3: the bounds other
    # than y >= 0 are rows, and x is free
    program = lp.LinearProgram(
        objective=(1.0, 1.0),
        leq_rows=[(1.0, 1.0, 3.0), (1.0, 0.0, -1.0), (-1.0, 0.0, 2.0), (0.0, 1.0, 5.0)],
        free={0},
    )
    sol = lp.solve(program, exact=exact)
    assert sol.is_optimal
    assert abs(sol.objective_value - 3.0) < 1e-8
    assert abs(sol.values[0] - (-1.0)) < 1e-8
    assert abs(sol.values[1] - 4.0) < 1e-8


@pytest.mark.parametrize("exact", [False, True])
def test_random_two_var_lps_match_vertex_oracle(exact):
    rng = random.Random(20260810)
    for trial in range(20):
        rows = [((1, 0), rng.uniform(1, 5)), ((0, 1), rng.uniform(1, 5)),
                ((-1, 0), 0), ((0, -1), 0)]
        for _ in range(rng.randrange(1, 4)):
            a = (rng.uniform(-1, 2), rng.uniform(-1, 2))
            rows.append((a, rng.uniform(0.5, 4)))
        objective = (rng.uniform(-1, 2), rng.uniform(-1, 2))
        expected = lp_vertex_oracle(objective, rows)
        program = two_var_lp(objective, rows[:2] + rows[4:])
        sol = lp.solve(program, exact=exact)
        assert expected is not None
        assert sol.is_optimal
        assert abs(sol.objective_value - expected[0]) < 1e-8, f"trial {trial}"


def test_optimal_solution_satisfies_all_rows():
    rng = random.Random(7)
    for _ in range(10):
        rows = [((1, 1), rng.uniform(2, 4)), ((1, -1), rng.uniform(0.5, 2)), ((0.3, 1.7), rng.uniform(1, 3))]
        program = two_var_lp((1, 0.5), rows)
        for exact in (False, True):
            sol = lp.solve(program, exact=exact)
            assert sol.is_optimal
            for *coeffs, rhs in program.leq_rows.tolist():
                assert sum(c * v for c, v in zip(coeffs, sol.values)) <= rhs + 1e-8
            assert abs(sol.objective_value - sum(o * v for o, v in zip(program.objective, sol.values))) < 1e-8


def test_redundant_constraint_keeps_objective():
    program = two_var_lp((1, 1), [((1, 2), 4), ((3, 1), 6)])
    base = lp.solve(program, exact=True)
    padded = lp.solve(program.with_leq_row((1.0, 1.0), 100.0), exact=True)
    assert abs(base.objective_value - padded.objective_value) < 1e-8


def test_vacuous_oracle_equals_plain_solve():
    program = two_var_lp((1, 1), [((1, 2), 4), ((3, 1), 6)])
    sol = lp.solve_with_generation(program, lambda values: None, max_rounds=10)
    plain = lp.solve(program)
    assert sol.is_optimal
    assert abs(sol.objective_value - plain.objective_value) < 1e-10


def test_generation_matches_materialized_constraints():
    # Oracle view of {x+2y<=4, 3x+y<=6, x+y<=2.5}: report the most violated row.
    rows = [((1.0, 2.0), 4.0), ((3.0, 1.0), 6.0), ((1.0, 1.0), 2.5)]
    base = two_var_lp((1, 1), [((1, 0), 50), ((0, 1), 50)])

    def oracle(values):
        worst = None
        for coeffs, rhs in rows:
            violation = sum(c * v for c, v in zip(coeffs, values)) - rhs
            if worst is None or violation > worst.violation:
                worst = lp.Cut(tuple(coeffs), rhs, violation)
        return worst if worst.violation > 0 else None

    generated = lp.solve_with_generation(base, oracle, max_rounds=10, exact=True)
    materialized = lp.solve(two_var_lp((1, 1), rows), exact=True)
    assert generated.is_optimal
    assert abs(generated.objective_value - materialized.objective_value) < 1e-8


def test_generation_propagates_infeasible_base():
    base = lp.LinearProgram(objective=(1.0,), leq_rows=[(1.0, 1.0), (-1.0, -2.0)])
    sol = lp.solve_with_generation(base, lambda values: None, max_rounds=10)
    assert sol.status == lp.INFEASIBLE


def test_generation_round_limit():
    base = two_var_lp((1, 1), [((1, 1), 10)])

    def oracle(values):
        # keeps shaving the optimum, so the loop can never settle
        total = values[0] + values[1]
        return lp.Cut((1.0, 1.0), 0.9 * total, 0.1 * total)

    with pytest.raises(lp.GenerationLimitError):
        lp.solve_with_generation(base, oracle, max_rounds=5)


def test_rejects_bad_shapes():
    bad = [
        dict(objective=()),
        dict(objective=(1.0,), leq_rows=[(1.0, 2.0, 0.0)]),
        dict(objective=(1.0,), leq_rows=[(1.0,)]),
        dict(objective=(1.0,), eq_rows=[(1.0, 2.0, 0.0)]),
        dict(objective=(1.0, 1.0), eq_rows=[(1.0, 2.0, 0.0), (1.0, 0.0)]),
        # a row is one flat sequence, not a (coefficients, rhs) pair
        dict(objective=(1.0,), leq_rows=[((1.0,), 0.0)]),
        dict(objective=(1.0,), free={1}),
    ]
    for fields in bad:
        with pytest.raises(InputError):
            lp.LinearProgram(**fields)


# the columns (1, 2) and (3, 1): column 0 is on their envelope where
# x1 >= 2 x0, column 1 where x1 <= 2 x0
MATRIX = np.array([[1.0, 3.0], [2.0, 1.0]])


@pytest.mark.parametrize("exact", [False, True])
def test_tight_row_lps_take_a_matrix_and_return_x(exact):
    columns = lp.TightRowLps(MATRIX, exact)
    for j, x in ((0, [1 / 3, 2 / 3]), (1, [1.0, 0.0])):
        sol = columns.solve((1.0, 0.0), j)
        assert sol.is_optimal and sol.values == pytest.approx(x)
    # an objective of the wrong length, or a column out of range
    for c, j in (((1.0, 1.0, 0.0), 0), ((1.0,), 0), ((1.0, 1.0), 2), ((1.0, 1.0), -1)):
        with pytest.raises(InputError, match="does not fit"):
            columns.solve(c, j)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InputError, match="finite"):
            lp.TightRowLps(np.where(MATRIX == 3.0, bad, MATRIX), exact)
    with pytest.raises(InputError, match="n x m"):
        lp.TightRowLps(MATRIX[0], exact)


def test_with_leq_row_leaves_the_base_lp_unchanged_and_arrays_are_read_only():
    rows = np.array([(1.0, 2.0, 4.0)])
    base = lp.LinearProgram(objective=(1.0, 1.0), leq_rows=rows, eq_rows=[(1.0, -1.0, 0.0)])
    rows[0, 0] = 9.0  # the LP holds its own copy
    grown = base.with_leq_row((3.0, 1.0), 6.0)
    assert base.leq_rows.tolist() == [[1.0, 2.0, 4.0]]
    assert grown.leq_rows.tolist() == [[1.0, 2.0, 4.0], [3.0, 1.0, 6.0]]
    assert grown.eq_rows.tolist() == base.eq_rows.tolist() and grown.num_vars == 2
    for program in (base, grown):
        for array in (program.objective, program.leq_rows, program.eq_rows):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


# ---------------------------------------------------------------------------
# the integer-row exact backend against the dense Fraction tableau


def outcome(solver, program):
    # float.hex tells -0.0 from 0.0 and prints NaN, so equal bits <=> equal
    # hex. A backend failure is an outcome too: an optimum beyond the float
    # range (tiny float coefficients can make one) raises LpNumericalError in
    # lp and OverflowError in the dense tableau.
    try:
        sol = solver(program)
    except (LpNumericalError, OverflowError):
        return "failed"
    return sol.status, [v.hex() for v in sol.values], sol.objective_value.hex()


def exact(program):
    return lp.solve(program, exact=True)


def with_pivots(program):
    """The outcomes of the exact backend and of the dense tableau, each with
    the (row, column) of every pivot it took, evictions of artificials
    included. Equal bits do not prove equal pivots."""
    runs = []
    for solver, module, name in ((exact, lp, "_pivot"), (solve_exact_dense, oracles, "_dense_pivot")):
        pivots = []
        pivot = getattr(module, name)

        def record(*args, pivot=pivot, pivots=pivots):
            pivots.append(args[-2:])
            pivot(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, record)
            runs.append((outcome(solver, program), pivots))
    return runs


@st.composite
def exact_lps(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        number = st.integers(-3, 3)
    else:
        number = st.floats(-1e3, 1e3, allow_nan=False)
    vector = st.lists(number, min_size=n, max_size=n).map(tuple)
    # right-hand sides of 0 make degenerate vertices
    row = st.tuples(vector, st.one_of(st.just(0), number)).map(lambda r: (*r[0], r[1]))
    eq_rows = draw(st.lists(row, max_size=2))
    if eq_rows and draw(st.booleans()):
        # a repeated equality leaves an artificial basic at level 0, which
        # phase 1 must evict or drop
        eq_rows.append(eq_rows[0])
    leq_rows = draw(st.lists(row, max_size=4))
    # bounds other than x_i >= 0 are rows: x_i <= b or -x_i <= -b
    for i in range(n):
        for sign in draw(st.lists(st.sampled_from([1, -1]), max_size=2, unique=True)):
            unit = tuple(sign * int(k == i) for k in range(n))
            leq_rows.append((*unit, draw(number)))
    # with a zero objective every feasible vertex is optimal, so the point
    # returned is the one where the phase-1 pivots stop
    objective = draw(st.one_of(vector, st.just((0,) * n)))
    return lp.LinearProgram(
        objective=objective,
        leq_rows=leq_rows,
        eq_rows=eq_rows,
        free=draw(st.frozensets(st.integers(0, n - 1))),
    )


# A ray of optima (max x2 subject to x0 >= 0, x1 + x2 = 2 x0, 0 <= x2 <= 2;
# x0 and x1 free): which optimum comes back rests on the ratio test's tie
# rule.
TIE_RULE_LP = lp.LinearProgram(
    objective=(0.0, 0.0, 1.0),
    leq_rows=[(-1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 2.0)],
    eq_rows=[(-2.0, 1.0, 1.0, 0.0)],
    free={0, 1},
)


# x1 = 1/2.2e-309 is the only feasible value, and no float holds it.
FLOAT_OVERFLOW_LP = lp.LinearProgram(
    objective=(0.0, 0.0),
    eq_rows=[(0.0, -2.225073858507203e-309, -1.0)],
)


@settings(max_examples=600)
@example(TIE_RULE_LP)
@example(FLOAT_OVERFLOW_LP)
@given(exact_lps())
def test_exact_backend_matches_dense_tableau_bit_for_bit(program):
    ours, dense = with_pivots(program)
    assert ours == dense


def test_exact_backend_matches_dense_tableau_on_solver_lps(monkeypatch):
    programs = []
    solve = lp.solve

    def capture(program, exact=False):
        if exact:
            programs.append(program)
        return solve(program, exact=exact)

    monkeypatch.setattr(lp, "solve", capture)
    for seed in range(3):
        game, _ = permmatch.explicit_bimatrix(gen.random_permmatch(seed, 8, 7))
        unpruned_stackelberg(game, exact=True)  # every column's LP, not only those left by the pruning
        solve_maximin(game, LEADER, exact=True)
        solve_maximin(game, FOLLOWER, exact=True)
    for k in range(1, 5):
        inc.solve_stackelberg_incentive(commit_instance(k))
    inc.solve_stackelberg_incentive(grid_instance(random.Random(0), 3, 3))
    monkeypatch.setattr(lp, "solve", solve)

    assert len(programs) > 30
    for program in programs:
        ours, dense = with_pivots(program)
        assert ours == dense


@pytest.mark.parametrize("number", [np.int64, Fraction, float])
def test_exact_backend_takes_any_exact_number_type(number):
    # the LP converts every number to float once, when it is built, so
    # numpy integers and Fractions reach the backends as floats
    program = lp.LinearProgram(
        objective=(number(1), number(1)),
        leq_rows=[
            (number(1), number(2), number(4)),
            (number(3), number(1), number(6)),
            (number(1), number(0), number(5)),
            (number(0), number(-1), number(1)),
        ],
        free={1},
    )
    sol = lp.solve(program, exact=True)
    assert outcome(exact, program) == outcome(solve_exact_dense, program)
    assert sol.values == [1.6, 1.2]


# ---------------------------------------------------------------------------
# a backend failure is never reported as infeasibility


def test_pivot_guard_raises_numerical_error(monkeypatch):
    monkeypatch.setattr(lp, "_PIVOT_GUARD", 0)
    program = two_var_lp((1, 1), [((1, 2), 4), ((3, 1), 6)])
    with pytest.raises(LpNumericalError):
        lp.solve(program, exact=True)
    with pytest.raises(LpNumericalError):
        lp.solve_with_generation(program, lambda values: None, max_rounds=10, exact=True)



def test_exact_optimum_beyond_float_range_is_a_numerical_error():
    with pytest.raises(LpNumericalError, match="float"):
        lp.solve(FLOAT_OVERFLOW_LP, exact=True)
    with pytest.raises(OverflowError):
        solve_exact_dense(FLOAT_OVERFLOW_LP)
    assert lp.solve(FLOAT_OVERFLOW_LP).status == lp.INFEASIBLE


# ---------------------------------------------------------------------------
# non-finite numbers are malformed input on both backends


def lp_with(position, value):
    # max x + y s.t. x + 2y <= 4, x - y = 0, x >= 0, y free: optimal at x = y = 4/3
    fields = dict(
        objective=(1.0, 1.0),
        leq_rows=[(1.0, 2.0, 4.0)],
        eq_rows=[(1.0, -1.0, 0.0)],
        free={1},
    )
    if position == "objective":
        fields["objective"] = (1.0, value)
    elif position == "objective, infeasible":
        fields["objective"] = (value, 1.0)
        fields["leq_rows"] += [(0.0, 1.0, -6.0)]
    elif position == "leq coefficient":
        fields["leq_rows"] = [(value, 2.0, 4.0)]
    elif position == "leq rhs":
        fields["leq_rows"] = [(1.0, 2.0, value)]
    elif position == "eq coefficient":
        fields["eq_rows"] = [(1.0, value, 0.0)]
    else:
        fields["eq_rows"] = [(1.0, -1.0, value)]
    return lp.LinearProgram(**fields)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "position",
    ["objective", "objective, infeasible", "leq coefficient", "leq rhs",
     "eq coefficient", "eq rhs"],
)
def test_non_finite_numbers_are_input_errors(exact, value, position):
    program = lp_with(position, value)
    with pytest.raises(InputError, match="finite"):
        lp.solve(program, exact=exact)


@pytest.mark.parametrize("exact", [False, True])
def test_non_finite_base_lp_is_feasible(exact):
    sol = lp.solve(lp_with("objective", 1.0), exact=exact)
    assert sol.is_optimal and abs(sol.objective_value - 8 / 3) < 1e-9
    assert lp.solve(lp_with("objective, infeasible", 1.0), exact=exact).status == lp.INFEASIBLE


# ---------------------------------------------------------------------------
# HiGHS through its bindings against HiGHS through linprog


def highs(program):
    return lp.solve(program)


# Infeasible by 5e-8: HiGHS's default primal tolerance, 1e-7, would call
# x = 0 optimal.
PRIMAL_TOLERANCE_LP = lp.LinearProgram(objective=(1.0,), leq_rows=[(1.0, 0.0), (-1.0, -5e-8)])


@settings(max_examples=600)
@example(TIE_RULE_LP)
@example(FLOAT_OVERFLOW_LP)
@example(PRIMAL_TOLERANCE_LP)
@given(exact_lps())
def test_highs_matches_linprog_bit_for_bit(program):
    assert outcome(highs, program) == outcome(solve_highs_linprog, program)


def option_values(options):
    """Every option a ``HighsOptions`` holds, by name."""
    names = [n for n in dir(options) if not n.startswith("_")]
    return {n: getattr(options, n) for n in names if not callable(getattr(options, n))}


def passed_to_highs(solver, program):
    """The options that ``solver`` hands HiGHS, and the model HiGHS then holds, as plain values.

    ``lp`` keeps one solver object and the ``TightRowLps`` whose model it
    holds, so both are dropped before and after the recording one is made.
    """
    core = lp._highs()[0]
    seen = []

    def floats(values):
        return [float(v).hex() for v in values]

    class Recording(core._Highs):
        def passOptions(self, options):
            seen.append(option_values(options))
            return super().passOptions(options)

        def passModel(self, *model):
            status = super().passModel(*model)
            held = self.getLp()
            matrix = held.a_matrix_
            # the one field that differs: [] after linprog, every variable
            # kContinuous after lp; neither makes a variable integer
            assert all(v == core.HighsVarType.kContinuous for v in held.integrality_)
            seen.append((
                held.num_col_, held.num_row_, held.sense_, held.offset_,
                matrix.format_, matrix.num_col_, matrix.num_row_,
                list(matrix.start_), list(matrix.index_), floats(matrix.value_),
                floats(held.col_cost_), floats(held.col_lower_), floats(held.col_upper_),
                floats(held.row_lower_), floats(held.row_upper_),
            ))
            return status

    lp._highs.cache_clear()
    lp._holder = None
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_Highs", Recording)
            outcome(solver, program)
    finally:
        lp._highs.cache_clear()
        lp._holder = None
    return seen


@settings(max_examples=200)
@example(TIE_RULE_LP)
@example(PRIMAL_TOLERANCE_LP)
@given(exact_lps())
def test_highs_gets_linprogs_options_and_model(program):
    # HiGHS drops explicit zeros, and its "choose" strategy picks the dual
    # simplex too, so neither slip shows in the answers: compare the inputs
    sent = passed_to_highs(highs, program)
    assert len(sent) == 2
    assert sent == passed_to_highs(solve_highs_linprog, program)
    # a cold solve between two column LPs of one sequence passes linprog's
    # options again, and the sequence its own before its model
    recorded = passed_to_highs(between_column_lps, program)
    assert len(recorded) == 6 and recorded[2:4] == sent
    assert recorded[0] == recorded[4] == {**sent[0], "simplex_scale_strategy": 0}


def between_column_lps(program):
    """``lp.solve(program)`` between two column LPs of one ``TightRowLps`` sequence."""
    columns = lp.TightRowLps(MATRIX)
    columns.solve((1.0, 1.0), 0)
    try:
        return lp.solve(program)
    finally:
        columns.solve((1.0, 1.0), 1)


def test_column_models_get_linprogs_options_unscaled():
    # the one option that differs, by the name the private bindings and
    # HiGHS itself give it
    core, _, linprog, columns = lp._highs()
    highs = core._Highs()
    assert highs.passOptions(columns) == core.HighsStatus.kOk
    assert highs.getOptionValue("simplex_scale_strategy") == (core.HighsStatus.kOk, 0)
    linprog, columns = option_values(linprog), option_values(columns)
    assert {name for name in linprog if linprog[name] != columns[name]} == {"simplex_scale_strategy"}
    assert columns["simplex_scale_strategy"] == 0 != linprog["simplex_scale_strategy"]


def test_primal_tolerance_lp_is_infeasible():
    assert lp.solve(PRIMAL_TOLERANCE_LP).status == lp.INFEASIBLE


def test_one_reused_solver_matches_a_fresh_one_per_lp():
    # lp passes every model to one HiGHS object; linprog makes one per call.
    # Same-shaped LPs back to back, then other statuses, forwards and back.
    game = gen.random_bimatrix(3, 12, 12)
    programs = [column_lp(game, j) for j in range(game.m)] + [
        lp.LinearProgram(objective=(1.0,), leq_rows=[(1.0, 1.0), (-1.0, -2.0)]),  # infeasible
        lp.LinearProgram(objective=(1.0, 1.0), leq_rows=[(1.0, -1.0, 1.0)]),  # unbounded
        TIE_RULE_LP,  # free variables
        PRIMAL_TOLERANCE_LP,
    ]
    expected = [outcome(solve_highs_linprog, program) for program in programs]
    statuses = Counter(o[0] for o in expected)
    assert statuses[lp.OPTIMAL] and statuses[lp.INFEASIBLE] and statuses[lp.UNBOUNDED]
    assert [outcome(highs, program) for program in programs] == expected
    assert [outcome(highs, program) for program in reversed(programs)] == expected[::-1]
    # with a column LP of one unscaled sequence before, between and after
    # the cold solves, each re-passing the column model
    columns = lp.TightRowLps(bimatrix._unit(game.u_follower)[0])
    interleaved = []
    for j, program in enumerate(programs + [programs[0]]):
        columns.solve(game.u_leader[:, j % game.m], j % game.m)
        interleaved.append(outcome(highs, program))
    assert interleaved == expected + expected[:1]


def test_highs_matches_linprog_on_solver_lps(monkeypatch):
    programs = []
    solve = lp.solve

    def capture(program, exact=False):
        if not exact:
            programs.append(program)
        return solve(program, exact=exact)

    monkeypatch.setattr(lp, "solve", capture)
    games = []
    for seed in range(12):
        games.append(gen.random_bimatrix(seed, 8, 8))
        base = gen.random_bimatrix(100 + seed, 8, 8, 0.0, 4.0)
        games.append(BimatrixGame(np.floor(base.u_leader), np.floor(base.u_follower)))
        games.append(gen.random_bimatrix(200 + seed, 4, 12))
        games.append(gen.random_bimatrix(300 + seed, 12, 4))
    for game in games:
        solve_stackelberg(game)
        solve_maximin(game, LEADER)
        solve_maximin(game, FOLLOWER)
    # the incentive solver's cut loops, run here on HiGHS
    for inst in [commit_instance(k) for k in range(1, 5)] + [grid_instance(random.Random(0), 3, 3)]:
        lp.solve_with_generation(inc._incentive_lp(inst), inc.separation_oracle_for(inst), max_rounds=100)
    monkeypatch.setattr(lp, "solve", solve)
    # HiGHS re-solves the column LPs warm, so they are passed here cold:
    # thin games leave some columns no best response, so infeasible LPs
    for game in games[2::4] + games[3::4]:
        programs += [column_lp(game, j) for j in range(game.m)]

    outcomes = [outcome(highs, program) for program in programs]
    assert Counter(o[0] for o in outcomes)[lp.INFEASIBLE] > 0
    assert outcomes == [outcome(solve_highs_linprog, program) for program in programs]


# ---------------------------------------------------------------------------
# HiGHS's bindings, loaded from their file without scipy.optimize

# Solves one LP through lp, then checks in the same process that lp and
# scipy.optimize hold one bindings module and that linprog gives lp's bits.
SOLVE_ONE_LP = """
from stacksolve import lp
program = lp.LinearProgram((1.0, 1.0), ((1.0, 2.0, 4.0), (3.0, 1.0, 5.0)))
solution = lp.solve(program)
"""
SAME_MODULE_SAME_BITS = """
from scipy.optimize._highspy import _core
from tests.oracles import solve_highs_linprog
bits = lambda s: (s.status, [v.hex() for v in s.values], s.objective_value.hex())
print(lp._highs()[0] is _core, bits(solution) == bits(solve_highs_linprog(program)))
"""
LOAD_ORDERS = {
    "stacksolve first": (
        SOLVE_ONE_LP + "import sys\nassert 'scipy.optimize' not in sys.modules\nimport scipy.optimize\n"
    ),
    "scipy.optimize first": "import scipy.optimize\n" + SOLVE_ONE_LP,
}


@pytest.mark.parametrize("order", LOAD_ORDERS)
def test_both_load_orders_share_one_bindings_module(fresh_python, order):
    out = fresh_python("-c", LOAD_ORDERS[order] + SAME_MODULE_SAME_BITS)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True"]


def test_loader_picks_the_file_scipy_imports(fresh_python):
    ours = fresh_python("-c", "from stacksolve import lp; print(lp._highs()[0].__file__)")
    scipys = fresh_python("-c", "import scipy.optimize._highspy._core as core; print(core.__file__)")
    assert ours.returncode == scipys.returncode == 0, ours.stderr + scipys.stderr
    assert ours.stdout == scipys.stdout != ""


def scipy_imports(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that import scipy or one of its modules."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_only_lp_touches_scipy():
    # importing scipy.optimize costs 0.4 s or more: one stray import brings
    # that back into every CLI run, so lp loads the bindings and nothing else
    # names scipy
    package = Path(lp.__file__).parent
    mentions = [p.name for p in sorted(package.rglob("*.py")) if p.name != "lp.py" and "scipy" in p.read_text()]
    assert not mentions, f"only lp.py may touch scipy: {mentions}"
    assert not scipy_imports(ast.parse(Path(lp.__file__).read_text())), "lp.py imports scipy"


def test_guard_flags_scipy_imports():
    source = "import numpy, scipy.optimize\nfrom scipy import sparse\nfrom .scipy import x\nimport scipyish\n"
    assert scipy_imports(ast.parse(source)) == [1, 2]


# ---------------------------------------------------------------------------
# HiGHS statuses: only an optimum, infeasibility or unboundedness is an answer


@pytest.mark.parametrize(
    "status, pass_model, row_shift, warm",
    [pytest.param(status, pass_model, 0.0, False, id=f"{status}-{pass_model}") for status, pass_model in
     [("kUnboundedOrInfeasible", True), ("kIterationLimit", True), ("kModelError", True), ("kOptimal", False)]]
    + [pytest.param("kUnboundedOrInfeasible", True, 0.0, True, id="warm-kUnboundedOrInfeasible"),
       pytest.param("kIterationLimit", True, 0.0, True, id="warm-kIterationLimit"),
       # an "optimum" on a re-solve that breaks a <= row, or the tight row from below
       pytest.param("kOptimal", True, 2 * LP_RESIDUAL, True, id="warm-kOptimal-above"),
       pytest.param("kOptimal", True, -2 * LP_RESIDUAL, True, id="warm-kOptimal-below")],
)
def test_highs_failures_raise_numerical_error(fake_highs, status, pass_model, row_shift, warm):
    fake_highs(status, pass_model=pass_model, row_shift=row_shift, warm=warm)
    program = two_var_lp((1, 1), [((1, 2), 4), ((3, 1), 6)])
    if warm:
        # the first solve passes the model; the fault comes on the re-solve
        columns = lp.TightRowLps(MATRIX)
        assert columns.solve((1.0, 1.0), 0).status == lp.INFEASIBLE
        with pytest.raises(LpNumericalError):
            columns.solve((1.0, 1.0), 1)
        return
    with pytest.raises(LpNumericalError):
        lp.solve(program)
    with pytest.raises(LpNumericalError):
        lp.solve_with_generation(program, lambda values: None, max_rounds=10)


def test_a_warm_resolve_that_ends_unknown_runs_once_more_from_no_basis(fake_highs, monkeypatch):
    runs = []
    real_run = lp._run

    def counting_run(*args):
        runs.append(args)
        return real_run(*args)

    monkeypatch.setattr(lp, "_run", counting_run)
    # the stub reports kInfeasible on the first solve after each passModel
    fake_highs("kUnknown", warm=True)
    columns = lp.TightRowLps(MATRIX)
    assert columns.solve((1.0, 1.0), 0).status == lp.INFEASIBLE
    assert columns.solve((1.0, 1.0), 1).status == lp.INFEASIBLE
    assert len(runs) == 3
    # a first solve is not run again, and a re-solve that fails twice raises
    fake_highs("kUnknown")
    columns = lp.TightRowLps(MATRIX)
    for j, total in ((0, 4), (1, 6)):
        with pytest.raises(LpNumericalError, match="Unknown"):
            columns.solve((1.0, 1.0), j)
        assert len(runs) == total


@pytest.mark.parametrize("status, answer", [("kInfeasible", lp.INFEASIBLE), ("kUnbounded", lp.UNBOUNDED)])
def test_highs_answers_map_to_statuses(fake_highs, status, answer):
    fake_highs(status)
    assert lp.solve(two_var_lp((1, 1), [((1, 2), 4)])).status == answer


def test_highs_optimum_breaking_a_row_is_a_numerical_error(fake_highs):
    program = two_var_lp((1, 1), [((1, 2), 4), ((3, 1), 6)])
    fake_highs("kOptimal", row_shift=LP_RESIDUAL / 2)
    assert lp.solve(program).is_optimal
    fake_highs("kOptimal", row_shift=2 * LP_RESIDUAL)
    with pytest.raises(LpNumericalError, match="breaks"):
        lp.solve(program)
    # an equality row broken from below
    fake_highs("kOptimal", row_shift=-2 * LP_RESIDUAL)
    with pytest.raises(LpNumericalError, match="breaks"):
        lp.solve(lp_with("objective", 1.0))


def test_highs_rejecting_its_options_is_a_numerical_error(fake_highs, monkeypatch):
    fake_highs("kOptimal")
    core, highs, _, _ = lp._highs()
    monkeypatch.setattr(highs, "passOptions", lambda options: core.HighsStatus.kError)
    with pytest.raises(LpNumericalError, match="options"):
        lp.solve(two_var_lp((1, 1), [((1, 2), 4)]))
    with pytest.raises(LpNumericalError, match="options"):
        lp.TightRowLps(MATRIX).solve((1.0, 1.0), 0)
