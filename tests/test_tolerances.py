"""The tolerance policy of ``stacksolve.tolerances``, and guards on the package source.

Every float margin of the package is a named constant of that one module,
and every strategy type checks its probabilities with
``tolerances.probabilities``. The guard below scans the package source so
that a margin cannot creep back in as a literal or a per-module constant.
A second guard keeps recursion out of the solver modules: a search that
recurses once per edge or vertex fails with ``RecursionError`` before its
``SizeLimitError`` can apply. A third keeps test-only code out of them:
a public function or class that no package or benchmark code uses, and
that the package does not export, belongs in ``tests/oracles.py``.
A fourth keeps the payoff scale in one place, ``bimatrix._unit``, a
fifth the options HiGHS runs with in ``lp.py``, and a sixth the
leader-favouring tie window in ``tolerances.near_best``. The package
resolves its public names on first access; ``EXPORTS`` pins them.
"""

import ast
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksolve import gen
from stacksolve import permmatch as pm
from stacksolve import tolerances
from stacksolve.bimatrix import MixedStrategy
from stacksolve.errors import InputError
from stacksolve.incentive import IncentiveLeaderStrategy

from .oracles import leader_best_response_pm

PACKAGE = Path(tolerances.__file__).parent
# 1e-9 style literals, and negative powers of two such as 2.0**-53
FLOAT_LITERAL = re.compile(r"\d(\.\d*)?e-\d+|\b2(\.0*)?\s*\*\*\s*-")
# rounding to a literal count of decimals, such as round(v, 9)
ROUND_DIGITS = re.compile(r"\bround\([^()]*(\([^()]*\)[^()]*)*,\s*\d+\s*\)")
TOLERANCE_CONSTANT = re.compile(r"^\w+_(TOL|MARGIN)\s*(:[^=]*)?=(?!=)")
TOL = tolerances.PROBABILITY


def policy_violations(source: str) -> list[str]:
    """Lines holding a float-tolerance literal, a ``round`` to literal digits, or a ``*_TOL``/``*_MARGIN`` constant."""
    return [
        f"{number}: {line.strip()}"
        for number, line in enumerate(source.splitlines(), 1)
        if FLOAT_LITERAL.search(line) or ROUND_DIGITS.search(line) or TOLERANCE_CONSTANT.match(line)
    ]


def test_every_margin_lives_in_the_tolerances_module():
    found = [
        f"{path.name}:{hit}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for hit in policy_violations(path.read_text())
    ]
    assert not found, "name these margins in stacksolve/tolerances.py:\n" + "\n".join(found)


def test_guard_flags_literals_and_constants():
    assert policy_violations("WEIGHT_TOL = 1e-9\n") == ["1: WEIGHT_TOL = 1e-9"]
    assert policy_violations("RELAXED_MARGIN: float = EQUAL\n") != []
    assert policy_violations("    if p > 1e-12:\n") != []
    assert policy_violations("    verifies V >= -W - 1.5e-7.\n") != []
    assert policy_violations("    margin = 4 * (n + 2) * (2.0**-53 * big_m + 2.0**-1074)\n") != []
    assert policy_violations("    tiny = 2 ** -1074\n") != []
    assert policy_violations("key = round(v, 9)\n") == ["1: key = round(v, 9)"]
    assert policy_violations("key = tuple(round(float(v), 12) for v in xs)\n") != []
    assert policy_violations("if a.TIE_TOL == b:\nkey = round(v, SAME_DIGITS)\nk = round(1.0 / eps)\n") == []
    assert policy_violations("return (self.next_u64() >> 11) / 2.0**53\nx = 12**-1\n") == []


# the CLI is left out: its ``_round_sig`` recursion follows the report's fixed nesting
SOLVER_MODULES = ("bimatrix", "discretize", "incentive", "lp", "permmatch")


def self_calls(source: str) -> list[str]:
    """Functions, nested closures included, that call themselves by bare name."""
    return [
        f"{node.lineno}: {node.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]


def test_no_solver_module_recurses():
    found = [
        f"{name}.py:{hit}"
        for name in SOLVER_MODULES
        for hit in self_calls((PACKAGE / f"{name}.py").read_text())
    ]
    assert not found, "run these searches on an explicit stack:\n" + "\n".join(found)


def scale_decisions(source: str, module: str) -> list[str]:
    """Uses of ``frexp`` outside ``bimatrix._unit``, and every use of ``errstate``."""
    return [
        f"{node.lineno}: {name}"
        for stmt in ast.parse(source).body
        for node in ast.walk(stmt)
        for name in [node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)]
        if name == "errstate"
        or name == "frexp" and (module, getattr(stmt, "name", None)) != ("bimatrix", "_unit")
    ]


def test_payoffs_are_scaled_in_one_place():
    # every bimatrix solver takes its payoff scale from ``bimatrix._unit``
    found = [
        f"{name}.py:{hit}"
        for name in SOLVER_MODULES
        for hit in scale_decisions((PACKAGE / f"{name}.py").read_text(), name)
    ]
    assert not found, "scale payoffs through bimatrix._unit:\n" + "\n".join(found)


def test_scale_guard_flags_frexp_outside_unit_and_errstate():
    unit = "def _unit(a):\n    return math.frexp(a)[1]\n"
    assert scale_decisions(unit, "bimatrix") == []
    assert scale_decisions(unit, "lp") == ["2: frexp"]
    assert scale_decisions("def f(a):\n    e = frexp(a)\n", "bimatrix") == ["2: frexp"]
    assert scale_decisions("with np.errstate(over='ignore'):\n    pass\n", "bimatrix") == ["1: errstate"]


def lp_assemblies(source: str) -> list[str]:
    """Every place ``source`` names ``LinearProgram``: a name, an attribute or an import."""
    return [
        f"{node.lineno}: LinearProgram"
        for node in ast.walk(ast.parse(source))
        if "LinearProgram" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    ]


def test_lps_are_assembled_in_lp_and_incentive_only():
    # one LP assembly path: the bimatrix LPs come from ``lp.envelope`` and
    # ``lp.TightRowLps``, the cut loops from ``incentive``
    found = [
        f"{name}.py:{hit}"
        for name in SOLVER_MODULES
        if name not in ("lp", "incentive")
        for hit in lp_assemblies((PACKAGE / f"{name}.py").read_text())
    ]
    assert not found, "build LPs in lp.py or incentive.py:\n" + "\n".join(found)


def test_assembly_guard_flags_every_way_to_name_linear_program():
    assert lp_assemblies("p = lp.LinearProgram(c)\n") == ["1: LinearProgram"]
    assert lp_assemblies("from .lp import LinearProgram as LP\n") == ["1: LinearProgram"]
    assert lp_assemblies("x = 1\ndef f() -> LinearProgram:\n    pass\n") == ["2: LinearProgram"]
    assert lp_assemblies("s = lp.solve(lp.envelope(a))\n# a LinearProgram\nt = 'LinearProgram'\n") == []


HIGHS_OPTION_CALLS = ("HighsOptions", "passOptions", "setOptionValue")


def highs_option_uses(source: str) -> list[str]:
    """Every place ``source`` names a way to set HiGHS options: a name, an attribute or an import."""
    return [
        f"{node.lineno}: {name}"
        for node in ast.walk(ast.parse(source))
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if name in HIGHS_OPTION_CALLS
    ]


def test_highs_options_are_set_in_lp_only():
    # ``lp._highs`` makes both option sets: linprog's for ``solve``, and the
    # column models' copy with scaling off; an option set anywhere else
    # would part ``solve`` from linprog's bits unseen
    found = [
        f"{path.name}:{hit}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "lp.py"
        for hit in highs_option_uses(path.read_text())
    ]
    assert not found, "set HiGHS options in lp.py only:\n" + "\n".join(found)


def test_option_guard_flags_every_way_to_name_an_option_call():
    assert highs_option_uses("options = core.HighsOptions()\n") == ["1: HighsOptions"]
    assert highs_option_uses("x = 1\nhighs.passOptions(o)\n") == ["2: passOptions"]
    assert highs_option_uses("h.setOptionValue('presolve', 'off')\n") == ["1: setOptionValue"]
    assert highs_option_uses("from _core import HighsOptions as O\n") == ["1: HighsOptions"]
    assert highs_option_uses("def passOptions(self, o):\n    pass\n") == ["1: passOptions"]
    assert highs_option_uses("h.getOptionValue('presolve')\n# passOptions\nt = 'HighsOptions'\n") == []


def test_recursion_guard_flags_self_calls_by_bare_name():
    assert self_calls("def f(n):\n    return f(n - 1) if n else 0\n") == ["1: f"]
    assert self_calls("def outer():\n    def walk(v):\n        walk(v)\n    walk(0)\n") == ["2: walk"]
    assert self_calls("def f(x):\n    return g(x) + x.f()\n") == []


def _referenced(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement refers to by ``Name`` or ``Attribute``, less its own name."""
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names.discard(stmt.name)
    return names


def unused_entry_points(modules: list[str], users: list[str], init: str) -> list[str]:
    """Top-level functions and classes of ``modules``, private ones too, that nothing uses.

    A name is used when code in ``modules`` or ``users``, outside the name's
    own ``def`` or ``class``, refers to it, or when ``init`` imports it.
    """
    trees = [ast.parse(source) for source in modules + users]
    used = {name for tree in trees for stmt in tree.body for name in _referenced(stmt)}
    imports = (node for node in ast.walk(ast.parse(init)) if isinstance(node, ast.ImportFrom))
    used |= {alias.name for node in imports for alias in node.names}
    defined = {
        stmt.name
        for tree in trees[: len(modules)]
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    return sorted(defined - used)


def test_no_test_only_entry_points_in_the_solver_modules():
    modules = [(PACKAGE / f"{name}.py").read_text() for name in SOLVER_MODULES]
    users = [path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.stem not in SOLVER_MODULES]
    users += [path.read_text() for path in sorted((PACKAGE.parents[1] / "stackbench").glob("*.py"))]
    found = unused_entry_points(modules, users, (PACKAGE / "__init__.py").read_text())
    assert not found, "move these to tests/oracles.py, or export them:\n" + "\n".join(found)


# the package's public names, by the module that defines them
EXPORTS = {
    "bimatrix": "BimatrixGame MixedStrategy StackelbergSolution expected_utilities follower_best_response "
    "solve_maximin solve_nash_support_enumeration solve_stackelberg",
    "discretize": "ApproxSolution GridParams discretized_se verify_eps_approx",
    "errors": "InputError LpNumericalError SizeLimitError ToolkitError",
    "incentive": "ExplicitFamily IncentiveInstance IncentiveLeaderStrategy IncentiveSolution PathFamily "
    "check_incentive_lower_bound follower_best_set solve_stackelberg_incentive",
    "lp": "LinearProgram LpSolution solve solve_with_generation",
    "permmatch": "Matching Multigraph PermMatchInstance ReductionMap ThreeDMInstance TwoPointLeaderStrategy "
    "approx_solve bruteforce_pitim extract_3dm greedy_pair lift_3dm max_weight_matching reduce_3dm",
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_the_package_exports_its_names_on_first_access(module):
    import importlib

    import stacksolve

    for name in EXPORTS[module].split():
        namespace: dict = {}
        exec(f"from stacksolve import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"stacksolve.{module}"), name)
        assert name in dir(stacksolve)


def test_the_package_has_no_other_names():
    import stacksolve

    with pytest.raises(AttributeError, match="no attribute 'greedy'"):
        stacksolve.greedy
    with pytest.raises(ImportError):
        exec("from stacksolve import solve_everything", {})
    assert stacksolve.__version__ == "0.1.0"


def test_entry_point_guard_flags_only_unused_names():
    module = (
        "def used(): pass\ndef exported(): pass\ndef lonely():\n    return lonely\nclass Helper: pass\n"
        "def _private(): pass\ndef _called(): pass\ndef caller():\n    return _called()\n"
    )
    init = "from .m import exported\n"
    users = ["x = m.used()\nm.caller()\n"]
    assert unused_entry_points([module], users, init) == ["Helper", "_private", "lonely"]
    assert unused_entry_points([module + "_HELPER = Helper\n"], users, init) == ["_private", "lonely"]


def tie_windows(source: str) -> list[str]:
    """Every ``max(...) - EQUAL`` and ``<expr>.max() - EQUAL``: a tie window written out."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and isinstance(node.left, ast.Call)
        and "max" in (getattr(node.left.func, "id", None), getattr(node.left.func, "attr", None))
        and "EQUAL" in (getattr(node.right, "id", None), getattr(node.right, "attr", None))
    ]


def test_tie_windows_are_measured_in_tolerances_only():
    # one leader-favouring tie rule: ``near_best`` and ``leader_favoured``
    found = [
        f"{path.name}:{hit}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for hit in tie_windows(path.read_text())
    ]
    assert not found, "use tolerances.near_best or tolerances.leader_favoured:\n" + "\n".join(found)


def test_tie_window_guard_flags_max_less_equal():
    assert tie_windows("tied = vals >= vals.max() - EQUAL\n") == ["1: vals.max() - EQUAL"]
    assert tie_windows("x = 1\nbest = max(a, key=f) - tolerances.EQUAL\n") == ["2: max(a, key=f) - tolerances.EQUAL"]
    assert tie_windows("ok = v >= np.max(v) - EQUAL\n") == ["1: np.max(v) - EQUAL"]
    assert tie_windows("a = v.max() - NEAR_BEST\nb = best - EQUAL\nc = max(v) + EQUAL\nd = min(v) - EQUAL\n") == []


# values 0.4e-9 apart around a few bases, so that near ties chain across EQUAL
_NEAR = st.builds(lambda base, k: base + k * 4e-10, st.sampled_from([-1.0, 0.0, 0.5]), st.integers(0, 6))


def _winners(follower, leader):
    """The strong Stackelberg tie rule by enumeration: every candidate it lets win, in order."""
    tied = [i for i, f in enumerate(follower) if f >= max(follower) - tolerances.EQUAL]
    best = max(leader[i] for i in tied)
    return [i for i in tied if leader[i] >= best - tolerances.EQUAL]


@settings(max_examples=500)
@given(st.lists(st.tuples(_NEAR, _NEAR), min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_leader_favoured_is_the_rule_by_enumeration_in_any_order(pairs, rng):
    follower, leader = map(list, zip(*pairs))
    winners = _winners(follower, leader)
    assert tolerances.leader_favoured(follower, leader) == winners[0]
    assert tolerances.near_best(follower).tolist() == [f >= max(follower) - tolerances.EQUAL for f in follower]
    order = rng.sample(range(len(pairs)), len(pairs))
    assert order[tolerances.leader_favoured([follower[i] for i in order], [leader[i] for i in order])] in winners


def _widest_accepted_sum(side: float) -> float:
    """The float farthest from 1 on ``side`` (+1 or -1) that is within TOL of 1."""
    v = 1.0 + side * TOL
    while abs(v - 1.0) > TOL:
        v = math.nextafter(v, 1.0)
    while abs(math.nextafter(v, side * math.inf) - 1.0) <= TOL:
        v = math.nextafter(v, side * math.inf)
    return v


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_probabilities_sum_at_the_tolerance(side):
    edge = _widest_accepted_sum(side)
    assert tolerances.probabilities([edge], "p") == (edge,)
    assert tolerances.probabilities([0.5, edge - 0.5], "p") == (0.5, edge - 0.5)
    with pytest.raises(InputError, match="sum to 1"):
        tolerances.probabilities([math.nextafter(edge, side * math.inf)], "p")


def test_probabilities_clamps_tiny_negatives_only():
    assert tolerances.probabilities([-TOL / 2, 1.0 + TOL / 2], "p") == (0.0, 1.0 + TOL / 2)
    assert tolerances.probabilities([0, 1], "p") == (0.0, 1.0)
    with pytest.raises(InputError, match="negative"):
        tolerances.probabilities([-2 * TOL, 1.0 + 2 * TOL], "p")


def test_probabilities_rejects_empty_and_non_finite_vectors():
    with pytest.raises(InputError, match="sum to 1"):
        tolerances.probabilities([], "p")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="non-finite"):
            tolerances.probabilities([bad, 1.0], "p")


INSTANCE = gen.random_permmatch(3, 8, 10)
MATCHINGS = pm.enumerate_matchings(INSTANCE.graph)


def _raw_pairs(probs):
    return [(MATCHINGS[1 + i], p) for i, p in enumerate(probs)]


STRATEGY_TYPES = {
    "MixedStrategy": lambda probs: MixedStrategy(tuple(probs)),
    "IncentiveLeaderStrategy": lambda probs: IncentiveLeaderStrategy({f"e{i}": p for i, p in enumerate(probs)}, {}),
    "TwoPointLeaderStrategy": lambda probs: pm.TwoPointLeaderStrategy(tuple(_raw_pairs(probs))),
    "follower_best_response_pm": lambda probs: pm.follower_best_response_pm(INSTANCE, _raw_pairs(probs)),
    "leader_best_response_pm": lambda probs: leader_best_response_pm(INSTANCE, _raw_pairs(probs)),
}


@pytest.mark.parametrize("build", STRATEGY_TYPES.values(), ids=STRATEGY_TYPES.keys())
@pytest.mark.parametrize(
    "probs",
    [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf), (1.5, -0.5), (0.5, 0.4), ()],
    ids=["nan", "inf", "-inf", "negative", "short-sum", "empty"],
)
def test_every_strategy_type_rejects_what_probabilities_rejects(build, probs):
    with pytest.raises(InputError):
        build(probs)


@pytest.mark.parametrize("build", STRATEGY_TYPES.values(), ids=STRATEGY_TYPES.keys())
def test_every_strategy_type_takes_twelve_digit_probabilities(build):
    # 0.166666666667 six times sums to 1 + 2e-12, as the CLI prints a uniform mixture
    build([float(f"{1 / 6:.12g}")] * 6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_incentives_must_be_finite_and_nonnegative(bad):
    with pytest.raises(InputError, match="incentives"):
        IncentiveLeaderStrategy({"a": 1.0}, {("a",): bad})
