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
A fourth keeps the payoff scale in one place, ``bimatrix._unit``.
"""

import ast
import math
import re
from pathlib import Path

import pytest

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
TOLERANCE_CONSTANT = re.compile(r"^\w+_(TOL|MARGIN)\s*(:[^=]*)?=(?!=)")
TOL = tolerances.PROBABILITY


def policy_violations(source: str) -> list[str]:
    """Lines holding a float-tolerance literal or defining a ``*_TOL``/``*_MARGIN`` constant."""
    return [
        f"{number}: {line.strip()}"
        for number, line in enumerate(source.splitlines(), 1)
        if FLOAT_LITERAL.search(line) or TOLERANCE_CONSTANT.match(line)
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
    assert policy_violations("if a.TIE_TOL == b:\nkey = round(v, 9)\n") == []
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
    """Top-level public functions and classes of ``modules`` that nothing uses.

    A name is used when code in ``modules`` or ``users``, outside the name's
    own ``def`` or ``class``, refers to it, or when ``init`` imports it.
    """
    trees = [ast.parse(source) for source in modules + users]
    used = {name for tree in trees for stmt in tree.body for name in _referenced(stmt)}
    imports = (node for node in ast.walk(ast.parse(init)) if isinstance(node, ast.ImportFrom))
    used |= {alias.name for node in imports for alias in node.names}
    public = {
        stmt.name
        for tree in trees[: len(modules)]
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    }
    return sorted(public - used)


def test_no_test_only_entry_points_in_the_solver_modules():
    modules = [(PACKAGE / f"{name}.py").read_text() for name in SOLVER_MODULES]
    users = [path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.stem not in SOLVER_MODULES]
    users += [path.read_text() for path in sorted((PACKAGE.parents[1] / "stackbench").glob("*.py"))]
    found = unused_entry_points(modules, users, (PACKAGE / "__init__.py").read_text())
    assert not found, "move these to tests/oracles.py, or export them:\n" + "\n".join(found)


def test_entry_point_guard_flags_only_unused_names():
    module = "def used(): pass\ndef exported(): pass\ndef lonely():\n    return lonely\nclass Helper: pass\n"
    init = "from .m import exported\n"
    assert unused_entry_points([module], ["x = m.used()\n"], init) == ["Helper", "lonely"]
    assert unused_entry_points([module + "_HELPER = Helper\n"], ["used()\n"], init) == ["lonely"]


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
