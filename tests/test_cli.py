import importlib.util
import json
import re
from pathlib import Path

import pytest

from stacksolve import bimatrix, cli, discretize, lp, permmatch
from stacksolve.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_LIMIT, EXIT_OK, main
from stacksolve.gen import SplitMix64, random_3dm, random_bimatrix, random_permmatch

from .instances import BOUNDARY_GAMES, commit_instance
from stacksolve.incentive import incentive_to_json_obj
from stacksolve.permmatch import permmatch_to_json_obj

APPENDIX = {
    "n": 2,
    "m": 2,
    "uL": [[1.0, 10.0], [0.0, 5.0]],
    "uF": [[1.0, 0.0], [0.0, 1.0]],
}

SWAP_PM = {
    "vertices": 4,
    "edges": [{"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 2, "v": 3}],
    "pi": [1, 0],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_solve_bimatrix_se(tmp_path, capsys):
    path = write(tmp_path, "game.json", APPENDIX)
    code, report = run_cli(capsys, "solve-bimatrix", "-i", path, "--method", "se")
    assert code == EXIT_OK
    assert report["result"]["leaderPayoff"] == pytest.approx(7.5)
    assert report["result"]["followerResponse"] == 1
    assert report["toolkitVersion"] == "0.1.0"
    assert report["instanceDigest"].startswith("sha256:")


def test_solve_bimatrix_maximin(tmp_path, capsys):
    path = write(tmp_path, "game.json", APPENDIX)
    code, report = run_cli(capsys, "solve-bimatrix", "-i", path, "--method", "maximin")
    assert code == EXIT_OK
    assert report["result"]["realizedLeaderPayoff"] == pytest.approx(5.5)
    assert report["result"]["leaderGuarantee"] == pytest.approx(1.0)


def test_solve_bimatrix_nash(tmp_path, capsys):
    path = write(tmp_path, "game.json", APPENDIX)
    code, report = run_cli(capsys, "solve-bimatrix", "-i", path, "--method", "nash")
    assert code == EXIT_OK
    pure = [e for e in report["result"]["equilibria"] if e["leader"] == [1.0, 0.0]]
    assert pure and pure[0]["leaderPayoff"] == pytest.approx(1.0)


def test_discretize_alias(tmp_path, capsys):
    path = write(tmp_path, "game.json", APPENDIX)
    code, report = run_cli(capsys, "discretize", "-i", path, "--eps", "1/100")
    assert code == EXIT_OK
    result = report["result"]
    assert result["slack"] == pytest.approx(0.4)
    assert result["leaderPayoff"] >= 7.5 - 0.4 - 1e-9
    assert result["gridSize"] == 101


def test_discretize_reports_the_points_scored(tmp_path, capsys):
    game = random_bimatrix(0, 4, 8)
    path = write(tmp_path, "game.json", game.to_json_obj())
    code, report = run_cli(capsys, "discretize", "-i", path, "--eps", "1/60")
    assert code == EXIT_OK
    result = report["result"]
    assert result["gridSize"] == 39711
    want = discretize.discretized_se(game, discretize.GridParams(60))
    assert result["candidatesExamined"] == want.candidates_examined
    assert 1 <= result["candidatesExamined"] < result["gridSize"] / 10


@pytest.mark.parametrize("name", BOUNDARY_GAMES)
def test_discretize_accepts_a_response_on_the_slack_boundary(tmp_path, capsys, name):
    # the CLI rechecks the response with almost_best_responses, which must
    # admit what the scan admitted on the slack boundary
    game, eps = BOUNDARY_GAMES[name]
    path = write(tmp_path, "game.json", game.to_json_obj())
    code, report = run_cli(capsys, "discretize", "-i", path, "--eps", eps)
    assert code == EXIT_OK
    assert report["result"]["followerResponse"] == 3


@pytest.mark.parametrize("eps", ["abc", "1/0", "2/3", "0", ""])
def test_discretize_bad_eps_exit_2(tmp_path, capsys, eps):
    # the pm commands take the same eps, below 1/3; an empty one is no default
    path = write(tmp_path, "game.json", APPENDIX)
    assert main(["solve-bimatrix", "-i", path, "--method", "discretize", "--eps", eps]) == EXIT_INPUT
    pm = write(tmp_path, "pm.json", SWAP_PM)
    for action in ("approx", "bestresponse"):
        assert main(["pm", action, "-i", pm, "--eps", eps]) == EXIT_INPUT
    capsys.readouterr()


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve-bimatrix", "-i", str(path)]) == EXIT_INPUT
    capsys.readouterr()


def test_missing_file_exit_2(capsys):
    assert main(["solve-bimatrix", "-i", "/nonexistent.json"]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize(
    "game",
    [
        {"n": 2, "m": 2, "uL": [[1.0, 0.0], [0.0, 1.0]]},  # KeyError: no uF
        {"n": 2, "m": 2, "uL": 3, "uF": None},  # TypeError
        [1, 2],  # TypeError: not an object
        {"n": 2, "m": 2, "uL": [[1.0], [0.0, 1.0]], "uF": [[1.0, 0.0], [0.0, 1.0]]},  # ValueError: ragged
    ],
)
def test_malformed_game_exit_2(tmp_path, capsys, game):
    path = write(tmp_path, "game.json", game)
    assert main(["solve-bimatrix", "-i", path]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_malformed_pm_strategy_exit_2(tmp_path, capsys):
    inst = write(tmp_path, "pm.json", SWAP_PM)
    strat = write(tmp_path, "strategy.json", {"support": [{"edges": [0]}]})
    assert main(["pm", "bestresponse", "-i", inst, "--strategy", strat]) == EXIT_INPUT
    capsys.readouterr()


def test_booleans_for_integers_exit_2(tmp_path, capsys):
    # true and false read as 1 and 0: this instance ran pm approx to exit 0
    pm = {**SWAP_PM, "edges": [{"id": 0, "u": True, "v": 2}, {"id": 1, "u": 0, "v": 3}], "pi": [1, False]}
    assert main(["pm", "approx", "-i", write(tmp_path, "pm.json", pm)]) == EXIT_INPUT
    assert "boolean" in capsys.readouterr().err
    strat = {"support": [{"edges": [True], "prob": 1.0}]}
    argv = ["pm", "bestresponse", "-i", write(tmp_path, "swap.json", SWAP_PM)]
    assert main([*argv, "--strategy", write(tmp_path, "strategy.json", strat)]) == EXIT_INPUT
    assert "boolean" in capsys.readouterr().err


@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_follower_payoffs_near_the_float_limit_solve_quietly(tmp_path, fresh_python, exact):
    # valid input whose follower differences overflow the float range
    game = {"n": 2, "m": 2, "uL": [[1, 2], [3, 0]], "uF": [[1e308, -1e308], [0, 1]]}
    path = write(tmp_path, "game.json", game)
    out = fresh_python("-m", "stacksolve.cli", "solve-bimatrix", "--method", "se", *exact, "-i", path)
    assert (out.returncode, out.stderr) == (EXIT_OK, "")
    assert json.loads(out.stdout)["result"]["method"] == "se"


@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_maximin_of_follower_payoffs_near_the_float_limit_exits_0(tmp_path, fresh_python, exact):
    # the maximin LP runs at the unit scale: unscaled, HiGHS rejected the
    # +-1e308 rows, and the exact backend's rounding at that scale failed
    # the absolute guarantee check
    game = {"n": 2, "m": 2, "uL": [[1, 2], [3, 0]], "uF": [[1e308, -1e308], [0, 1]]}
    path = write(tmp_path, "game.json", game)
    out = fresh_python("-m", "stacksolve.cli", "solve-bimatrix", "--method", "maximin", *exact, "-i", path)
    assert (out.returncode, out.stderr) == (EXIT_OK, "")
    result = json.loads(out.stdout)["result"]
    assert result["leaderGuarantee"] == pytest.approx(1.5)
    # HiGHS reads the scaled row [0, 2^-1024] as zero: a valid guarantee below the optimum 0.5
    guarantee = result["followerGuarantee"]
    assert (guarantee == pytest.approx(0.5)) if exact else (0.0 <= guarantee <= 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e9, 1e12, 2.0**40])
@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_maximin_of_scaled_games_exits_0(tmp_path, capsys, scale, exact):
    # an absolute guarantee check failed on float rounding at these scales
    for seed in range(30):
        game = random_bimatrix(seed, 6, 6)
        obj = {**game.to_json_obj(), "uL": (game.u_leader * scale).tolist(), "uF": (game.u_follower * scale).tolist()}
        path = write(tmp_path, "game.json", obj)
        code = main(["solve-bimatrix", "--method", "maximin", *exact, "-i", path])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, ""), seed
        result = json.loads(out)["result"]
        assert result["leaderGuarantee"] <= result["realizedLeaderPayoff"] * (1 + 1e-9)


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_solver_bug_is_internal_not_input(tmp_path, capsys, monkeypatch, error):
    def broken(game, exact=False):
        raise error("raised inside the solver")

    monkeypatch.setattr(bimatrix, "solve_stackelberg", broken)
    path = write(tmp_path, "game.json", APPENDIX)
    assert main(["solve-bimatrix", "-i", path, "--method", "se"]) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_internal_error_without_a_message_names_its_type(tmp_path, capsys, monkeypatch):
    def broken(game, exact=False):
        raise MemoryError()

    monkeypatch.setattr(bimatrix, "solve_stackelberg", broken)
    path = write(tmp_path, "game.json", APPENDIX)
    assert main(["solve-bimatrix", "-i", path, "--method", "se"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: MemoryError\n"


@pytest.mark.parametrize(
    "status, row_shift, warm",
    [pytest.param(status, row_shift, warm, id=("warm-" if warm else "") + f"{status}-{row_shift}")
     for warm in (False, True)
     for status, row_shift in (("kOptimal", 1.0), ("kOptimal", -1.0), ("kUnboundedOrInfeasible", 0.0))],
)
def test_highs_failure_exits_1(tmp_path, capsys, fake_highs, status, row_shift, warm):
    # an "optimum" that breaks its rows, or no answer: a solver fault, not
    # input; with ``warm`` the first column is infeasible and the fault comes
    # on the second column's re-solve
    fake_highs(status, row_shift=row_shift, warm=warm)
    path = write(tmp_path, "game.json", APPENDIX)
    assert main(["solve-bimatrix", "--method", "se", "-i", path]) == EXIT_INTERNAL
    assert re.search("internal error: HiGHS (failed|reported an optimum that breaks)", capsys.readouterr().err)


def test_maximin_solves_two_lps(tmp_path, capsys, monkeypatch):
    calls = []
    real = lp.solve

    def counting(program, exact=False):
        calls.append(program)
        return real(program, exact=exact)

    monkeypatch.setattr(lp, "solve", counting)
    path = write(tmp_path, "game.json", APPENDIX)
    code, report = run_cli(capsys, "solve-bimatrix", "-i", path, "--method", "maximin")
    assert code == EXIT_OK
    assert len(calls) == 2
    assert report["result"]["followerGuarantee"] == pytest.approx(0.5)


def test_maximin_exact_solves_two_exact_lps(tmp_path, capsys, monkeypatch):
    backends = []
    real = lp.solve

    def counting(program, exact=False):
        backends.append(exact)
        return real(program, exact=exact)

    monkeypatch.setattr(lp, "solve", counting)
    path = write(tmp_path, "game.json", APPENDIX)
    code, report = run_cli(capsys, "solve-bimatrix", "-i", path, "--method", "maximin", "--exact")
    assert code == EXIT_OK
    assert backends == [True, True]
    assert report["result"]["leaderGuarantee"] == pytest.approx(1.0)
    assert report["result"]["followerGuarantee"] == pytest.approx(0.5)


def test_cli_import_does_not_load_scipy(fresh_python):
    out = fresh_python("-c", "import sys, stacksolve.cli; print('scipy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["stacksolve", "stacksolve.cli"])
def test_package_and_cli_imports_load_neither_numpy_nor_scipy(fresh_python, module):
    out = fresh_python("-c", f"import sys, {module}; print('numpy' in sys.modules, 'scipy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["pm", "approx", "-i", "{pm}"], False),
        (["pm", "bestresponse", "-i", "{pm}"], False),
        (["pm", "bestresponse", "-i", "{pm}", "--strategy", "{strategy}"], False),
        (["reduce", "3dm-to-pm", "-i", "{tdm}", "-o", "{out}"], False),
        (["gen", "random-pm", "--seed", "3"], False),
        (["gen", "random-3dm", "--seed", "3"], False),
        (["pm", "bruteforce", "-i", "{pm}"], True),
        (["gen", "random-bimatrix", "--seed", "3"], True),
    ],
    ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else str(v),
)
def test_only_the_commands_that_compute_with_numpy_load_it(tmp_path, fresh_python, argv, loads_numpy):
    strategy = {"support": [{"edges": [0], "prob": 0.4}, {"edges": [1], "prob": 0.6}]}
    tdm = {"nA": 2, "nB": 2, "nC": 2, "triples": [[0, 0, 0], [1, 1, 1], [0, 1, 1]]}
    files = {
        "pm": write(tmp_path, "pm.json", SWAP_PM),
        "strategy": write(tmp_path, "strategy.json", strategy),
        "tdm": write(tmp_path, "tdm.json", tdm),
        "out": str(tmp_path / "out.json"),
    }
    script = (
        "import sys\n"
        "from stacksolve.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    out = fresh_python("-c", script, *(arg.format(**files) for arg in argv))
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout.splitlines()[-1] == str(loads_numpy)


def cli_in_fresh_python(fresh_python, path, setup=""):
    """Run ``solve-bimatrix --method se`` on ``path`` in a new interpreter.

    ``setup`` runs after ``stacksolve.cli`` is imported, before the solve.
    The last stdout line tells whether HiGHS's bindings and ``scipy.optimize``
    were loaded.
    """
    return fresh_python(
        "-c",
        "import sys\n"
        "from stacksolve.cli import main\n"
        f"{setup}\n"
        f"code = main(['solve-bimatrix', '-i', {path!r}, '--method', 'se'])\n"
        "print(*(m in sys.modules for m in ('scipy.optimize._highspy._core', 'scipy.optimize')))\n"
        "sys.exit(code)\n",
    )


def test_numpy_is_imported_before_the_clock_starts(tmp_path, fresh_python):
    # the first clock reading starts wallTimeSeconds, so numpy's import is not timed
    clock = (
        "import time, types\n"
        "from stacksolve import cli\n"
        "def monotonic():\n"
        "    print('numpy' in sys.modules)\n"
        "    return time.monotonic()\n"
        "print('numpy' in sys.modules)\n"
        "cli.time = types.SimpleNamespace(monotonic=monotonic)"
    )
    out = cli_in_fresh_python(fresh_python, write(tmp_path, "game.json", APPENDIX), clock)
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout.splitlines()[:2] == ["False", "True"]


def test_highs_cli_solve_leaves_scipy_optimize_unloaded(tmp_path, fresh_python):
    out = cli_in_fresh_python(fresh_python, write(tmp_path, "game.json", APPENDIX))
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout.splitlines()[-1] == "True False"


def test_missing_highs_bindings_exit_1_naming_the_folder(tmp_path, fresh_python):
    # no extension suffix matches, as if scipy shipped no HiGHS bindings
    hide = "import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES = ['.missing']"
    out = cli_in_fresh_python(fresh_python, write(tmp_path, "game.json", APPENDIX), hide)
    assert out.returncode == EXIT_INTERNAL
    scipy = importlib.util.find_spec("scipy")
    folder = Path(scipy.submodule_search_locations[0], "optimize", "_highspy")
    assert "internal error" in out.stderr and str(folder) in out.stderr


def test_discretize_requires_eps(tmp_path, capsys):
    path = write(tmp_path, "game.json", APPENDIX)
    assert main(["solve-bimatrix", "-i", path, "--method", "discretize"]) == EXIT_INPUT
    capsys.readouterr()


def test_nash_size_limit_exit_3(tmp_path, capsys):
    big = {
        "n": 9,
        "m": 2,
        "uL": [[0.0, 0.0]] * 9,
        "uF": [[0.0, 0.0]] * 9,
    }
    path = write(tmp_path, "big.json", big)
    assert main(["solve-bimatrix", "-i", path, "--method", "nash"]) == EXIT_LIMIT
    capsys.readouterr()


def test_solve_incentive_commit(tmp_path, capsys):
    path = write(tmp_path, "inst.json", incentive_to_json_obj(commit_instance()))
    code, report = run_cli(capsys, "solve-incentive", "-i", path)
    assert code == EXIT_OK
    result = report["result"]
    assert result["leaderPayoff"] == pytest.approx(0.8)
    assert result["V"] == pytest.approx(0.2)
    assert result["W"] == pytest.approx(3.8)
    assert sorted(result["targetSet"]) == ["ab", "bt", "sa"]
    assert result["incentiveBoxExceeded"] is False
    assert result["x"]["sa"] == pytest.approx(0.4)


def test_solve_incentive_no_incentives(tmp_path, capsys):
    path = write(tmp_path, "inst.json", incentive_to_json_obj(commit_instance()))
    code, report = run_cli(capsys, "solve-incentive", "-i", path, "--no-incentives")
    assert code == EXIT_OK
    # finite parallel copies: the tie-everything strategy reaches 0.7
    assert report["result"]["leaderPayoff"] == pytest.approx(0.7)


def test_solve_incentive_no_incentives_on_81_paths(tmp_path, capsys):
    # k = 8 bypass copies give (k + 1)^2 = 81 columns; the column bounds leave one exact LP
    path = write(tmp_path, "inst.json", incentive_to_json_obj(commit_instance(8)))
    code, report = run_cli(capsys, "solve-incentive", "-i", path, "--no-incentives")
    assert code == EXIT_OK
    assert report["result"]["leaderPayoff"] == pytest.approx((0.6 * 8 + 1) / 9)


def test_solve_incentive_no_incentives_on_a_1500_vertex_chain(tmp_path, capsys):
    # one s-t path of 1,499 edges: the path enumeration must not hit Python's recursion depth
    n = 1500
    edges = [{"id": f"e{i:04d}", "u": i, "v": i + 1} for i in range(n - 1)]
    obj = {
        "elements": [{"id": e["id"], "c": -1.0, "C": 0.0} for e in edges],
        "family": {"type": "path", "vertices": n, "edges": edges, "source": 0, "sink": n - 1},
    }
    path = write(tmp_path, "chain.json", obj)
    code, report = run_cli(capsys, "solve-incentive", "-i", path, "--no-incentives")
    assert code == EXIT_OK
    assert report["result"]["leaderPayoff"] == 1.0


def test_solve_incentive_path_limit_exit_3(tmp_path, capsys):
    # 13 stages of two parallel edges: 8,192 s-t paths, more than the 4,096
    # that --no-incentives writes out
    edges = [{"id": f"e{v:02d}{k}", "u": v, "v": v + 1} for v in range(13) for k in "ab"]
    obj = {
        "elements": [{"id": e["id"], "c": -1.0, "C": 0.0} for e in edges],
        "family": {"type": "path", "vertices": 14, "edges": edges, "source": 0, "sink": 13},
    }
    path = write(tmp_path, "inst.json", obj)
    assert main(["solve-incentive", "-i", path, "--no-incentives"]) == EXIT_LIMIT
    assert "more than 4096 simple paths" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # the --path-limit option is gone
        main(["solve-incentive", "-i", path, "--no-incentives", "--path-limit", "3"])
    capsys.readouterr()


def test_solve_incentive_lp_fault_exits_1(tmp_path, capsys, monkeypatch):
    # a validated instance makes the incentive LP feasible and bounded, so a
    # non-optimal status is a solver fault, not malformed input
    monkeypatch.setattr(lp, "solve_with_generation", lambda *args, **kwargs: lp.LpSolution(lp.INFEASIBLE))
    path = write(tmp_path, "inst.json", incentive_to_json_obj(commit_instance()))
    assert main(["solve-incentive", "-i", path]) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_solve_incentive_pivot_guard_exits_1(tmp_path, capsys, monkeypatch):
    # a backend failure is an internal error, never infeasibility or bad input
    monkeypatch.setattr(lp, "_PIVOT_GUARD", 0)
    path = write(tmp_path, "inst.json", incentive_to_json_obj(commit_instance(1)))
    assert main(["solve-incentive", "-i", path]) == EXIT_INTERNAL
    assert "pivot guard" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("c", float("-inf")), ("C", float("inf")), ("C", float("nan"))])
def test_solve_incentive_non_finite_reward_exits_2(tmp_path, capsys, field, value):
    obj = incentive_to_json_obj(commit_instance(1))
    next(e for e in obj["elements"] if e["id"] == "sa")[field] = value
    path = write(tmp_path, "inst.json", obj)
    assert main(["solve-incentive", "-i", path]) == EXIT_INPUT
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("ids", [(1, "a"), (1, 2)], ids=["mixed", "integers"])
@pytest.mark.parametrize("flags", [(), ("--no-incentives",)], ids=["incentives", "no-incentives"])
def test_solve_incentive_non_string_ids_exit_2(tmp_path, capsys, ids, flags):
    obj = {
        "elements": [{"id": e, "c": 0.0, "C": 0.0} for e in ids],
        "family": {"type": "explicit", "sets": [[e] for e in ids]},
    }
    path = write(tmp_path, "inst.json", obj)
    assert main(["solve-incentive", "-i", path, *flags]) == EXIT_INPUT
    assert "element ids must be strings" in capsys.readouterr().err


def test_discretize_above_the_grid_cap_exit_3(tmp_path, capsys):
    game = {"n": 8, "m": 2, "uL": [[0.0, 0.0]] * 8, "uF": [[0.0, 0.0]] * 8}
    path = write(tmp_path, "game.json", game)
    assert main(["discretize", "-i", path, "--eps", "1/1000"]) == EXIT_LIMIT
    assert "above the cap" in capsys.readouterr().err


def test_pm_approx(tmp_path, capsys):
    path = write(tmp_path, "pm.json", SWAP_PM)
    code, report = run_cli(capsys, "pm", "approx", "-i", path, "--eps", "1/100")
    assert code == EXIT_OK
    result = report["result"]
    assert result["leaderPayoff"] == pytest.approx(2.0)
    assert result["greedyPair"]["sharedCount"] == 2
    assert result["seUpperBound"] == 8
    assert result["guaranteeFraction"] == pytest.approx((1 - 0.03) / 12)


def test_pm_approx_breaks_ties_for_the_leader_above_twelve_edges(tmp_path, fresh_python):
    # 13 edges; a best response without the leader-favouring tie-break gives 1.323333
    path = write(tmp_path, "pm.json", permmatch_to_json_obj(random_permmatch(0, 8, 13)))
    out = fresh_python("-m", "stacksolve.cli", "pm", "approx", "-i", path, "--eps", "1/100")
    assert out.returncode == EXIT_OK
    assert out.stderr == ""
    assert json.loads(out.stdout)["result"]["leaderPayoff"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("action", ["approx", "bestresponse"])
def test_pm_actions_take_1200_disjoint_edges(tmp_path, capsys, action):
    # a matcher recursing once per candidate exceeds Python's limit here
    edges = [{"id": i, "u": 2 * i, "v": 2 * i + 1} for i in range(1200)]
    path = write(tmp_path, "pm.json", {"vertices": 2400, "edges": edges, "pi": list(range(1200))})
    code, report = run_cli(capsys, "pm", action, "-i", path)
    assert code == EXIT_OK
    assert report["result"]["response"] == list(range(1200))


def test_pm_bruteforce(tmp_path, capsys):
    path = write(tmp_path, "pm.json", SWAP_PM)
    code, report = run_cli(capsys, "pm", "bruteforce", "-i", path)
    assert code == EXIT_OK
    assert report["result"]["stackelberg"]["leaderPayoff"] == pytest.approx(2.0)
    assert report["result"]["pitim"]["value"] == 2


def test_pm_bruteforce_takes_vertex_ids_near_2_62(tmp_path, capsys):
    # SWAP_PM with its vertices 0-3 renamed 2^62..2^62 + 3: the matchings
    # and the answer depend only on which edges share an end
    big = 2**62
    edges = [{"id": 0, "u": big, "v": big + 1}, {"id": 1, "u": big + 2, "v": big + 3}]
    results = []
    for obj in ({"vertices": big + 4, "edges": edges, "pi": [1, 0]}, SWAP_PM):
        code, report = run_cli(capsys, "pm", "bruteforce", "-i", write(tmp_path, "pm.json", obj))
        assert code == EXIT_OK
        results.append(report["result"])
    assert results[0] == results[1]


def test_pm_bruteforce_single_edge_identity(tmp_path, capsys):
    obj = {"vertices": 2, "edges": [{"id": 0, "u": 0, "v": 1}], "pi": [0]}
    path = write(tmp_path, "pm.json", obj)
    code, report = run_cli(capsys, "pm", "bruteforce", "-i", path)
    assert code == EXIT_OK
    assert report["result"]["pitim"]["value"] == 1


@pytest.mark.parametrize("seed", range(6))
def test_pm_bruteforce_pitim_is_bruteforce_pitims(tmp_path, capsys, seed):
    # read off the explicit game's diagonal, uL[i, i] = |M_i ∩ pi(M_i)|
    inst = random_permmatch(seed, 6, 4 + seed)
    code, report = run_cli(capsys, "pm", "bruteforce", "-i", write(tmp_path, "pm.json", permmatch_to_json_obj(inst)))
    assert code == EXIT_OK
    best, value = permmatch.bruteforce_pitim(inst)
    assert report["result"]["pitim"] == {"matching": sorted(best), "value": value}


def test_pm_bruteforce_limit(tmp_path, capsys):
    # 13 parallel edges have 14 matchings: only the explicit game's cap of
    # 1,280 matchings applies, not bruteforce_pitim's 12 edges
    obj = {
        "vertices": 2,
        "edges": [{"id": i, "u": 0, "v": 1} for i in range(13)],
        "pi": list(range(13)),
    }
    path = write(tmp_path, "pm.json", obj)
    code, report = run_cli(capsys, "pm", "bruteforce", "-i", path)
    assert code == EXIT_OK
    # the first best matching of enumerate_matchings, which leaves edges out first
    assert report["result"]["pitim"] == {"matching": [12], "value": 1}


def test_pm_bruteforce_on_eleven_disjoint_edges_exits_3(tmp_path, capsys):
    # 11 edges pass the 12-edge cap, but their 2,048 matchings pass the
    # explicit game's cap of 1,280; the exact solve took 9 s and 554 MB
    edges = [{"id": i, "u": 2 * i, "v": 2 * i + 1} for i in range(11)]
    path = write(tmp_path, "pm.json", {"vertices": 22, "edges": edges, "pi": list(range(11))})
    assert main(["pm", "bruteforce", "-i", path]) == EXIT_LIMIT
    assert "more than 1280 matchings" in capsys.readouterr().err


def test_pm_bestresponse_with_strategy_file(tmp_path, capsys):
    path = write(tmp_path, "pm.json", SWAP_PM)
    strat = write(tmp_path, "strat.json", {"support": [{"edges": [0], "prob": 1.0}]})
    code, report = run_cli(capsys, "pm", "bestresponse", "-i", path, "--strategy", strat)
    assert code == EXIT_OK
    # e1 carries no weight but helps the leader, so the tie-break adds it
    assert report["result"]["response"] == [0, 1]
    assert report["result"]["followerPayoff"] == pytest.approx(1.0)
    assert report["result"]["leaderPayoff"] == pytest.approx(1.0)


def test_pm_strategy_file_with_nan_probability_exit_2(tmp_path, capsys):
    path = write(tmp_path, "pm.json", SWAP_PM)
    # NaN on the empty matching reaches no edge weight, so only the
    # probability check can refuse it
    support = [{"edges": [], "prob": float("nan")}, {"edges": [0], "prob": 1.0}]
    strat = write(tmp_path, "strat.json", {"support": support})
    assert main(["pm", "bestresponse", "-i", path, "--strategy", strat]) == EXIT_INPUT
    assert "non-finite" in capsys.readouterr().err


def test_pm_strategy_file_takes_its_own_printed_probabilities(tmp_path, capsys):
    # a uniform mixture printed at 12 significant digits sums to 1 + 2e-12
    inst = random_permmatch(3, 8, 10)
    mixture = [(m, float(f"{1 / 6:.12g}")) for m in permmatch.enumerate_matchings(inst.graph)[:6]]
    path = write(tmp_path, "pm.json", permmatch_to_json_obj(inst))
    support = [{"edges": sorted(m), "prob": p} for m, p in mixture]
    strat = write(tmp_path, "strat.json", {"support": support})
    code, report = run_cli(capsys, "pm", "bestresponse", "-i", path, "--strategy", strat)
    assert code == EXIT_OK
    assert report["result"]["response"] == sorted(permmatch.follower_best_response_pm(inst, mixture)) == [7, 8, 9]


def test_reduce_roundtrip(tmp_path, capsys):
    tdm = {"nA": 2, "nB": 2, "nC": 2, "triples": [[0, 0, 0], [1, 1, 1]]}
    src = write(tmp_path, "tdm.json", tdm)
    out = str(tmp_path / "reduced.json")
    code, report = run_cli(capsys, "reduce", "3dm-to-pm", "-i", src, "-o", out)
    assert code == EXIT_OK
    assert report["result"]["edges"] == 4
    written = json.loads((tmp_path / "reduced.json").read_text())
    assert written["pi"] == [1, 0, 3, 2]
    sidecar = json.loads((tmp_path / "reduced.json.map.json").read_text())
    assert sidecar["perTriple"] == [[0, 1], [2, 3]]


def test_reduce_single_triple(tmp_path, capsys):
    src = write(tmp_path, "tdm.json", {"nA": 1, "nB": 1, "nC": 1, "triples": [[0, 0, 0]]})
    out = str(tmp_path / "r.json")
    code, report = run_cli(capsys, "reduce", "3dm-to-pm", "-i", src, "-o", out)
    assert code == EXIT_OK
    written = json.loads((tmp_path / "r.json").read_text())
    assert len(written["edges"]) == 2
    assert written["pi"] == [1, 0]


def test_reduce_invalid_triple_exit_2(tmp_path, capsys):
    src = write(tmp_path, "tdm.json", {"nA": 1, "nB": 1, "nC": 1, "triples": [[0, 0, 5]]})
    assert main(["reduce", "3dm-to-pm", "-i", src, "-o", str(tmp_path / "x.json")]) == EXIT_INPUT
    capsys.readouterr()


def with_entry(obj, path, value):
    """A deep copy of ``obj`` whose entry at ``path`` (keys and indices) is ``value``."""
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


TDM = {"nA": 2, "nB": 2, "nC": 2, "triples": [[0, 0, 0], [1, 1, 1]]}
COMMIT_1 = incentive_to_json_obj(commit_instance(1))


# Each value would truncate to a valid integer, so only the type check refuses it.
@pytest.mark.parametrize(
    "command, instance, strategy",
    [
        pytest.param(["pm", "approx"], with_entry(SWAP_PM, ("edges", 1, "v"), 3.7), None, id="pm edge endpoint"),
        pytest.param(["pm", "approx"], with_entry(SWAP_PM, ("pi", 0), 1.5), None, id="pm pi entry"),
        pytest.param(["pm", "bestresponse"], SWAP_PM, {"support": [{"edges": [0.9], "prob": 1.0}]}, id="strategy edge id"),
        pytest.param(["reduce", "3dm-to-pm"], with_entry(TDM, ("nC",), 2.5), None, id="3dm part size"),
        pytest.param(["reduce", "3dm-to-pm"], with_entry(TDM, ("triples", 1, 0), 1.9), None, id="3dm triple index"),
        pytest.param(["solve-incentive"], with_entry(COMMIT_1, ("family", "vertices"), 4.5), None, id="path vertices"),
        pytest.param(["solve-incentive"], with_entry(COMMIT_1, ("family", "source"), 0.5), None, id="path source"),
        pytest.param(["solve-incentive"], with_entry(COMMIT_1, ("family", "sink"), 3.2), None, id="path sink"),
        pytest.param(["solve-incentive"], with_entry(COMMIT_1, ("family", "edges", 0, "v"), 1.7), None, id="path endpoint"),
    ],
)
def test_fractional_integer_fields_exit_2(tmp_path, capsys, command, instance, strategy):
    argv = [*command, "-i", write(tmp_path, "in.json", instance), "-o", str(tmp_path / "out.json")]
    if strategy is not None:
        argv += ["--strategy", write(tmp_path, "strategy.json", strategy)]
    assert main(argv) == EXIT_INPUT
    assert "malformed input" in capsys.readouterr().err


EXPLICIT_AB = {
    "elements": [{"id": "a", "c": 0.5, "C": 1.0}, {"id": "b", "c": 0.5, "C": 1.0}],
    "family": {"type": "explicit", "sets": [["a", "b"], ["a"]]},
}
PM_STRATEGY = {"support": [{"edges": [0], "prob": 1.0}]}


# float() takes each value, as True, a numeric string, or an int it cannot
# convert (an internal error before the readers checked the type).
@pytest.mark.parametrize(
    "command, instance, strategy",
    [
        pytest.param(["solve-bimatrix"], {"n": 1, "m": 2, "uL": [[True, False]], "uF": [[False, True]]}, None, id="boolean payoffs"),
        pytest.param(["solve-bimatrix"], with_entry(APPENDIX, ("uL", 0, 0), "1"), None, id="string payoff"),
        pytest.param(["solve-bimatrix"], with_entry(APPENDIX, ("uF", 1, 0), 10**400), None, id="huge payoff"),
        pytest.param(["solve-incentive"], with_entry(COMMIT_1, ("elements", 0, "c"), "-0.5"), None, id="string c"),
        pytest.param(["solve-incentive"], with_entry(COMMIT_1, ("elements", 0, "C"), True), None, id="boolean C"),
        pytest.param(["solve-incentive"], with_entry(COMMIT_1, ("elements", 0, "c"), -(10**400)), None, id="huge c"),
        pytest.param(["solve-incentive"], with_entry(EXPLICIT_AB, ("family", "sets"), ["ab", "a"]), None, id="string sets"),
        pytest.param(["solve-incentive"], with_entry(EXPLICIT_AB, ("family", "sets"), [{"a": 1, "b": 1}]), None, id="object set"),
        pytest.param(["pm", "bestresponse"], SWAP_PM, with_entry(PM_STRATEGY, ("support", 0, "prob"), True), id="boolean prob"),
        pytest.param(["pm", "bestresponse"], SWAP_PM, with_entry(PM_STRATEGY, ("support", 0, "prob"), "1"), id="string prob"),
        pytest.param(["pm", "bestresponse"], SWAP_PM, with_entry(PM_STRATEGY, ("support", 0, "prob"), 10**400), id="huge prob"),
    ],
)
def test_non_numbers_and_non_lists_exit_2(tmp_path, capsys, command, instance, strategy):
    argv = [*command, "-i", write(tmp_path, "in.json", instance), "-o", str(tmp_path / "out.json")]
    if strategy is not None:
        argv += ["--strategy", write(tmp_path, "strategy.json", strategy)]
    assert main(argv) == EXIT_INPUT
    assert "malformed input" in capsys.readouterr().err


def test_gen_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["gen", "random-pm", "--seed", "7", "--vertices", "6", "--edges", "6", "-o", out1]) == EXIT_OK
    capsys.readouterr()
    assert main(["gen", "random-pm", "--seed", "7", "--vertices", "6", "--edges", "6", "-o", out2]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_gen_pm_bijection(tmp_path, capsys):
    out = str(tmp_path / "pm.json")
    assert main(["gen", "random-pm", "--seed", "3", "--vertices", "5", "--edges", "6", "-o", out]) == EXIT_OK
    capsys.readouterr()
    obj = json.loads((tmp_path / "pm.json").read_text())
    assert sorted(obj["pi"]) == list(range(6))


def test_gen_3dm_zero_density(tmp_path, capsys):
    code, report = run_cli(capsys, "gen", "random-3dm", "--seed", "1", "--density", "0")
    assert code == EXIT_OK
    assert report["result"]["instance"]["triples"] == []


def test_gen_bad_params_exit_2(capsys):
    assert main(["gen", "random-3dm", "--seed", "1", "--density", "2"]) == EXIT_INPUT
    capsys.readouterr()


def test_gen_verifiable_flag(capsys):
    # 20 edges on 6 vertices have 134 matchings, within what pm bruteforce writes out
    assert main(["gen", "random-pm", "--seed", "1", "--edges", "20", "--verifiable"]) == EXIT_OK
    capsys.readouterr()
    # 12 edges among a million vertices: disjoint, so 4,096 matchings, more
    # than pm bruteforce writes out
    args = ["gen", "random-pm", "--seed", "1", "--vertices", "1000000", "--edges", "12", "--verifiable"]
    assert main(args) == EXIT_LIMIT
    capsys.readouterr()


def test_twelve_significant_digits():
    from stacksolve.cli import _round_sig

    assert _round_sig(0.12345678901234567) == 0.123456789012
    assert _round_sig(1 / 3) == 0.333333333333
    assert _round_sig({"a": [1 / 7]}) == {"a": [0.142857142857]}
    assert _round_sig(5) == 5


def test_splitmix_reference_sequence():
    # splitmix64(seed=0): first outputs of the documented recurrence
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_generator_bounds():
    game = random_bimatrix(5, 3, 4, low=-1.0, high=2.0)
    assert game.n == 3 and game.m == 4
    assert game.u_leader.min() >= -1.0 and game.u_leader.max() <= 2.0
    inst = random_permmatch(9, 5, 8)
    assert inst.graph.num_edges == 8
    tdm = random_3dm(11, 2, 2, 2, 1.0)
    assert len(tdm.triples) == 8
