"""Batch command-line front end.

One JSON object in, one JSON report out. Every solve command re-validates
its solution against the owning module's invariants before printing, and
all numbers are rounded to 12 significant digits. Exit codes: 0 success,
1 internal failure, 2 malformed input, 3 a size or enumeration limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__, discretize, gen, incentive, permmatch
from .bimatrix import (
    EXPLICIT_LIMIT,
    FOLLOWER,
    LEADER,
    BimatrixGame,
    expected_utilities,
    solve_maximin,
    solve_nash_support_enumeration,
    solve_stackelberg,
    validate_stackelberg_solution,
)
from .errors import InputError, SizeLimitError, ToolkitError
from .tolerances import ZERO

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _round_sig(value, digits: int = 12):
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _round_sig(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_sig(v, digits) for v in value]
    return value


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _load(path: str, parse):
    """Read one input file and parse it; returns (bytes, parsed).

    Only this step maps ``KeyError``/``TypeError``/``ValueError`` to
    malformed input, so the same exceptions raised by a solver stay
    internal failures.
    """
    blob = _read(path)
    try:
        return blob, parse(blob.decode())
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed input: {exc}") from exc


def _digest(blob: bytes) -> str:
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _parse_eps(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse eps {text!r}") from exc


def _matching_obj(edges) -> list[int]:
    return sorted(int(e) for e in edges)


def _emit(report: dict, args, owns_output: bool) -> None:
    indent = args.json_indent
    text = json.dumps(_round_sig(report), indent=indent)
    print(text)
    # reduce/gen write their instance to -o themselves; don't clobber it
    if not owns_output and getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(text + "\n")


def _report(args, digest: str, result: dict, started: float) -> dict:
    return {
        "command": " ".join(args.command_echo),
        "instanceDigest": digest,
        "result": result,
        "wallTimeSeconds": time.monotonic() - started,
        "toolkitVersion": __version__,
    }


# ---------------------------------------------------------------------------
# solve-bimatrix / discretize


def _run_bimatrix(args) -> dict:
    blob, game = _load(args.input, BimatrixGame.from_json)
    method = args.method
    if method == "se":
        sol = solve_stackelberg(game, exact=args.exact)
        validate_stackelberg_solution(game, sol)
        result = {
            "method": "se",
            "leader": list(sol.leader.probs),
            "followerResponse": sol.follower_response,
            "leaderPayoff": sol.leader_payoff,
            "followerPayoff": sol.follower_payoff,
        }
    elif method == "nash":
        eqs = solve_nash_support_enumeration(game)
        entries = []
        for x, y in eqs:
            lpay, fpay = expected_utilities(game, x, y)
            entries.append(
                {
                    "leader": list(x.probs),
                    "follower": list(y.probs),
                    "leaderPayoff": lpay,
                    "followerPayoff": fpay,
                }
            )
        result = {"method": "nash", "equilibria": entries}
    elif method == "maximin":
        xl, lguar = solve_maximin(game, LEADER, exact=args.exact)
        yf, fguar = solve_maximin(game, FOLLOWER, exact=args.exact)
        lpay, fpay = expected_utilities(game, xl, yf)
        result = {
            "method": "maximin",
            "leaderStrategy": list(xl.probs),
            "followerStrategy": list(yf.probs),
            "realizedLeaderPayoff": lpay,
            "realizedFollowerPayoff": fpay,
            "leaderGuarantee": lguar,
            "followerGuarantee": fguar,
        }
    elif method == "discretize":
        if args.eps is None:
            raise InputError("--eps is required for the discretize method")
        params = discretize.GridParams.from_eps(args.eps)
        sol = discretize.discretized_se(game, params)
        if sol.follower_response not in discretize.almost_best_responses(game, sol.leader, sol.slack):
            raise ToolkitError("discretized response failed the almost-best-response check")
        result = {"method": "discretize", **discretize.solution_to_json_obj(sol)}
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown method {method!r}")
    return {"digest": _digest(blob), "result": result}


# ---------------------------------------------------------------------------
# solve-incentive


def _run_incentive(args) -> dict:
    blob, inst = _load(args.input, incentive.incentive_from_json)
    if args.no_incentives:
        game, ids = incentive.incentive_bimatrix(inst, limit=args.path_limit)
        sol = solve_stackelberg(game, exact=True)
        validate_stackelberg_solution(game, sol)
        result = {
            "noIncentives": True,
            "leader": {e: p for e, p in zip(inst.elements, sol.leader.probs) if p > ZERO},
            "chosenSet": list(ids[sol.follower_response]),
            "leaderPayoff": sol.leader_payoff,
            "followerPayoff": sol.follower_payoff,
        }
    else:
        sol = incentive.solve_stackelberg_incentive(inst)
        if not incentive.check_incentive_lower_bound(inst, sol.strategy):
            raise ToolkitError("solution violates the incentive lower bound")
        result = incentive.solution_to_json_obj(sol)
    return {"digest": _digest(blob), "result": result}


# ---------------------------------------------------------------------------
# pm


def _support_obj(support) -> list[dict]:
    return [{"edges": _matching_obj(m), "prob": p} for m, p in support]


def _load_pm_strategy(inst: permmatch.PermMatchInstance, path: str) -> permmatch.TwoPointLeaderStrategy:
    def parse(text: str) -> permmatch.TwoPointLeaderStrategy:
        support = tuple(
            (permmatch.as_matching(inst.graph, entry["edges"]), float(entry["prob"]))
            for entry in json.loads(text)["support"]
        )
        return permmatch.TwoPointLeaderStrategy(support)

    return _load(path, parse)[1]


def _run_pm(args) -> dict:
    blob, inst = _load(args.input, permmatch.permmatch_from_json)
    eps = float(_parse_eps(args.eps)) if args.eps else 0.01
    if args.action == "approx":
        strategy, response, value = permmatch.approx_solve(inst, eps)
        (x, _), (xp, _) = strategy.support
        shared = len(x & inst.pi_image(xp))
        result = {
            "action": "approx",
            "eps": eps,
            "support": _support_obj(strategy.support),
            "response": _matching_obj(response),
            "leaderPayoff": value,
            "greedyPair": {
                "x": _matching_obj(x),
                "xPrime": _matching_obj(xp),
                "sharedCount": shared,
            },
            "seUpperBound": 4 * shared,
            "payoffLowerBound": (1 / 3 - eps) * shared,
            "guaranteeFraction": (1 - 3 * eps) / 12,
        }
    elif args.action == "bruteforce":
        best_m, best_v = permmatch.bruteforce_pitim(inst)  # raises above 12 edges
        game, matchings = permmatch.explicit_bimatrix(inst)
        sol = solve_stackelberg(game, exact=True)
        validate_stackelberg_solution(game, sol)
        support = [
            (matchings[i], p) for i, p in enumerate(sol.leader.probs) if p > ZERO
        ]
        result = {
            "action": "bruteforce",
            "stackelberg": {
                "leaderSupport": _support_obj(support),
                "response": _matching_obj(matchings[sol.follower_response]),
                "leaderPayoff": sol.leader_payoff,
                "followerPayoff": sol.follower_payoff,
            },
            "pitim": {"matching": _matching_obj(best_m), "value": best_v},
        }
    else:  # bestresponse
        if args.strategy:
            strategy = _load_pm_strategy(inst, args.strategy)
        else:
            strategy = permmatch.approx_leader_strategy(inst, eps)
        response = permmatch.follower_best_response_pm(inst, strategy)
        lpay = permmatch._expected_leader(inst, strategy.support, response)
        fpay = sum(p * len(m & response) for m, p in strategy.support)
        result = {
            "action": "bestresponse",
            "support": _support_obj(strategy.support),
            "response": _matching_obj(response),
            "leaderPayoff": lpay,
            "followerPayoff": fpay,
        }
    return {"digest": _digest(blob), "result": result}


# ---------------------------------------------------------------------------
# reduce


def _run_reduce(args) -> dict:
    blob, tdm = _load(args.input, permmatch.threedm_from_json)
    inst, rmap = permmatch.reduce_3dm(tdm)
    _verify_reduction(tdm, inst, rmap)
    out_obj = permmatch.permmatch_to_json_obj(inst)
    text = json.dumps(_round_sig(out_obj), indent=args.json_indent)
    with open(args.output, "w") as handle:
        handle.write(text + "\n")
    map_path = args.output + ".map.json"
    map_obj = {
        "nA": rmap.n_a,
        "nB": rmap.n_b,
        "nC": rmap.n_c,
        "triples": [list(t) for t in rmap.triples],
        "perTriple": [list(p) for p in rmap.per_triple],
    }
    with open(map_path, "w") as handle:
        handle.write(json.dumps(map_obj, indent=args.json_indent) + "\n")
    result = {
        "written": args.output,
        "mapPath": map_path,
        "vertices": inst.graph.num_vertices,
        "edges": inst.graph.num_edges,
    }
    return {"digest": _digest(blob), "result": result, "owns_output": True}


def _verify_reduction(tdm, inst, rmap) -> None:
    """Round-trip lift/extract on the empty set, singletons, and a greedy pick."""
    samples = [set()]
    samples.extend({t} for t in range(len(tdm.triples)))
    greedy: set[int] = set()
    used_a: set[int] = set()
    used_b: set[int] = set()
    used_c: set[int] = set()
    for t, (a, b, c) in enumerate(tdm.triples):
        if a not in used_a and b not in used_b and c not in used_c:
            greedy.add(t)
            used_a.add(a)
            used_b.add(b)
            used_c.add(c)
    samples.append(greedy)
    for chosen in samples:
        lifted = permmatch.lift_3dm(rmap, chosen)
        if permmatch.pitim_value(inst, lifted) != 2 * len(chosen):
            raise ToolkitError("reduction lift produced the wrong pi-TIM value")
        if permmatch.extract_3dm(rmap, inst, lifted) != chosen:
            raise ToolkitError("reduction round-trip failed")


# ---------------------------------------------------------------------------
# gen


def _run_gen(args) -> dict:
    seed = args.seed
    if args.kind == "random-bimatrix":
        instance_obj = gen.random_bimatrix(seed, args.rows, args.cols, args.low, args.high).to_json_obj()
    elif args.kind == "random-pm":
        if args.verifiable and args.edges > permmatch.BRUTE_FORCE_EDGE_LIMIT:
            raise InputError("--verifiable caps random-pm at 12 edges")
        instance_obj = permmatch.permmatch_to_json_obj(
            gen.random_permmatch(seed, args.vertices, args.edges)
        )
    else:  # random-3dm
        tdm = gen.random_3dm(seed, args.na, args.nb, args.nc, args.density)
        if args.verifiable and len(tdm.triples) > 5:
            raise InputError("--verifiable caps random-3dm at 5 triples")
        instance_obj = permmatch.threedm_to_json_obj(tdm)
    text = json.dumps(_round_sig(instance_obj), indent=args.json_indent)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    result = {"kind": args.kind, "seed": seed, "instance": instance_obj}
    if args.output:
        result["written"] = args.output
    return {"digest": _digest(text.encode()), "result": result, "owns_output": True}


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stacksolve")
    parser.add_argument("--json-indent", type=int, default=2)
    sub = parser.add_subparsers(dest="cmd", required=True)

    solve = sub.add_parser("solve-bimatrix", help="exact and grid solvers for explicit games")
    solve.add_argument("-i", "--input", required=True)
    solve.add_argument("-o", "--output")
    solve.add_argument("--method", choices=["se", "nash", "maximin", "discretize"], default="se")
    solve.add_argument("--eps", help="grid step as p/q (discretize only)")
    solve.add_argument("--exact", action="store_true", help="use the rational simplex")
    solve.set_defaults(handler=_run_bimatrix)

    disc = sub.add_parser("discretize", help="alias of solve-bimatrix --method discretize")
    disc.add_argument("-i", "--input", required=True)
    disc.add_argument("-o", "--output")
    disc.add_argument("--eps", required=True)
    disc.set_defaults(handler=_run_bimatrix, method="discretize", exact=False)

    inc = sub.add_parser("solve-incentive", help="incentive-game commitment solver")
    inc.add_argument("-i", "--input", required=True)
    inc.add_argument("-o", "--output")
    inc.add_argument("--no-incentives", action="store_true")
    inc.add_argument("--path-limit", type=int, default=EXPLICIT_LIMIT)
    inc.set_defaults(handler=_run_incentive)

    pm = sub.add_parser("pm", help="permuted-matching solvers")
    pm.add_argument("action", choices=["approx", "bruteforce", "bestresponse"])
    pm.add_argument("-i", "--input", required=True)
    pm.add_argument("-o", "--output")
    pm.add_argument("--eps")
    pm.add_argument("--strategy", help="JSON leader mixture for bestresponse")
    pm.set_defaults(handler=_run_pm)

    red = sub.add_parser("reduce", help="instance reductions")
    red.add_argument("action", choices=["3dm-to-pm"])
    red.add_argument("-i", "--input", required=True)
    red.add_argument("-o", "--output", required=True)
    red.set_defaults(handler=_run_reduce)

    g = sub.add_parser("gen", help="seeded instance generators")
    g.add_argument("kind", choices=["random-bimatrix", "random-pm", "random-3dm"])
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output")
    g.add_argument("--rows", type=int, default=2)
    g.add_argument("--cols", type=int, default=2)
    g.add_argument("--low", type=float, default=0.0)
    g.add_argument("--high", type=float, default=1.0)
    g.add_argument("--vertices", type=int, default=6)
    g.add_argument("--edges", type=int, default=6)
    g.add_argument("--na", type=int, default=3)
    g.add_argument("--nb", type=int, default=3)
    g.add_argument("--nc", type=int, default=3)
    g.add_argument("--density", type=float, default=0.3)
    g.add_argument("--verifiable", action="store_true")
    g.set_defaults(handler=_run_gen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_echo = ["stacksolve"] + argv
    started = time.monotonic()
    try:
        payload = args.handler(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit(
        _report(args, payload["digest"], payload["result"], started),
        args,
        payload.get("owns_output", False),
    )
    return EXIT_OK


def entry() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
