#!/usr/bin/env python3
"""Run one stacksolve benchmark workload and print its metrics.

    python3 stackbench/run.py --workload bimatrix-highs --seed 1 --seconds 15 --trace 0

Run from the repository root. The script times ``SETUP_RUNS`` fresh worker
processes from spawn until each has imported the package and written its
seeded inputs, then lets the last of them run the closed loop and the CLI
processes. It prints each metric with its unit, the operations attempted
and failed, and, as its last line, one JSON object. ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones. ``--smoke`` runs the
same code on tiny inputs in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bimatrix-highs", "exact-lp", "combinatorial")
SETUP_RUNS = 3
RUN_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one client, no extra threads
    return env


def start_worker(args, out_dir: str, setup_only: bool, procs: list):
    """Spawn a worker; returns (process, seconds from spawn to its ready line, ready record)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--setup-only"] if setup_only else []
    start = time.perf_counter()
    # its own process group, so that a timeout also ends the CLI process it may be running
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    procs.append(proc)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if not line:
        proc.wait()
        raise RuntimeError(f"worker exited with {proc.returncode} before setup finished")
    return proc, elapsed, json.loads(line)


def measure(args) -> dict:
    """Set up ``SETUP_RUNS`` times; the last worker also runs the workload.

    Each set-up is scaled by an import probe spawned just before it (see calib.py).
    """
    out_dir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}" + ("-smoke" if args.smoke else ""))
    setups, imports, corpora = [], [], []
    runs = 1 if args.smoke else SETUP_RUNS
    procs: list[subprocess.Popen] = []
    try:
        for i in range(runs):
            scale = calib.import_scale(calib.import_probe_s(child_env(), ROOT))
            proc, elapsed, ready = start_worker(args, out_dir, i < runs - 1, procs)
            setups.append(elapsed * scale)
            imports.append(ready["import_s"] * scale)
            corpora.append(ready["corpus_s"] * scale)
            tail, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited with {proc.returncode}")
    finally:
        for p in procs:
            if p.poll() is None:
                os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            p.stdout.close()
    result = json.loads(tail.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["import_s"] = statistics.median(imports)
    result["corpus_s"] = statistics.median(corpora)
    return result


def end_to_end(r: dict) -> dict:
    return {
        "setup_s": (r["setup_s"], "s"),
        "solve_ms_p50": (r["solve_ms_p50"], "ms"),
        "solve_ms_p90": (r["solve_ms_p90"], "ms"),
        "solves_per_s": (r["solves_per_s"], "1/s"),
        "cli_ms_p50": (statistics.median(r["cli_ms"]), "ms"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def per_layer(r: dict) -> dict:
    cli_startup = [total - handler for total, handler in zip(r["cli_ms"], r["cli_handler_ms"])]
    metrics = {
        "setup.import_s": (r["import_s"], "s"),
        "setup.corpus_s": (r["corpus_s"], "s"),
        "cli.startup_ms": (statistics.median(cli_startup), "ms"),
        "cli.handler_ms": (statistics.median(r["cli_handler_ms"]), "ms"),
    }
    metrics.update({name: tuple(value) for name, value in r["layers"].items()})
    metrics["calib.kernel_ms"] = (r["kernel_ms"], "ms")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check active")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "stacksolve")):
        print("stacksolve sources not found under src/; run from a full checkout", file=sys.stderr)
        return 2

    def give_up(signum, frame):
        raise TimeoutError(f"benchmark run exceeded {RUN_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        result = measure(args)
    except (RuntimeError, TimeoutError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    metrics = per_layer(result) if args.trace else end_to_end(result)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"({result['samples']} timed solves in {result['passes']} passes of {result['ops_per_pass']})")
    for error in result["errors"]:
        print(f"error: {error}")
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
