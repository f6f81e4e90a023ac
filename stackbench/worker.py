"""The benchmark's in-process worker: set up, solve in a closed loop, spawn the CLI.

One client, no extra threads: each operation starts after the previous one
finished. ``run.py`` starts this script and reads its standard output: a
``ready`` line once the package is imported and the inputs are written,
then one result line.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import corpus  # noqa: E402 - imports stacksolve

IMPORTED = time.perf_counter()

import calib  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_TIMEOUT_S = 120
CALIB_EVERY_S = 0.1


class Tally:
    """Operations attempted and failed; ``wrong`` marks an output a check rejected."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.errors: list[str] = []

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.wrong = self.wrong or isinstance(exc, checks.CheckError)
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def run_op(op, ref, tally: Tally, runner=None):
    """Time one operation and check its output; returns seconds or None on failure."""
    tally.attempted += 1
    try:
        start = time.perf_counter()
        out = runner(op.run) if runner else op.run()
        elapsed = time.perf_counter() - start
        op.check(out, ref)
    except Exception as exc:  # every failure counts, whatever raised it
        tally.fail(op.kind, exc)
        return None
    return elapsed


def closed_loop(ops, refs, seconds: float, tally: Tally, tracer=None):
    """Whole passes until ``seconds`` have gone by; returns scaled ms samples.

    The calibration kernel runs at the start of each pass and then after an
    operation whenever ``CALIB_EVERY_S`` has gone by since it last ran. Each
    sample is scaled by the mean of the two kernel times around it.
    Untraced, returns (samples, [], passes, kernels). With a tracer, passes
    alternate untraced and traced, in pairs, and the second list holds the
    traced samples.
    """
    plain, traced, kernels, traced_kernels = [], [], [], []
    passes = 0
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and passes % 2 == 1
        samples = traced if tracing else plain
        pass_kernels = [calib.kernel_ms()]
        pending = []

        def calibrate():
            pass_kernels.append(calib.kernel_ms())
            scale = calib.kernel_scale(pass_kernels[-2:])
            samples.extend(t * scale for t in pending)
            pending.clear()
            return time.perf_counter()

        last = time.perf_counter()
        if tracing:
            tracer.install()
        try:
            for op, ref in zip(ops, refs):
                t = run_op(op, ref, tally, tracer.op if tracing else None)
                if t is not None:
                    pending.append(t)
                if time.perf_counter() - last >= CALIB_EVERY_S:
                    last = calibrate()
        finally:
            if tracing:
                tracer.uninstall()
        if pending:
            calibrate()
        (traced_kernels if tracing else kernels).extend(pass_kernels)
        passes += 1
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or passes % 2 == 0):
            return plain, traced, passes, kernels, traced_kernels


def run_cli(jobs, tally: Tally):
    """Spawn each ``stacksolve`` process in turn, each after an import probe.

    Returns scaled (process ms, handler ms) per success.
    """
    env = dict(os.environ)
    times = []
    for job in jobs:
        tally.attempted += 1
        cmd = [sys.executable, "-m", "stacksolve.cli", "--json-indent", "0", *job.args]
        try:
            scale = 1e3 * calib.import_scale(calib.import_probe_s(env, ROOT))
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
            report = json.loads(proc.stdout) if proc.returncode == 0 else None
            elapsed = time.perf_counter() - start
            if report is None:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
            job.check(report["result"])
        except Exception as exc:  # every failure counts, whatever raised it
            tally.fail(job.kind, exc)
            continue
        times.append((elapsed * scale, report["wallTimeSeconds"] * scale))
    return times


def quantile(samples, q: int) -> float:
    """The q-th percentile, with statistics.quantiles' default method."""
    return statistics.quantiles(samples, n=100)[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(corpus.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    built = corpus.BUILDERS[args.workload](args.seed, args.smoke, corpus.Writer(args.out))
    ready = time.perf_counter()
    print(json.dumps({"import_s": IMPORTED - STARTED, "corpus_s": ready - IMPORTED}), flush=True)
    if args.setup_only:
        return 0

    # Untimed warm-up pass, checked against references computed from the
    # inputs alone; it counts toward `wrong`, not toward attempted or failed.
    warm = Tally()
    refs = []
    for op in built.ops:
        try:
            refs.append(op.reference())
        except Exception as exc:  # every failure counts, whatever raised it
            refs.append(None)
            warm.fail("reference " + op.kind, exc)
            continue
        try:
            op.check(op.run(), refs[-1])
        except Exception as exc:  # every failure counts, whatever raised it
            warm.fail("warm-up " + op.kind, exc)
    tally = Tally()
    tally.wrong, tally.errors = warm.wrong, warm.errors

    tracer = spans.Tracer() if args.trace else None
    plain, traced, passes, kernels, traced_kernels = closed_loop(built.ops, refs, args.seconds, tally, tracer)
    cli = run_cli(built.cli, tally)
    if not plain or not cli:
        print("; ".join(tally.errors), file=sys.stderr)
        return 1
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "errors": tally.errors,
        "passes": passes,
        "ops_per_pass": len(built.ops),
        "samples": len(plain),
        "solve_ms_p50": statistics.median(plain),
        "solve_ms_p90": quantile(plain, 90),
        "solves_per_s": 1e3 * len(plain) / sum(plain),
        "cli_ms": [c[0] for c in cli],
        "cli_handler_ms": [c[1] for c in cli],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel_ms": statistics.median(kernels),
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans, passes // 2, calib.kernel_scale(traced_kernels) / 1e3)
        layers["trace.overhead_ms_per_solve"] = (statistics.fmean(traced) - statistics.fmean(plain), "ms")
        if layers["trace.layer_self_ms_per_solve"][0] > layers["trace.solve_ms_per_solve"][0]:
            result["wrong"] = True
            result["errors"].append("layer self times exceed the traced solve time")
        result["layers"] = layers
        with open(os.path.join(args.out, "spans.json"), "w") as handle:
            json.dump([dataclasses.asdict(span) for span in tracer.spans], handle)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
