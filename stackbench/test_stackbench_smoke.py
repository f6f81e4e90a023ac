"""Smoke test: every workload runs end to end on tiny inputs with every check active."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_complete(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        layers = result["metrics"]
        assert layers["trace.layer_self_ms_per_solve"]["value"] <= layers["trace.solve_ms_per_solve"]["value"]


def test_checks_reject_a_wrong_commitment_value():
    import checks
    import numpy as np

    ul = np.array([[1.0, 0.0], [0.0, 1.0]])
    uf = np.array([[0.0, 1.0], [1.0, 0.0]])
    ref = checks.reference_game(ul, uf)
    checks.check_commitment(ul, uf, [0.5, 0.5], 0, 0.5, ref)
    with pytest.raises(checks.CheckError):
        checks.check_commitment(ul, uf, [0.5, 0.5], 0, 0.5 - 1e-6, ref)
