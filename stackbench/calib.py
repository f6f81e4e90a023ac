"""Calibration probes that track the machine's momentary speed.

On shared machines the same computation can take 20% more or less time
from one ten-second window to the next, in wall time and in CPU time alike.
The benchmark therefore scales every time it reports by a probe measured
at the same moment, so that a time is what the operation would take on a
machine where the probe takes its nominal time:

* in-process solves and set-up compute use ``kernel``, a fixed mix of the
  kinds of work the program does (Fraction arithmetic, dict and int
  bytecode, small numpy operations and one HiGHS call), run between
  operations and summarized per pass by its median;
* process start-up (set-up and CLI processes) uses ``import_probe_s``, a
  fresh interpreter that imports numpy and scipy.optimize, spawned just
  before each measured process.

Both probes are benchmark code only, so a change to the program cannot
change them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

KERNEL_NOMINAL_MS = 10.0
IMPORT_NOMINAL_S = 0.8
_IMPORT = [sys.executable, "-c", "import numpy, scipy.optimize"]


def kernel() -> None:
    from fractions import Fraction

    import numpy as np
    from scipy.optimize import linprog

    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 7)
    table: dict[int, int] = {}
    for i in range(20000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    a = np.arange(500.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    rng = np.random.default_rng(0)
    linprog(-np.ones(20), A_ub=rng.random((30, 20)), b_ub=np.ones(30), method="highs")


def kernel_ms() -> float:
    start = time.perf_counter()
    kernel()
    return 1e3 * (time.perf_counter() - start)


def kernel_scale(samples_ms) -> float:
    """Factor turning seconds measured beside these kernel samples into scaled ms."""
    return 1e3 * KERNEL_NOMINAL_MS / statistics.median(samples_ms)


def import_probe_s(env: dict, cwd: str) -> float:
    start = time.perf_counter()
    subprocess.run(_IMPORT, env=env, cwd=cwd, capture_output=True, check=True, timeout=60)
    return time.perf_counter() - start


def import_scale(probe_s: float) -> float:
    """Factor turning a process time measured beside this probe into scaled seconds."""
    return IMPORT_NOMINAL_S / probe_s
