"""Shared hypothesis profile: reproducible runs, no example database, no deadline.

Each property test sets its own ``max_examples``; everything else comes from
this profile. The ``fake_highs`` fixture stands in for the HiGHS solver;
``fresh_python`` runs a new interpreter, for tests of what gets imported
and of whole CLI processes.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from stacksolve import lp

settings.register_profile(
    "stacksolve",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("stacksolve")


@pytest.fixture
def fake_highs(monkeypatch):
    """Replace the HiGHS solver object with a stub of a chosen outcome.

    ``install(status, pass_model=True, row_shift=0.0, warm=False)``: every
    solve reports the model status ``status`` (a ``HighsModelStatus``
    name); ``passModel`` fails unless ``pass_model``; an optimum is x = 0
    with every row activity at its upper side plus ``row_shift``. With
    ``warm``, only the re-solves of a model already held (after
    ``changeColsCost`` and ``changeRowBounds``) do that: the first solve
    after each ``passModel`` reports ``kInfeasible``. ``lp`` keeps one
    solver object and the ``TightRowLps`` whose model it holds, so both are
    dropped when a stub goes in and again after the test.
    """
    core = lp._highs()[0]

    def install(status, pass_model=True, row_shift=0.0, warm=False):
        class FakeHighs:
            def passOptions(self, options):
                return core.HighsStatus.kOk

            def passModel(self, num_col, num_row, num_nz, a_format, sense, offset,
                          cost, col_lower, col_upper, row_lower, row_upper, *matrix):
                self.num_col, self.row_upper = num_col, np.array(row_upper)
                self.fresh = True
                return core.HighsStatus.kOk if pass_model else core.HighsStatus.kError

            def changeColsCost(self, num_set, indices, cost):
                return core.HighsStatus.kOk

            def changeRowBounds(self, row, lower, upper):
                self.row_upper[row] = upper
                return core.HighsStatus.kOk

            def run(self):
                self.status = "kInfeasible" if warm and self.fresh else status
                self.fresh = False
                return core.HighsStatus.kOk

            def getModelStatus(self):
                return getattr(core.HighsModelStatus, self.status)

            def modelStatusToString(self, model_status):
                return self.status

            def getSolution(self):
                return SimpleNamespace(
                    col_value=[0.0] * self.num_col,
                    row_value=self.row_upper + row_shift,
                )

        monkeypatch.setattr(core, "_Highs", FakeHighs)
        lp._highs.cache_clear()
        lp._holder = None

    yield install
    lp._highs.cache_clear()
    lp._holder = None


@pytest.fixture
def fresh_python():
    """``run(*args, **env)``: run ``python *args`` and return the finished process.

    ``stacksolve`` comes from this checkout and ``tests`` is importable;
    ``env`` adds environment variables, such as ``PYTHONHASHSEED``.
    """
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root)])

    def run(*args, **env):
        return subprocess.run(
            [sys.executable, *args],
            env={**os.environ, **env, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )

    return run
