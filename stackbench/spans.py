"""Spans around calls into each ``stacksolve`` layer, and the per-layer metrics.

The tracer replaces module attributes with timing wrappers. Package code
looks these attributes up at call time (``lp.solve(...)`` inside
``bimatrix``, ``solve(...)`` inside ``lp.solve_with_generation``), so the
wrappers see internal calls without any edit to the package. Each call
records a span (name, start, end, parent, info); the spans stay in memory
until the run ends. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from stacksolve import bimatrix, discretize, incentive, lp, permmatch

ROOT = "op"


def _lp_info(args, kwargs, _result):
    return "exact" if kwargs.get("exact", args[1] if len(args) > 1 else False) else "highs"


# span name -> (module, attribute, info extracted from (args, kwargs, result))
LAYERS: dict[str, tuple[Any, str, Callable | None]] = {
    "lp.solve": (lp, "solve", _lp_info),
    "lp.cutgen": (lp, "solve_with_generation", None),
    "bimatrix.se": (bimatrix, "solve_stackelberg", None),
    "incentive.oracle": (incentive, "base_best_set", None),
    "incentive.solve": (incentive, "solve_stackelberg_incentive", None),
    "permmatch.matcher": (permmatch, "max_weight_matching", None),
    "permmatch.enum": (permmatch, "enumerate_matchings", lambda a, k, r: len(r)),
    "permmatch.best_response": (permmatch, "follower_best_response_pm", None),
    "permmatch.explicit": (permmatch, "explicit_bimatrix", None),
    "discretize.grid": (discretize, "discretized_se", lambda a, k, r: r.grid_size),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers; records spans while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: dict[str, Callable] = {}

    def _record(self, name: str, fn: Callable, info: Callable | None, args, kwargs):
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def install(self) -> None:
        for name, (module, attr, info) in LAYERS.items():
            original = getattr(module, attr)
            self._originals[name] = original

            def wrapper(*args, _name=name, _fn=original, _info=info, **kwargs):
                return self._record(_name, _fn, _info, args, kwargs)

            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            module, attr, _ = LAYERS[name]
            setattr(module, attr, original)
        self._originals.clear()

    def op(self, fn: Callable):
        """Run one benchmark operation under a root span."""
        return self._record(ROOT, fn, None, (), {})


def layer_metrics(spans: list[Span], passes: int, scale: float) -> dict[str, tuple[float, str]]:
    """Per-pass counts and per-call times from the spans of ``passes`` traced passes.

    Durations are multiplied by ``scale``, the calibration factor of the run.
    """
    self_time = [s.duration * scale for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_time[s.parent] -= s.duration * scale

    def pick(name, info=None):
        return [i for i, s in enumerate(spans) if s.name == name and (info is None or s.info == info)]

    def per_pass(idx):
        return len(idx) / passes

    def duration(i):
        return spans[i].duration * scale

    def ms_per_call(idx):
        return 1e3 * sum(duration(i) for i in idx) / len(idx) if idx else 0.0

    def self_ms(idx):
        return 1e3 * sum(self_time[i] for i in idx) / len(idx) if idx else 0.0

    def busy_s(idx):
        return sum(duration(i) for i in idx) / passes

    def children(parents, name):
        parents = set(parents)
        return [i for i, s in enumerate(spans) if s.name == name and s.parent in parents]

    se, cutgen = pick("bimatrix.se"), pick("lp.cutgen")
    highs, exact = pick("lp.solve", "highs"), pick("lp.solve", "exact")
    oracle, inc = pick("incentive.oracle"), pick("incentive.solve")
    matcher, enum = pick("permmatch.matcher"), pick("permmatch.enum")
    br, explicit, grid = pick("permmatch.best_response"), pick("permmatch.explicit"), pick("discretize.grid")
    roots = pick(ROOT)
    points = sum(spans[i].info for i in grid)
    layer_self = sum(t for s, t in zip(spans, self_time) if s.name != ROOT)
    root_total = sum(duration(i) for i in roots)
    count, ms, sec = "count", "ms", "s"
    return {
        "bimatrix.se.calls": (per_pass(se), count),
        "bimatrix.se.lps_per_call": (len(children(se, "lp.solve")) / len(se) if se else 0.0, count),
        "bimatrix.se.self_ms": (self_ms(se), ms),
        "lp.highs.calls": (per_pass(highs), count),
        "lp.highs.ms_per_call": (ms_per_call(highs), ms),
        "lp.highs.busy_s": (busy_s(highs), sec),
        "lp.exact.calls": (per_pass(exact), count),
        "lp.exact.ms_per_call": (ms_per_call(exact), ms),
        "lp.exact.busy_s": (busy_s(exact), sec),
        "lp.cutgen.calls": (per_pass(cutgen), count),
        "lp.cutgen.rounds_per_call": (len(children(cutgen, "lp.solve")) / len(cutgen) if cutgen else 0.0, count),
        "lp.cutgen.self_ms": (self_ms(cutgen), ms),
        "incentive.oracle.calls": (per_pass(oracle), count),
        "incentive.oracle.ms_per_call": (ms_per_call(oracle), ms),
        "incentive.solve.ms_per_call": (ms_per_call(inc), ms),
        "permmatch.matcher.calls": (per_pass(matcher), count),
        "permmatch.matcher.ms_per_call": (ms_per_call(matcher), ms),
        "permmatch.enum.calls": (per_pass(enum), count),
        "permmatch.enum.matchings": (sum(spans[i].info for i in enum) / passes, count),
        "permmatch.enum.ms_per_call": (ms_per_call(enum), ms),
        "permmatch.best_response.ms_per_call": (ms_per_call(br), ms),
        "permmatch.explicit.ms_per_call": (ms_per_call(explicit), ms),
        "discretize.grid.points": (points / passes, count),
        "discretize.grid.ms_per_call": (ms_per_call(grid), ms),
        "discretize.grid.points_per_s": (points / busy_s(grid) / passes if grid else 0.0, "1/s"),
        "trace.layer_self_ms_per_solve": (1e3 * layer_self / len(roots), ms),
        "trace.solve_ms_per_solve": (1e3 * root_total / len(roots), ms),
    }
