"""Timing wrappers installed on ddcontrol's public functions from outside.

Nothing here copies the closed loop. ``patched`` swaps module and class
attributes of the package for wrappers and restores them on exit. Every
call path in the package looks these names up at call time (for example
``harness.step``, ``controller.solve_alpha``, ``Controller.step``), so the
wrappers see each call and ``run_experiment`` stays the only loop.

Two recorders exist. ``StepClock`` wraps only ``Controller.step`` with two
clock reads a call; the end-to-end metrics come from it. ``Tracer`` records
a span (name, parent, start, end) around every wrapped call; the per-layer
metrics come from it, in separate runs.
"""

import dataclasses
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from ddcontrol import (behavioral, controller, costs, harness, linalg, metrics,
                       plant, steady_state)

STEP = "controller.step"
STAGES = ("controller.estimate_noise", "controller.solve_alpha",
          "controller.predict_and_descend", "controller.solve_beta",
          "controller.advance")
ORACLE = "steady_state.optimal_steady_state"
RUN = "harness.run_experiment"
CSV = "harness.write_trace_csv"


def _sites() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every wrapped call site.

    A function imported by name into several modules is wrapped in each,
    under one span name.
    """
    cost_classes = [c for c in vars(costs).values()
                    if isinstance(c, type) and issubclass(c, costs.CostFunction)]
    return [
        (behavioral, "build_hankel_set", "behavioral.build_hankel_set"),
        *[(mod, "persistency_check", "behavioral.persistency_check")
          for mod in (behavioral, controller, steady_state, plant)],
        (linalg, "pinv", "linalg.pinv"),
        (controller, "precompute", "controller.precompute"),
        (steady_state, "build_projector", "steady_state.build_projector"),
        (controller.Controller, "step", STEP),
        *[(controller, stage.split(".")[1], stage) for stage in STAGES],
        (controller.Controller, "noise_estimate", "controller.noise_estimate"),
        *[(mod, "optimal_steady_state", ORACLE) for mod in (harness, steady_state)],
        *[(cls, method, f"costs.{method}") for cls in cost_classes
          for method in ("grad", "eval") if method in vars(cls)],
        *[(mod, "collect_offline_data", "plant.collect_offline_data")
          for mod in (harness, plant)],
        *[(mod, "step", "plant.step") for mod in (harness, plant)],
        *[(plant.NoiseModel, method, "plant.noise_draw")
          for method in ("draw_measurement", "draw_process")],
        (harness, "write_trace_csv", CSV),
        (metrics, "summarize", "metrics.summarize"),
        (harness, "run_experiment", RUN),
    ]


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples for the block, then restore."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class StepClock:
    """Start and end of every ``Controller.step`` call, in ns."""

    def __init__(self):
        self.ns = array("q")

    def replacements(self):
        ns, step = self.ns, controller.Controller.step

        def timed_step(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return step(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                ns.append(t0)
                ns.append(t1)

        return [(controller.Controller, "step", timed_step)]

    def take(self) -> np.ndarray:
        """(steps, 2) array of call starts and ends since the last take."""
        calls = np.array(self.ns, dtype=np.int64).reshape(-1, 2)
        del self.ns[:]
        return calls


class Tracer:
    """Spans kept in memory as parallel arrays, indexed in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.code = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self.controllers = []
        self._stack: list[int] = []

    def replacements(self):
        sites = [(owner, attr, self._wrap(name, getattr(owner, attr)))
                 for owner, attr, name in _sites()]
        return sites + [(controller.Controller, "start",
                         self._capture(controller.Controller.start))]

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        codes, parents, starts, ends, failed, stack = (
            self.code, self.parent, self.start, self.end, self.failed, self._stack)

        def span(*args, **kwargs):
            i = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            failed.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[i] = 1
                raise
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()

        return span

    def _capture(self, start):
        controllers = self.controllers

        def capturing_start(ctrl, *args, **kwargs):
            controllers.append(ctrl)
            return start(ctrl, *args, **kwargs)

        return capturing_start

    def take(self) -> "RunSpans":
        """Spans and controllers recorded since the last take, then clear."""
        spans = RunSpans(
            names=list(self.names),
            code=np.array(self.code, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            failed=np.array(self.failed, dtype=bool),
            factor_bytes=[factor_bytes(c) for c in self.controllers])
        for buf in (self.code, self.parent, self.start, self.end, self.failed):
            del buf[:]
        self.controllers.clear()
        self._stack.clear()
        return spans


def factor_bytes(ctrl) -> int:
    """Bytes of the distinct arrays reachable from the offline factors.

    Walks ``ctrl.pre`` and ``ctrl.projector`` through dataclass fields and
    counts each underlying buffer once, so views add nothing.
    """
    buffers = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                visit(getattr(obj, f.name))

    visit(ctrl.pre)
    visit(ctrl.projector)
    return sum(buffers.values())


@dataclasses.dataclass
class RunSpans:
    """The spans of one traced run, with durations and self times in ns."""

    names: list[str]
    code: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    failed: np.ndarray
    factor_bytes: list[int]

    def __post_init__(self):
        self.duration = self.end - self.start
        nested = self.parent >= 0
        child = np.zeros(len(self.code), dtype=np.int64)
        np.add.at(child, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.code), dtype=bool)
        return self.code == self.names.index(name)

    def problems(self) -> list[str]:
        """Violations of the span invariants; empty for a sound trace."""
        out = []
        if (self.self_time < 0).any():
            out.append("negative self time")
        nested = np.nonzero(self.parent >= 0)[0]
        up = self.parent[nested]
        if ((self.start[nested] < self.start[up])
                | (self.end[nested] > self.end[up])).any():
            out.append("child span outside its parent")
        order = np.argsort(self.parent, kind="stable")
        siblings = self.parent[order[1:]] == self.parent[order[:-1]]
        if (self.start[order[1:]][siblings] < self.end[order[:-1]][siblings]).any():
            out.append("overlapping sibling spans")
        step = self.mask(STEP)
        in_step = nested[step[self.parent[nested]]]
        stage_codes = [self.names.index(s) for s in STAGES if s in self.names]
        if not np.isin(self.code[in_step], stage_codes).all():
            out.append("controller.step has a child that is not a stage")
        stage_sum = np.zeros(len(self.code), dtype=np.int64)
        np.add.at(stage_sum, self.parent[in_step], self.duration[in_step])
        if (stage_sum[step] + self.self_time[step] != self.duration[step]).any():
            out.append("stage spans plus step self time differ from the step span")
        return out

    def top_level_ns(self) -> int:
        return int(self.duration[self.parent < 0].sum())


#: per-run total time, in ms, of layers that run a fixed number of times a run
RUN_TOTAL_MS = ("behavioral.build_hankel_set", "behavioral.persistency_check",
                "linalg.pinv", "controller.precompute",
                "steady_state.build_projector", "plant.collect_offline_data")
#: median duration of one call, in ms
CALL_MS = (CSV, "metrics.summarize")
#: calls per run
CALLS = ("behavioral.persistency_check", "linalg.pinv", STEP, ORACLE,
         "costs.eval")
#: median duration of one call, in us
CALL_US = STAGES + ("controller.noise_estimate", ORACLE, "costs.grad",
                    "costs.eval", "plant.step", "plant.noise_draw")


def layer_metrics(units: list[list[RunSpans]], extra: list[RunSpans]) -> dict:
    """Per-layer metrics as ``{name: (value, unit, samples)}``.

    A per-run quantity is averaged over the runs of a unit, then the
    median over units is taken, so the mixed mu of ``thermal_sweep`` does
    not split the median. Call durations are pooled over every traced run
    and over ``extra`` (spans recorded outside the measured runs).
    """
    runs = [run for unit in units for run in unit]
    pool = runs + extra

    def per_run(fn, reduce=np.median):
        return float(reduce([np.mean([fn(run) for run in unit]) for unit in units]))

    def durations(name):
        return np.concatenate([run.duration[run.mask(name)] for run in pool])

    out = {}
    for name in RUN_TOTAL_MS:
        out[f"{name}.ms"] = (
            per_run(lambda run: run.duration[run.mask(name)].sum() / 1e6),
            "ms", len(runs))
    for name in CALL_MS:
        d = durations(name)
        out[f"{name}.ms"] = (float(np.median(d)) / 1e6, "ms", d.size)
    for name in CALLS:
        out[f"{name}.calls"] = (
            per_run(lambda run: run.mask(name).sum(), np.mean), "count", len(runs))
    for name in CALL_US:
        d = durations(name)
        out[f"{name}.us_p50"] = (float(np.median(d)) / 1e3, "us", d.size)

    out["controller.factor_bytes"] = (
        per_run(lambda run: np.mean(run.factor_bytes), np.mean), "bytes", len(runs))
    self_all = [run.self_time[run.mask(STEP)] for run in runs]
    self_late = [s[len(s) - len(s) // 4:] for s in self_all]
    for metric, series in ((f"{STEP}.self_us_p50", self_all),
                           (f"{STEP}.self_us_p50_late", self_late)):
        d = np.concatenate(series)
        out[metric] = (float(np.median(d)) / 1e3, "us", d.size)
    solves = sum(int(run.mask(ORACLE).sum()) for run in runs)
    steps = sum(int(run.mask(STEP).sum()) for run in runs)
    out["harness.oracle_reuse_ratio"] = (1.0 - solves / steps, "ratio", steps)
    out[f"{RUN}.self_ms"] = (
        per_run(lambda run: run.self_time[run.mask(RUN)].sum() / 1e6), "ms", len(runs))
    return out
