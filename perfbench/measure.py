"""The measurement loop of one benchmark run, and its end-to-end metrics."""

import dataclasses
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from ddcontrol import harness

import spans
import workloads

#: steps of the untimed warm-up run that loads code paths and caches
WARMUP_STEPS = 50
#: slack of the span-coverage check, for the clock reads outside the spans
COVERAGE_SLACK = 0.01
#: fresh interpreters timed importing the package, spread over the run
IMPORT_PROBES = 8
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ddcontrol; "
                "print(time.perf_counter() - t)")


#: printed with the other end-to-end metrics but kept out of the JSON
#: result: over 10 seeds its interquartile range reached 0.21-0.25 of its
#: median on thermal_day on the shared 2-CPU machine the benchmark was
#: defined on, too unsteady to gate a change on
UNGATED = ("control_latency_us_p99",)


def time_import(src: Path) -> float:
    """Seconds a fresh interpreter takes to import the package."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


@dataclasses.dataclass
class RunResult:
    """Timing and outcome of one ``run_experiment`` call."""

    wall_ns: int = 0
    setup_ns: int = 0                     # call start to first step
    latency_ns: np.ndarray | None = None  # per Controller.step call
    trace: spans.RunSpans | None = None
    summary: dict | None = None
    problems: list[str] = dataclasses.field(default_factory=list)


class Measurement:
    """Repeats units of a workload, untraced and, with ``trace``, traced.

    With ``trace`` every unit runs twice on the same inputs, once traced
    and once untraced, in alternating order; the pair gives the tracing
    overhead and a check that tracing changes no output.
    """

    def __init__(self, workload: str, seed: int, src: Path, tmp: Path):
        self.workload = workload
        self.src = src
        self.seed = seed
        self.tmp = tmp
        self.clock = spans.StepClock()
        self.tracer = spans.Tracer()
        self.units: list[dict[bool, list[RunResult]]] = []
        self.extra_spans: list[spans.RunSpans] = []
        self.last_record = None      # of the latest traced run
        self.import_s: list[float] = []

    def run(self, seconds: float, trace: bool) -> None:
        first = workloads.unit(self.workload, self.seed, 0)[0]
        harness.run_experiment(
            dataclasses.replace(first.config, horizon=WARMUP_STEPS),
            seed=first.seed, mu=first.mu)
        start = perf_counter()
        k = 0
        while k == 0 or perf_counter() < start + seconds:
            runs = workloads.unit(self.workload, self.seed, k)
            modes = (False,) if not trace else ((False, True), (True, False))[k % 2]
            self.units.append({traced: [self._execute(run, traced) for run in runs]
                               for traced in modes})
            k += 1
            if not trace:
                self._probe_imports(min(1.0, (perf_counter() - start) / seconds))
        if not trace:
            self._probe_imports(1.0)
        self._cross_checks(trace)
        if trace and not first.write_csv and self.last_record is not None:
            # These runs write no CSV; time the writer once on a run's record
            # so the layer is measured on every workload.
            with spans.patched(self.tracer.replacements()):
                harness.write_trace_csv(self.tmp / "trace.csv", self.last_record)
            self.extra_spans.append(self.tracer.take())

    def _probe_imports(self, share: float) -> None:
        """Time imports until ``share`` of the probes are done.

        The probes are spread over the run, like the units, so that a slow
        spell of the machine does not land on all of them.
        """
        while len(self.import_s) < share * IMPORT_PROBES:
            self.import_s.append(time_import(self.src))

    def _execute(self, run: workloads.Run, traced: bool) -> RunResult:
        recorder = self.tracer if traced else self.clock
        out_dir = self.tmp / "out" if run.write_csv else None
        with spans.patched(recorder.replacements()):
            t0 = perf_counter_ns()
            try:
                record, summary = harness.run_experiment(
                    run.config, seed=run.seed, mu=run.mu, out_dir=out_dir)
            except Exception as exc:  # noqa: BLE001 - a failed run is counted
                taken = recorder.take()
                return RunResult(trace=taken if traced else None,
                                 problems=[f"{type(exc).__name__}: {exc}"])
            wall = perf_counter_ns() - t0
        result = RunResult(wall_ns=wall, summary=summary,
                           problems=workloads.check(self.workload, record, summary))
        if traced:
            result.trace = self.tracer.take()
            result.problems += result.trace.problems()
            self.last_record = record
        else:
            calls = self.clock.take()
            result.setup_ns = int(calls[0, 0] - t0)
            result.latency_ns = calls[:, 1] - calls[:, 0]
        return result

    def _cross_checks(self, trace: bool) -> None:
        if self.seed == workloads.GOLDEN_SEED:
            for results in self.units[0].values():
                for i, result in enumerate(results):
                    if result.summary is not None:
                        result.problems += workloads.check_golden(
                            self.workload, i, result.summary)
        if trace:
            for unit in self.units:
                for plain, traced in zip(unit[False], unit[True]):
                    if (plain.summary is not None and traced.summary is not None
                            and plain.summary != traced.summary):
                        traced.problems.append("traced run differs from untraced run")

    def results(self) -> list[RunResult]:
        return [r for unit in self.units for results in unit.values() for r in results]

    def end_to_end(self, peak_rss_mb: float) -> dict:
        """End-to-end metrics as ``{name: (value, unit, samples)}``."""
        units = [unit[False] for unit in self.units
                 if not any(r.problems for r in unit[False])]
        if not units:
            return {}
        runs = [r for unit in units for r in unit]
        setup = [statistics.fmean(r.setup_ns for r in unit) / 1e9 for unit in units]
        wall = [statistics.fmean(r.wall_ns for r in unit) / 1e9 for unit in units]
        latency = np.concatenate([r.latency_ns for r in runs]) / 1e3
        late = np.concatenate([r.latency_ns[len(r.latency_ns) - len(r.latency_ns) // 4:]
                               for r in runs]) / 1e3
        return {
            "setup_s": (statistics.median(setup), "s", len(units)),
            "import_s": (statistics.median(self.import_s), "s", len(self.import_s)),
            "run_s": (statistics.median(wall), "s", len(units)),
            "runs_per_s": (len(runs) / (sum(r.wall_ns for r in runs) / 1e9),
                           "1/s", len(runs)),
            "control_latency_us_p50": (float(np.percentile(latency, 50)), "us",
                                       latency.size),
            "control_latency_us_p99": (float(np.percentile(latency, 99)), "us",
                                       latency.size),
            "late_latency_us_p50": (float(np.median(late)), "us", late.size),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }

    def per_layer(self) -> dict:
        """Per-layer metrics and ``trace_overhead``; checks span coverage.

        The top-level spans of each traced run must cover its wall time to
        within the tracing overhead: traced wall / overhead stands for the
        untraced run time, which the spans must not fall short of.
        """
        units = [unit for unit in self.units
                 if not any(r.problems for results in unit.values() for r in results)]
        if not units:
            return {}
        overhead = statistics.median(
            sum(r.wall_ns for r in unit[True]) / sum(r.wall_ns for r in unit[False])
            for unit in units)
        floor = 1.0 / max(overhead, 1.0) - COVERAGE_SLACK
        for unit in units:
            for r in unit[True]:
                coverage = r.trace.top_level_ns() / r.wall_ns
                if not floor <= coverage <= 1.0:
                    r.problems.append(f"top-level spans cover {coverage:.4f} of the run")
        out = spans.layer_metrics([[r.trace for r in unit[True]] for unit in units],
                                  self.extra_spans)
        traced = [r.trace for unit in self.units for r in unit[True]]
        out[f"{spans.STEP}.errors"] = (
            float(sum(t.failed[t.mask(spans.STEP)].sum() for t in traced)),
            "count", len(traced))
        out["trace_overhead"] = (overhead, "ratio", len(units))
        return out
