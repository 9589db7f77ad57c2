"""Experiment runner: JSON configs, closed-loop orchestration, CSV output.

The runner owns the information pattern: at every step the controller
commits its input before the plant is stepped, the measurement is taken,
and only then is the current cost made available (it reaches the
controller one step later as ``prev_cost``). Traces and per-run summaries
are written as CSV with 17 significant digits so runs replay bit-exactly.
"""

import argparse
import json
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics
from .controller import Controller, ControllerConfig, check_step_size, memoized, step_size_limit
from .costs import (CostFunction, CostSegment, QuadraticScheduledCost,
                    QuadraticSoftplusCost, QuadraticTrackingCost,
                    hvac_cost_schedule)
from .errors import FeasibilityError, NonConvergenceError
from .metrics import RunRecord
from .plant import (NoiseModel, PlantModel, ThermalZoneParams, build_hvac,
                    collect_offline_data, step)
from .steady_state import optimal_steady_state


class ConfigError(ValueError):
    """Configuration file or override is missing, unparsable, or invalid."""


def _is_count(value) -> bool:
    """Whether ``value`` is an integer; a boolean is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _index(value, what: str) -> int:
    """``int(value)``, refusing a boolean or a fraction; ``int`` refuses ±inf, NaN."""
    index = int(value)
    if isinstance(value, bool) or index != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return index


def _refuse_unknown(what: str, given: dict, known: set) -> None:
    """Raise ``ConfigError`` naming the keys of ``given`` outside ``known``."""
    unknown = sorted(set(given) - known)
    if unknown:
        raise ConfigError(f"unknown {what}: {unknown}")


# --------------------------------------------------------------------------
# configuration model
# --------------------------------------------------------------------------

@dataclass
class PlantSpec:
    """Either explicit state-space matrices or thermal-model parameters."""

    type: str = "hvac"                      # "hvac" | "matrices"
    A: list | None = None
    B: list | None = None
    C: list | None = None
    D: list | None = None
    hvac: dict | None = None                # overrides for ThermalZoneParams
    initial_state: list | None = None

    def build(self) -> tuple[PlantModel, np.ndarray]:
        if self.type == "matrices":
            if self.A is None or self.B is None or self.C is None:
                raise ConfigError("matrices plant needs A, B, and C")
            model = PlantModel(self.A, self.B, self.C, self.D)
        elif self.type == "hvac":
            params = ThermalZoneParams()
            overrides = dict(self.hvac or {})
            if "capacitance" in overrides:
                params.capacitance = np.asarray(overrides.pop("capacitance"), dtype=float)
            if "r_outdoor" in overrides:
                params.r_outdoor = [None if r is None else float(r)
                                    for r in overrides.pop("r_outdoor")]
            if "r_between" in overrides:
                params.r_between = {(_index(i, "r_between zone"),
                                     _index(j, "r_between zone")): float(r)
                                    for i, j, r in overrides.pop("r_between")}
            if "sample_time" in overrides:
                params.sample_time = float(overrides.pop("sample_time"))
            if "sensor_zones" in overrides:
                params.sensor_zones = tuple(_index(z, "sensor zone")
                                            for z in overrides.pop("sensor_zones"))
            if overrides:
                raise ConfigError(f"unknown hvac parameters: {sorted(overrides)}")
            model = build_hvac(params)
        else:
            raise ConfigError(f"unknown plant type {self.type!r}")
        x0 = np.zeros(model.n) if self.initial_state is None \
            else np.asarray(self.initial_state, dtype=float)
        if x0.shape != (model.n,):
            raise ConfigError(f"initial_state must have {model.n} entries")
        if not np.isfinite(x0).all():
            raise ConfigError("initial_state must be finite")
        return model, x0


@dataclass
class NoiseSpec:
    seed: int = 0
    measurement: dict | None = None         # {"low": .., "high": ..}
    process: dict | None = None             # plus "through_input_matrix": bool
    failing_sensor: dict | None = None      # {"channel", "start", "end", "scale"}

    def build(self, model: PlantModel, seed: int, start: int,
              stop: int) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
        """The run's noise ``draw(t) -> (e, q)`` for ``start <= t < stop``.

        The noise of every step is drawn here, in one block of rows per
        stream, and ``draw(t)`` returns row t of each block, so the warm-up
        steps are the rows t < 0. A generator fills a block in the order
        that one draw per step would, so the rows equal the per-step draws
        bit for bit. The failing sensor's ``e`` is scaled inside its
        window. Process noise through the input matrix is ``B q`` of row t.
        """
        for name, bounds, keys in (
                ("measurement", self.measurement, {"low", "high"}),
                ("process", self.process, {"low", "high", "through_input_matrix"})):
            if bounds is not None:
                _refuse_unknown(f"noise {name} keys", bounds, keys)
        fail = self.failing_sensor
        if fail is not None:
            if set(fail) != {"channel", "start", "end", "scale"}:
                raise ConfigError("failing_sensor needs exactly channel, start, end "
                                  f"and scale, got {sorted(fail)}")
            if not _is_count(fail["channel"]) or fail["channel"] < 1:
                raise ConfigError("failing_sensor channel is a 1-based integer, "
                                  f"got {fail['channel']!r}")
            if fail["channel"] > model.p:
                raise ConfigError(f"failing_sensor channel {fail['channel']} exceeds the "
                                  f"plant's {model.p} outputs")
            if not all(math.isfinite(fail[k]) for k in ("start", "end", "scale")):
                raise ConfigError("failing_sensor start, end and scale must be finite")
            if fail["start"] > fail["end"]:
                raise ConfigError("failing_sensor start is after its end")
        measurement, process = (None if b is None else (float(b["low"]), float(b["high"]))
                                for b in (self.measurement, self.process))
        noise = NoiseModel(seed=seed, measurement=measurement, process=process)
        through_b = bool((self.process or {}).get("through_input_matrix", False))
        steps = stop - start
        E = noise.draw_measurement((steps, model.p))
        if fail is not None:
            t = np.arange(start, stop)
            window = (fail["start"] <= t) & (t < fail["end"])
            E[window, fail["channel"] - 1] *= float(fail["scale"])
        Q = noise.draw_process((steps, model.m if through_b else model.n))

        def draw(t: int) -> tuple[np.ndarray, np.ndarray]:
            row = t - start
            return E[row], (model.B.dot(Q[row]) if through_b else Q[row])

        return draw


#: older name of ``ControllerConfig``; the benchmark's workloads
#: (``perfbench/workloads.py``) still build config sections with it
ControllerSpec = ControllerConfig

#: the controller settings a config file may leave out
_CONTROLLER_DEFAULTS = {"gamma": 0.1, "mu": 2, "n": 1}


@dataclass
class CostSpec:
    type: str = "hvac_schedule"     # or "quadratic", "softplus", "schedule"
    params: dict = field(default_factory=dict)

    def build(self, m: int, p: int) -> CostFunction:
        if self.type == "hvac_schedule":
            return hvac_cost_schedule(p=p, m=m, **self.params)
        static = {"quadratic": QuadraticTrackingCost,
                  "softplus": QuadraticSoftplusCost}.get(self.type)
        if static is not None:
            # the parameters are the cost's fields: H, target, and softplus's a, c
            _refuse_unknown("cost parameters", self.params,
                            {f.name for f in fields(static)})
            cost = static(**self.params)
            if cost.target.size != m + p:
                raise ConfigError(f"the cost's target has {cost.target.size} entries, "
                                  f"but z = (u, y) has {m + p}")
            return cost
        if self.type == "schedule":
            _refuse_unknown("cost parameters", self.params, {"segments", "price_series"})
            for s in self.params["segments"]:
                _refuse_unknown("cost segment keys", s, {"start", "output_weight",
                                                        "input_weight", "setpoint"})
            segments = [
                CostSegment(start=_index(s["start"], "segment start"),
                            output_weight=np.asarray(s["output_weight"], dtype=float),
                            input_weight=float(s["input_weight"]),
                            setpoint=np.asarray(s["setpoint"], dtype=float))
                for s in self.params["segments"]
            ]
            cost = QuadraticScheduledCost(
                m=m, segments=segments,
                price_series=np.asarray(self.params["price_series"], dtype=float))
            if cost.p != p:
                raise ConfigError(f"the cost's setpoints have {cost.p} entries, "
                                  f"but y has {p}")
            return cost
        raise ConfigError(f"unknown cost type {self.type!r}")


@dataclass
class OfflineSpec:
    N: int = 100
    input_low: float = -1.0
    input_high: float = 1.0
    seed: int = 12345


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one closed-loop experiment."""

    plant: PlantSpec = field(default_factory=PlantSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    controller: ControllerConfig = field(
        default_factory=lambda: ControllerConfig(**_CONTROLLER_DEFAULTS))
    cost: CostSpec = field(default_factory=CostSpec)
    offline: OfflineSpec = field(default_factory=OfflineSpec)
    horizon: int = 100
    output_dir: str | None = None

    def build(self, *, seed: int | None = None, mu: int | None = None,
              gamma: float | None = None) -> tuple:
        """Make every object the config describes, with the flag overrides applied.

        Returns ``(model, x0, cost, controller, draw_noise, seed)``: the
        plant and its initial state, the cost, the ``ControllerConfig``
        with the overrides, the noise draw ``draw(t) -> (e, q)`` and the
        noise seed. This is the one check of a config: a problem found here
        raises ``ConfigError``. What needs the offline record (its length,
        its excitation and its factors) is checked when the controller is
        built on it.
        """
        try:
            for name, count, least in (("horizon", self.horizon, 0),
                                       ("offline.N", self.offline.N, 1),
                                       ("offline.seed", self.offline.seed, 0),
                                       ("noise.seed", self.noise.seed, 0)):
                if not _is_count(count):
                    raise ConfigError(f"{name} must be an integer, got {count!r}")
                if count < least:
                    raise ConfigError(f"{name} must be at least {least}, got {count}")
            low, high = self.offline.input_low, self.offline.input_high
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ConfigError("offline input box must be finite")
            # a box of zero width draws a constant input, which excites nothing
            if not low < high:
                raise ConfigError("offline input box needs input_low < input_high")
            if not isinstance(self.output_dir, (str, type(None))):
                raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
            run_seed = self.noise.seed if seed is None else int(seed)
            overrides = {"gamma": None if gamma is None else float(gamma),
                         "mu": None if mu is None else int(mu)}
            controller = replace(self.controller,
                                 **{k: v for k, v in overrides.items() if v is not None})
            model, x0 = self.plant.build()
            cost = self.cost.build(model.m, model.p)
            steps = getattr(cost, "horizon", None)
            if steps is not None and steps < self.horizon + 1:
                raise ConfigError(f"the cost covers {steps} steps, but a run of "
                                  f"horizon {self.horizon} takes {self.horizon + 1}")
            draw_noise = self.noise.build(model, run_seed, -controller.n,
                                          self.horizon + 1)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(f"invalid config: {what}") from exc
        return model, x0, cost, controller, draw_noise, run_seed

    def validate(self) -> None:
        """Raise ``ConfigError`` on anything ``build`` finds."""
        self.build()

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a parsed JSON object; keys starting with ``_`` are comments."""
        unknown = sorted(k for k in d if k not in {f.name for f in fields(cls)}
                         and not k.startswith("_"))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        try:
            return cls(
                plant=PlantSpec(**d.get("plant", {})),
                noise=NoiseSpec(**d.get("noise", {})),
                controller=ControllerConfig(
                    **{**_CONTROLLER_DEFAULTS, **d.get("controller", {})}),
                cost=CostSpec(**d.get("cost", {})),
                offline=OfflineSpec(**d.get("offline", {})),
                horizon=d.get("horizon", 100),
                output_dir=d.get("output_dir"),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        cfg = cls.from_dict(data)
        cfg.validate()
        return cfg


def shipped_config_path() -> Path:
    """Path of the thermal-day configuration shipped inside the package."""
    from importlib.resources import files

    return Path(str(files("ddcontrol").joinpath("configs/hvac_day.json")))


# --------------------------------------------------------------------------
# closed-loop runner
# --------------------------------------------------------------------------

#: offline records of the recipes used last (``_offline_record``)
_RECORDS: OrderedDict = OrderedDict()


def _offline_record(model: PlantModel, spec: OfflineSpec):
    """The record of a recipe, keyed by the model, which only the runner sees."""
    recipe = {"N": spec.N, "input_box": (spec.input_low, spec.input_high),
              "seed": spec.seed}
    key = (tuple((M.shape, M.tobytes()) for M in (model.A, model.B, model.C, model.D)),
           tuple(recipe.items()))
    return memoized(_RECORDS, key, lambda: collect_offline_data(model, **recipe))


def run_experiment(config: ExperimentConfig, *, seed: int | None = None,
                   out_dir=None, mu: int | None = None,
                   gamma: float | None = None,
                   cost: CostFunction | None = None):
    """Execute one closed-loop experiment.

    Per step the runner (1) asks the controller for an input without
    revealing the current cost, (2) steps the plant and takes the
    measurement, (3) reveals the cost for use at the next step. Flag-style
    overrides (seed, mu, gamma) take precedence over the file values and
    are validated with them; an invalid one raises ``ConfigError``.

    ``cost`` replaces the configured cost object (used by tests that wrap
    the cost with an access recorder). The runner is the one per-step
    recorder: after each step it copies the controller's ``last`` record
    into the run's arrays. The best equilibria ``zeta_t`` that regret is
    measured against do not depend on the loop: one call after it solves
    them for all t, reading the cost's array forms (see ``CostFunction``),
    and ``stacked_eval`` gives their costs. A summary value that is not
    finite raises ``FeasibilityError``, naming the first step whose u, y,
    e_hat, cost or opt_cost is not finite.
    A step that raises ``FeasibilityError`` at t ends the run: the t rows before
    it still go to ``trace.csv``, with no summary, and it raises ``step t: ...``.

    Returns ``(record, summary)``.
    """
    model, x0, config_cost, cc, draw_noise, run_seed = config.build(
        seed=seed, mu=mu, gamma=gamma)
    T = config.horizon

    data = _offline_record(model, config.offline)

    cost = cost if cost is not None else config_cost
    step_size_ok = check_step_size(cc.gamma, cost.alpha_z, cost.l_z)
    controller = Controller(cc, data)

    # warmup: the plant runs uncontrolled (zero input) for the first n
    # steps while the controller only listens
    x = x0.copy()
    first_meas = np.empty((cc.n, model.p))
    for k in range(cc.n):
        e, q = draw_noise(k - cc.n)
        x, _, first_meas[k] = step(model, x, np.zeros(model.m), e, q)
    controller.start(first_meas)

    m = model.m
    # u and y side by side: row t is the point the cost of step t is taken at
    uy_log = np.empty((T + 1, m + model.p))
    ymeas_log = np.empty((T + 1, model.p))
    ehat_log = np.empty((T + 1, model.p))
    etrue_log = np.empty((T + 1, model.p))
    zs_log = np.empty((T + 1, model.m + model.p))
    cost_log = np.empty(T + 1)
    gnorm_log = np.empty(T + 1)
    ares_log = np.empty(T + 1)
    bres_log = np.empty(T + 1)

    y_meas_prev = None
    revealed = None                      # cost revealed so far (one-step delay)
    failure = None
    for t in range(T + 1):
        try:
            u_t = controller.step(y_meas=y_meas_prev, prev_cost=revealed)
        except FeasibilityError as exc:
            failure = exc
            break
        d = controller.last
        if t > 0:
            # the estimate for the measurement taken after step t-1
            ehat_log[t - 1] = d.e_hat
        e, q = draw_noise(t)
        x, y_t, y_meas = step(model, x, u_t, e, q)
        # the cost at time t becomes visible only now
        revealed = cost
        uy = uy_log[t]
        uy[:m], uy[m:] = u_t, y_t
        ymeas_log[t], etrue_log[t] = y_meas, e
        zs_log[t] = d.z_s
        gnorm_log[t], ares_log[t], bres_log[t] = (
            d.g_norm, d.alpha_residual, d.beta_residual)
        cost_log[t] = cost.eval(t, uy)
        y_meas_prev = y_meas
    # a failed step t leaves t rows; its noise estimate is the last row's
    done = T + 1 if failure is None else t
    if done:
        ehat_log[done - 1] = controller.noise_estimate(y_meas_prev)
    # the last draws are views of the run's noise blocks; dropping them
    # frees the blocks before the oracle and the summary allocate
    del draw_noise, e, q

    times = np.arange(done)
    try:
        zeta_log = optimal_steady_state(controller.projector, cost, times)
    except NonConvergenceError:  # a failed step's costs can break the oracle too
        if failure is None:
            raise
        zeta_log = np.full((done, m + model.p), np.nan)
    opt_log = cost.stacked_eval(times, zeta_log)

    k = slice(done)
    record = RunRecord(u=uy_log[k, :m], y=uy_log[k, m:], y_meas=ymeas_log[k],
                       e_hat=ehat_log[k], z_s=zs_log[k], zeta=zeta_log,
                       cost=cost_log[k], opt_cost=opt_log,
                       e_true=etrue_log[k], g_norm=gnorm_log[k],
                       alpha_residual=ares_log[k], beta_residual=bres_log[k])
    target_dir = out_dir if out_dir is not None else config.output_dir
    if target_dir is not None:
        target_dir = Path(target_dir)
        target_dir.mkdir(parents=True, exist_ok=True)
        write_trace_csv(target_dir / "trace.csv", record)
    if failure is not None:
        bound = "" if step_size_ok else (f"; gamma={cc.gamma:.3g} exceeds 2/(alpha_z + l_z)="
                                         f"{step_size_limit(cost.alpha_z, cost.l_z):.3g}")
        raise FeasibilityError(f"step {done}: {failure}{bound}") from failure
    summary = metrics.summarize(record, seed=run_seed, gamma=cc.gamma, mu=cc.mu)
    summary["accumulated_cost"] = float(cost_log.sum())
    # one check after the loop, so that no step pays for it: a finite
    # value so large that the loop overflows must not pass as a result
    bad = [key for key, value in summary.items() if not np.isfinite(value)]
    if bad:
        rows = np.column_stack([uy_log, ehat_log, cost_log, opt_log])
        steps = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        where = f"step {steps[0]} has" if steps.size else "no step has"
        raise FeasibilityError(f"the run's {bad[0]} is not finite: {where} a "
                               "non-finite u, y, e_hat, cost or opt_cost")
    if target_dir is not None:
        metrics.write_summary_csv(target_dir / "summary.csv", [summary])
    return record, summary


def write_trace_csv(path, record: RunRecord) -> None:
    """Per-step trace with a fixed column schema and 17-digit floats.

    The columns are the step index, the applied input, the true and the
    measured output, the noise estimate, the steady-state estimate (input
    then output part), the closed-loop and oracle cost, the steering-target
    norm and the two solve residuals.
    """
    m = record.u.shape[1]
    p = record.y.shape[1]
    header = (["t"]
              + [f"u_{i + 1}" for i in range(m)]
              + [f"y_{i + 1}" for i in range(p)]
              + [f"ytilde_{i + 1}" for i in range(p)]
              + [f"ehat_{i + 1}" for i in range(p)]
              + [f"us_{i + 1}" for i in range(m)]
              + [f"ys_{i + 1}" for i in range(p)]
              + ["cost", "opt_cost", "g_norm", "alpha_residual", "beta_residual"])
    table = np.column_stack([
        np.arange(len(record.u)), record.u, record.y, record.y_meas,
        record.e_hat, record.z_s, record.cost, record.opt_cost,
        record.g_norm, record.alpha_residual, record.beta_residual])
    # CSV rows as csv.writer would end them, on every platform (a file that
    # savetxt opened itself would turn each "\n" into os.linesep); no cell
    # needs quoting
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=",".join(header),
                   comments="", newline="\r\n")


# --------------------------------------------------------------------------
# command-line interface
# --------------------------------------------------------------------------

def demo_siso_config() -> ExperimentConfig:
    """Tiny built-in single-input single-output example."""
    return ExperimentConfig(
        plant=PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]], C=[[1.0]],
                        D=[[0.0]], initial_state=[1.0]),
        noise=NoiseSpec(seed=7, measurement={"low": -0.05, "high": 0.05}),
        controller=ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity"),
        cost=CostSpec(type="schedule", params={
            "segments": [
                {"start": 0, "output_weight": [[1.0]], "input_weight": 10.0,
                 "setpoint": [1.0]},
                {"start": 150, "output_weight": [[1.0]], "input_weight": 10.0,
                 "setpoint": [2.0]},
            ],
            "price_series": [1.0] * 301,
        }),
        offline=OfflineSpec(N=60, seed=3),
        horizon=300,
    )


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code instead of raising SystemExit.

    Exit codes: 0 success, 2 missing/invalid configuration or flags,
    1 runtime failure.
    """
    parser = argparse.ArgumentParser(
        prog="ddcontrol",
        description="Closed-loop experiments with the data-driven online controller")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override the noise seed")
    run_p.add_argument("--out", default=None, help="directory for trace/summary CSVs")
    run_p.add_argument("--mu", type=int, default=None, help="override the prediction horizon")
    run_p.add_argument("--gamma", type=float, default=None, help="override the step size")

    val_p = sub.add_parser("validate", help="check a JSON config without running")
    val_p.add_argument("--config", required=True)

    demo_p = sub.add_parser("demo-siso", help="run the built-in scalar example")
    demo_p.add_argument("--out", default="demo_siso_out",
                        help="directory for trace/summary CSVs")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        if args.command == "validate":
            ExperimentConfig.from_json(args.config)
            print(f"config ok: {args.config}")
            return 0
        # a run raises on a non-finite result; numpy's warnings would bury it
        quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")
        if args.command == "run":
            config = ExperimentConfig.from_json(args.config)
            with quiet:
                _, summary = run_experiment(config, seed=args.seed, out_dir=args.out,
                                            mu=args.mu, gamma=args.gamma)
            _print_summary(summary)
            return 0
        if args.command == "demo-siso":
            with quiet:
                _, summary = run_experiment(demo_siso_config(), out_dir=args.out)
            _print_summary(summary)
            print(f"trace written to {Path(args.out) / 'trace.csv'}")
            return 0
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _print_summary(summary: dict) -> None:
    for key in metrics.SUMMARY_COLUMNS + ["accumulated_cost"]:
        if key in summary:
            print(f"{key}: {summary[key]}")


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
