"""Experiment runner: JSON configs, closed-loop orchestration, CSV output.

The runner owns the information pattern: at every step the controller
commits its input before the plant is stepped, the measurement is taken,
and only then is the current cost made available (it reaches the
controller one step later as ``prev_cost``). Traces and per-run summaries
are written as CSV with 17 significant digits so runs replay bit-exactly.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics
from .controller import Controller, ControllerConfig, check_step_size
from .costs import (CostFunction, CostSegment, QuadraticScheduledCost,
                    QuadraticTrackingCost, hvac_cost_schedule)
from .metrics import RunRecord
from .plant import (NoiseModel, PlantModel, ThermalZoneParams, build_hvac,
                    collect_offline_data, step)
from .steady_state import optimal_steady_state


class ConfigError(ValueError):
    """Configuration file or override is missing, unparsable, or invalid."""


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
                params.r_between = {(int(i), int(j)): float(r)
                                    for i, j, r in overrides.pop("r_between")}
            if "sample_time" in overrides:
                params.sample_time = float(overrides.pop("sample_time"))
            if "sensor_zones" in overrides:
                params.sensor_zones = tuple(int(z) for z in overrides.pop("sensor_zones"))
            if overrides:
                raise ConfigError(f"unknown hvac parameters: {sorted(overrides)}")
            model = build_hvac(params)
        else:
            raise ConfigError(f"unknown plant type {self.type!r}")
        x0 = np.zeros(model.n) if self.initial_state is None \
            else np.asarray(self.initial_state, dtype=float)
        if x0.shape != (model.n,):
            raise ConfigError(f"initial_state must have {model.n} entries")
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
            if fail["channel"] != int(fail["channel"]) or fail["channel"] < 1:
                raise ConfigError(
                    f"failing_sensor channel is 1-based, got {fail['channel']}")
            if fail["channel"] > model.p:
                raise ConfigError(f"failing_sensor channel {fail['channel']} exceeds the "
                                  f"plant's {model.p} outputs")
            if float(fail["start"]) > float(fail["end"]):
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
            E[window, int(fail["channel"]) - 1] *= float(fail["scale"])
        Q = noise.draw_process((steps, model.m if through_b else model.n))

        def draw(t: int) -> tuple[np.ndarray, np.ndarray]:
            row = t - start
            return E[row], (model.B @ Q[row] if through_b else Q[row])

        return draw


#: older name of ``ControllerConfig``; the benchmark's workloads
#: (``perfbench/workloads.py``) still build config sections with it
ControllerSpec = ControllerConfig

#: the controller settings a config file may leave out
_CONTROLLER_DEFAULTS = {"gamma": 0.1, "mu": 2, "n": 1}


@dataclass
class CostSpec:
    type: str = "hvac_schedule"             # "hvac_schedule" | "quadratic" | "schedule"
    params: dict = field(default_factory=dict)

    def build(self, m: int, p: int) -> CostFunction:
        if self.type == "hvac_schedule":
            return hvac_cost_schedule(p=p, m=m, **self.params)
        if self.type == "quadratic":
            _refuse_unknown("cost parameters", self.params, {"H", "target"})
            return QuadraticTrackingCost(
                H=np.asarray(self.params["H"], dtype=float),
                target=np.asarray(self.params["target"], dtype=float))
        if self.type == "schedule":
            _refuse_unknown("cost parameters", self.params, {"segments", "price_series"})
            for s in self.params["segments"]:
                _refuse_unknown("cost segment keys", s, {"start", "output_weight",
                                                        "input_weight", "setpoint"})
            segments = [
                CostSegment(start=int(s["start"]),
                            output_weight=np.asarray(s["output_weight"], dtype=float),
                            input_weight=float(s["input_weight"]),
                            setpoint=np.asarray(s["setpoint"], dtype=float))
                for s in self.params["segments"]
            ]
            return QuadraticScheduledCost(
                m=m, segments=segments,
                price_series=np.asarray(self.params["price_series"], dtype=float))
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
        its excitation and its factors) is checked when the run collects it.
        """
        try:
            if self.horizon < 0:
                raise ConfigError("horizon must be at least 0")
            if self.offline.input_low > self.offline.input_high:
                raise ConfigError("offline input box is reversed")
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
        except (KeyError, TypeError, ValueError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(f"invalid config: {what}") from exc
        return model, x0, cost, controller, draw_noise, run_seed

    def validate(self) -> None:
        """Raise ``ConfigError`` on anything ``build`` finds."""
        self.build()

    def to_dict(self) -> dict:
        return asdict(self)

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
                horizon=int(d.get("horizon", 100)),
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

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def shipped_config_path(name: str = "hvac_day") -> Path:
    """Path of a configuration file shipped inside the package."""
    from importlib.resources import files

    return Path(str(files("ddcontrol").joinpath(f"configs/{name}.json")))


# --------------------------------------------------------------------------
# closed-loop runner
# --------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig, *, seed: int | None = None,
                   out_dir=None, mu: int | None = None,
                   gamma: float | None = None,
                   cost: CostFunction | None = None,
                   check_identities: bool = False):
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
    them for all t, and each run of equal cost parameters is evaluated
    once.

    Returns ``(record, summary)``.
    """
    model, x0, config_cost, cc, draw_noise, run_seed = config.build(
        seed=seed, mu=mu, gamma=gamma)
    T = config.horizon

    data = collect_offline_data(
        model, config.offline.N, pe_order=3 * cc.n + cc.mu + 1,
        input_box=(config.offline.input_low, config.offline.input_high),
        seed=config.offline.seed)

    cost = cost if cost is not None else config_cost
    check_step_size(cc.gamma, cost.alpha_z, cost.l_z)
    controller = Controller(cc, data, check_identities=check_identities)

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
    max_violation = max_membership = 0.0
    z_s_init = np.zeros(model.m + model.p)

    y_meas_prev = None
    revealed = None                      # cost revealed so far (one-step delay)
    for t in range(T + 1):
        u_t = controller.step(y_meas=y_meas_prev, prev_cost=revealed)
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
        if check_identities:
            max_violation = max(max_violation, d.identity_violation or 0.0)
            max_membership = max(max_membership, d.membership)
        cost_log[t] = cost.eval(t, uy)
        y_meas_prev = y_meas
    ehat_log[T] = controller.noise_estimate(y_meas_prev)
    # the last draws are views of the run's noise blocks; dropping them
    # frees the blocks before the oracle and the summary allocate
    del draw_noise, e, q

    # within a run of equal cost parameters the minimizer and its cost are
    # the same, so each is computed once per run and repeated
    starts, zeta_runs = optimal_steady_state(
        controller.projector, cost, np.arange(T + 1))
    lengths = np.diff(starts, append=T + 1)
    zeta_log = np.repeat(zeta_runs, lengths, axis=0)
    opt_log = np.repeat([cost.eval(int(t), z) for t, z in zip(starts, zeta_runs)],
                        lengths)

    record = RunRecord(u=uy_log[:, :m], y=uy_log[:, m:], y_meas=ymeas_log,
                       e_hat=ehat_log, z_s=zs_log, zeta=zeta_log, cost=cost_log,
                       opt_cost=opt_log, z_s_init=z_s_init, e_true=etrue_log,
                       g_norm=gnorm_log, alpha_residual=ares_log,
                       beta_residual=bres_log)
    if check_identities:
        record.extras["max_identity_violation"] = max_violation
        record.extras["max_membership_residual"] = max_membership
    summary = metrics.summarize(record, seed=run_seed, gamma=cc.gamma, mu=cc.mu)
    summary["accumulated_cost"] = float(cost_log.sum())

    target_dir = out_dir if out_dir is not None else config.output_dir
    if target_dir is not None:
        target_dir = Path(target_dir)
        target_dir.mkdir(parents=True, exist_ok=True)
        write_trace_csv(target_dir / "trace.csv", record)
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
        if args.command == "run":
            config = ExperimentConfig.from_json(args.config)
            _, summary = run_experiment(config, seed=args.seed, out_dir=args.out,
                                        mu=args.mu, gamma=args.gamma)
            _print_summary(summary)
            return 0
        if args.command == "demo-siso":
            config = demo_siso_config()
            _, summary = run_experiment(config, out_dir=args.out)
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
