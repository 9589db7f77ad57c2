"""Inputs and output checks of the benchmark workloads.

A run of the benchmark repeats one *unit* of work until its time is up.
Unit k of a workload draws every input from ``(seed, k)``, so the same
seed gives the same inputs; the package only ever receives the
``ExperimentConfig`` objects built here and runs them through
``harness.run_experiment``, its one closed-loop code path.

- ``thermal_day``: one run of the shipped five-zone config with trace and
  summary CSVs written, as ``ddcontrol run --out`` does. Unit 0 is the
  shipped config with the workload seed as noise seed; later units also
  draw fresh offline data, so no two runs share work.
- ``scalar_long``: the scalar reference plant (A=0.5, n=1, mu=2, N=60)
  over 20 000 steps under a setpoint schedule with a few seed-drawn
  switches and a constant price.
- ``thermal_sweep``: the shipped config at mu=10 and mu=30 for one noise
  seed; every run rebuilds and refactors the same offline data.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ddcontrol import harness

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 0
GOLDEN_KEYS = ("regret", "path_length", "accumulated_cost", "final_noise_error")
GOLDEN_RTOL = 1e-9

#: bound on the thermal outputs, as in acceptance criterion 10
Y_LIMIT = 50.0
SCALAR_HORIZON = 20_000
SWEEP_MUS = (10, 30)


@dataclass(frozen=True)
class Run:
    """Arguments of one ``run_experiment`` call."""

    config: harness.ExperimentConfig
    seed: int                   # noise seed
    mu: int | None = None       # prediction-horizon override
    write_csv: bool = False


def unit(workload: str, seed: int, k: int) -> list[Run]:
    """The runs of unit ``k`` of a workload under a workload seed."""
    rng = np.random.default_rng([seed, k])

    def draw() -> int:
        return int(rng.integers(2 ** 31))

    noise_seed = seed if k == 0 else draw()
    if workload == "thermal_day":
        config = thermal_config()
        if k > 0:
            config.offline.seed = draw()
        return [Run(config, noise_seed, write_csv=True)]
    if workload == "thermal_sweep":
        return [Run(thermal_config(), noise_seed, mu=mu) for mu in SWEEP_MUS]
    if workload == "scalar_long":
        return [Run(scalar_config(rng), noise_seed)]
    raise ValueError(f"unknown workload {workload!r}")


def thermal_config() -> harness.ExperimentConfig:
    return harness.ExperimentConfig.from_json(harness.shipped_config_path())


def scalar_config(rng: np.random.Generator) -> harness.ExperimentConfig:
    """Scalar plant under a schedule with 3 to 6 switches in the first 3/4.

    The last switch leaves at least 5000 steps to settle, so every run
    must end converged.
    """
    T = SCALAR_HORIZON
    switches = rng.choice(np.arange(1, 3 * T // 4), size=int(rng.integers(3, 7)),
                          replace=False)
    starts = [0] + sorted(int(s) for s in switches)
    setpoints = rng.uniform(-2.0, 2.0, size=len(starts))
    segments = [{"start": s, "output_weight": [[1.0]], "input_weight": 2.0,
                 "setpoint": [float(v)]} for s, v in zip(starts, setpoints)]
    return harness.ExperimentConfig(
        plant=harness.PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]],
                                C=[[1.0]], D=[[0.0]]),
        noise=harness.NoiseSpec(measurement={"low": -0.1, "high": 0.1}),
        # the critical step size 2/(alpha_z + l_z) of the cost below
        controller=harness.ControllerSpec(gamma=2.0 / 3.0, mu=2, n=1,
                                          q_mode="identity"),
        cost=harness.CostSpec(type="schedule", params={
            "segments": segments, "price_series": [1.0] * (T + 1)}),
        offline=harness.OfflineSpec(N=60, seed=3),
        horizon=T,
    )


def check(workload: str, record, summary: dict) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct."""
    problems = []
    series = (record.u, record.y, record.y_meas, record.e_hat, record.z_s,
              record.zeta, record.cost, record.opt_cost)
    if not (all(np.isfinite(s).all() for s in series)
            and all(math.isfinite(summary[key]) for key in GOLDEN_KEYS)):
        problems.append("non-finite output")
    if workload == "scalar_long":
        if summary["steps_to_converge"] == -1:
            problems.append("closed loop did not converge")
    elif not np.abs(record.y).max() < Y_LIMIT:
        problems.append(f"|y| reached {np.abs(record.y).max():.3g} >= {Y_LIMIT}")
    return problems


def golden_values(summary: dict) -> dict:
    return {key: summary[key] for key in GOLDEN_KEYS}


def check_golden(workload: str, index: int, summary: dict) -> list[str]:
    """Compare run ``index`` of unit 0 under the golden seed to golden.json."""
    want = json.loads(GOLDEN_PATH.read_text())[workload][index]
    return [f"{key} = {summary[key]!r}, golden {want[key]!r}"
            for key in GOLDEN_KEYS
            if not abs(summary[key] - want[key]) <= GOLDEN_RTOL * abs(want[key])]
