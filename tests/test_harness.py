import ast
import copy
import csv
import importlib.util
import json
import re
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from ddcontrol.behavioral import Trajectory
from ddcontrol.controller import Controller, ControllerConfig
from ddcontrol.costs import (CostFunction, QuadraticSoftplusCost,
                             QuadraticTrackingCost, hvac_cost_schedule)
from ddcontrol.harness import (ConfigError, CostSpec, ExperimentConfig,
                               NoiseSpec, OfflineSpec, PlantSpec, cli_main,
                               demo_siso_config, run_experiment,
                               shipped_config_path)
from ddcontrol.errors import FeasibilityError, PersistencyError
from ddcontrol.plant import NoiseModel, collect_offline_data, step

from helpers import (checked_run, coefficient_matrices, random_system, reference_cost,
                     reference_plant_step, reference_step)


@pytest.fixture()
def small_config():
    cfg = demo_siso_config()
    cfg.horizon = 40
    cfg.cost.params["price_series"] = [1.0] * 41
    cfg.cost.params["segments"][1]["start"] = 20
    return cfg


# ---------------------------------------------------------------- config

def _write_config(config: ExperimentConfig, path: Path) -> None:
    path.write_text(json.dumps(asdict(config), indent=2, sort_keys=True))


def test_config_round_trip(tmp_path, small_config):
    path = tmp_path / "conf.json"
    _write_config(small_config, path)
    back = ExperimentConfig.from_json(path)
    assert back == small_config
    # serialize -> parse -> serialize is also stable
    path2 = tmp_path / "conf2.json"
    _write_config(back, path2)
    assert path.read_text() == path2.read_text()


def test_shipped_config_parses_and_validates():
    cfg = ExperimentConfig.from_json(shipped_config_path())
    assert cfg.horizon == 1439
    assert cfg.controller.gamma == 0.15
    assert cfg.controller.n == 5
    model, x0 = cfg.plant.build()
    assert (model.n, model.m, model.p) == (5, 5, 3)
    assert_allclose(x0, 2.0 * np.ones(5))


def test_config_errors():
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_json("/nonexistent/conf.json")
    cfg = demo_siso_config()
    cfg.controller.gamma = -0.1
    with pytest.raises(ConfigError, match="gamma must be positive"):
        cfg.validate()
    cfg2 = demo_siso_config()
    cfg2.plant.type = "warp-drive"
    with pytest.raises(ConfigError, match="unknown plant type"):
        cfg2.plant.build()


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_json(path)


# ---------------------------------------------------------------- runner

def test_deterministic_replay(tmp_path, small_config):
    run_experiment(small_config, out_dir=tmp_path / "a")
    run_experiment(small_config, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "trace.csv").read_bytes() \
        == (tmp_path / "b" / "trace.csv").read_bytes()
    assert (tmp_path / "a" / "summary.csv").read_bytes() \
        == (tmp_path / "b" / "summary.csv").read_bytes()


def test_different_seed_changes_trace(tmp_path, small_config):
    run_experiment(small_config, out_dir=tmp_path / "a")
    run_experiment(small_config, out_dir=tmp_path / "c", seed=99)
    assert (tmp_path / "a" / "trace.csv").read_bytes() \
        != (tmp_path / "c" / "trace.csv").read_bytes()


def test_horizon_zero_single_step(small_config):
    small_config.horizon = 0
    record, summary = run_experiment(small_config)
    assert len(record.u) == 1
    assert_allclose(summary["regret"], record.cost[0] - record.opt_cost[0])


def test_flag_overrides_take_precedence(small_config):
    record, summary = run_experiment(small_config, mu=3, gamma=0.05, seed=123)
    assert summary["mu"] == 3
    assert summary["gamma"] == 0.05
    assert summary["seed"] == 123


def test_invalid_flag_overrides_are_config_errors(small_config):
    # overrides are validated with the file values, by the one config check
    with pytest.raises(ConfigError, match="mu must be at least 1"):
        run_experiment(small_config, mu=0)
    with pytest.raises(ConfigError, match="gamma must be positive"):
        run_experiment(small_config, gamma=-1.0)


def test_large_step_size_warns(small_config):
    # the cost's alpha_z + l_z is 11, so gamma = 1 is above the limit 2/11
    with pytest.warns(UserWarning, match="exceeds"):
        run_experiment(small_config, gamma=1.0)


@pytest.mark.parametrize("plant", ["scalar", "thermal"])
def test_noisy_offline_record_is_refused_or_controls(monkeypatch, plant):
    # noisy offline outputs are no trajectory of the plant; a run must
    # refuse them when the controller is built (the only place that raises
    # PersistencyError) or control the plant, never run on with zero input
    import ddcontrol.harness as harness_module

    config = demo_siso_config() if plant == "scalar" \
        else ExperimentConfig.from_json(shipped_config_path())
    config.horizon = 30
    real_collect = harness_module.collect_offline_data
    refused = []
    for sigma in (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
        def noisy_collect(*args, _sigma=sigma, **kwargs):
            data = real_collect(*args, **kwargs)
            noise = np.random.default_rng(0).normal(size=data.outputs.shape)
            return Trajectory(data.inputs, data.outputs + _sigma * noise)

        monkeypatch.setattr(harness_module, "collect_offline_data", noisy_collect)
        try:
            record, _ = run_experiment(config)
        except PersistencyError:
            refused.append(sigma)
            continue
        assert np.abs(record.u).max() > 1e-3, sigma
    assert 0.0 not in refused and 1e-2 in refused


def test_failing_sensor_scales_window_only(small_config):
    small_config.noise.measurement = {"low": -0.1, "high": 0.1}
    small_config.noise.failing_sensor = {"channel": 1, "start": 10,
                                         "end": 20, "scale": 50.0}
    record, _ = run_experiment(small_config)
    e = np.abs(record.e_true[:, 0])
    assert e[10:20].max() > 0.5          # scaled far beyond the base bound
    assert e[:10].max() <= 0.1 + 1e-12
    assert e[20:].max() <= 0.1 + 1e-12


@pytest.mark.parametrize("measurement, process", [
    ({"low": -0.3, "high": 0.2}, {"low": -0.1, "high": 0.05}),
    ({"low": -0.3, "high": 0.2},
     {"low": -0.1, "high": 0.05, "through_input_matrix": True}),
    (None, None),
], ids=["process-on-state", "process-through-input", "noise-free"])
def test_noise_block_rows_equal_per_step_draws(measurement, process):
    # a generator fills a block in the order of the per-step draws it
    # replaces, so every row, warm-up rows included, must equal them
    model = random_system(np.random.default_rng(8), 4, 2, 3)
    fail = {"channel": 2, "start": 5, "end": 12, "scale": 7.5}
    start, stop = -4, 30
    draw = NoiseSpec(measurement=measurement, process=process,
                     failing_sensor=fail).build(model, 11, start, stop)
    through_b = bool((process or {}).get("through_input_matrix"))
    noise = NoiseModel(seed=11,
                       measurement=None if measurement is None else (-0.3, 0.2),
                       process=None if process is None else (-0.1, 0.05))
    for t in range(start, stop):
        e = noise.draw_measurement(model.p)
        if fail["start"] <= t < fail["end"]:
            e[fail["channel"] - 1] *= fail["scale"]
        q = noise.draw_process(model.m if through_b else model.n)
        if through_b:
            q = model.B @ q
        e_row, q_row = draw(t)
        assert np.array_equal(e_row, e) and np.array_equal(q_row, q), t


def test_identity_stats_exposed(small_config):
    run = checked_run(small_config)
    assert run.violation <= run.bound
    assert run.membership <= 1e-8


def random_plant_config(rng, n, m, p, seed):
    """60-step tracking run on a random minimal plant with n states."""
    model = random_system(rng, n, m, p)
    return ExperimentConfig(
        plant=PlantSpec(type="matrices", A=model.A.tolist(), B=model.B.tolist(),
                        C=model.C.tolist(), D=model.D.tolist(),
                        initial_state=rng.normal(size=n).tolist()),
        noise=NoiseSpec(seed=seed, measurement={"low": -0.05, "high": 0.05}),
        controller=ControllerConfig(gamma=0.3, mu=n, n=n, q_mode="identity"),
        cost=CostSpec(type="quadratic", params={
            "H": np.eye(m + p).tolist(), "target": rng.normal(size=m + p).tolist()}),
        offline=OfflineSpec(N=150, seed=seed),
        horizon=60,
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_self_checks_hold_on_multi_state_plants(n):
    # at n = 1 a one-sample history is unconstrained, so the membership
    # check only bites on plants with n >= 2
    config = random_plant_config(np.random.default_rng(40 + n), n, 2, 2, seed=n)
    run = checked_run(config)
    assert run.violation <= run.bound
    assert run.membership <= 1e-8


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 10 ** 6))
@example(5, 2, 1, 889143)
@example(5, 2, 1, 969146)
def test_self_checks_hold_on_drawn_plants(n, m, p, seed):
    # the two examples are poorly observable (cond_r of H_beta 1e7 and
    # 1.6e6): their identities read 9.0e-11 and 3.2e-11, round-off at that
    # conditioning, which ``identity_bound`` scales with
    config = random_plant_config(np.random.default_rng(seed), n, m, p, seed)
    run = checked_run(config)
    assert run.violation <= run.bound
    assert run.membership <= 1e-8


def test_self_checks_hold_on_thermal_plant():
    config = ExperimentConfig.from_json(shipped_config_path())
    config.horizon = 40
    run = checked_run(config)
    assert run.violation <= run.bound
    assert run.membership <= 1e-8


def test_regularized_initialization_through_runner(small_config):
    small_config.controller.init_mode = "regularized"
    small_config.controller.lambda_init = 1.0
    _, summary = run_experiment(small_config)
    assert np.isfinite(summary["regret"])
    run = checked_run(small_config)
    assert run.violation <= run.bound
    assert run.membership <= 1e-8


def test_regularized_first_step_solves_like_every_step(monkeypatch, small_config):
    # the regularized initialization stores no coefficients for the first
    # step: every one of the T+1 steps solves for them
    import ddcontrol.controller as ctrl_module

    calls = []
    real_solve_alpha = ctrl_module.solve_alpha

    def counting_solve_alpha(state, pre, y_latest=None):
        calls.append(y_latest)
        return real_solve_alpha(state, pre, y_latest)

    monkeypatch.setattr(ctrl_module, "solve_alpha", counting_solve_alpha)
    small_config.controller.init_mode = "regularized"
    small_config.controller.lambda_init = 1.0
    run_experiment(small_config)
    assert len(calls) == small_config.horizon + 1
    assert calls[0] is None


def _side_by_side(config, steps, cost=None):
    """Per-step values of a package closed loop and of the reference one.

    Both loops start from the controller's own initialization and take the
    same noise; the package side runs ``Controller.step``, ``plant.step``
    and ``cost.eval``, the reference side their ``@`` forms from
    ``helpers``, each on its own plant state.
    """
    model, x0, config_cost, cc, draw, _ = config.build()
    cost = config_cost if cost is None else cost
    data = collect_offline_data(
        model, config.offline.N, pe_order=3 * cc.n + cc.mu + 1,
        input_box=(config.offline.input_low, config.offline.input_high),
        seed=config.offline.seed)
    ctrl = Controller(cc, data)
    x = x0.copy()
    first = np.empty((cc.n, model.p))
    for k in range(cc.n):
        e, q = draw(k - cc.n)
        x, _, first[k] = step(model, x, np.zeros(model.m), e, q)
    ctrl.start(first)
    ref, x_ref = copy.deepcopy(ctrl.state), x.copy()
    package, reference = [], []
    y_meas = y_meas_ref = revealed = None
    for t in range(steps):
        u = ctrl.step(y_meas=y_meas, prev_cost=revealed)
        d = ctrl.last
        u_ref, *diag = reference_step(ref, ctrl.pre, ctrl.projector, cc.gamma, t,
                                      y_meas_ref, revealed)
        e, q = draw(t)
        x, y, y_meas = step(model, x, u, e, q)
        x_ref, y_ref, y_meas_ref = reference_plant_step(model, x_ref, u_ref, e, q)
        package.append((u, d.e_hat, d.z_s, d.g_norm, d.alpha_residual,
                        d.beta_residual, y, cost.eval(t, np.concatenate([u, y]))))
        reference.append((u_ref, *diag, y_ref,
                          reference_cost(cost, t, np.concatenate([u_ref, y_ref]))[0]))
        revealed = cost
    return package, reference


def _quick_start_config():
    # the README quick start, with measurement noise so the estimate moves
    return ExperimentConfig(
        plant=PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]]),
        noise=NoiseSpec(seed=4, measurement={"low": -0.05, "high": 0.05}),
        controller=ControllerConfig(gamma=0.3, mu=2, n=1),
        cost=CostSpec(type="quadratic", params={"H": [[2.0, 0.0], [0.0, 1.0]],
                                                "target": [0.0, 1.0]}),
        offline=OfflineSpec(N=60, seed=3),
        horizon=300,
    )


def _regularized_siso_config():
    config = demo_siso_config()
    config.controller = replace(config.controller, init_mode="regularized",
                                lambda_init=0.1)
    config.noise.process = {"low": -0.05, "high": 0.05, "through_input_matrix": True}
    return config


def _random_softplus_setup():
    rng = np.random.default_rng(23)
    config = random_plant_config(rng, 3, 2, 2, seed=23)
    config.horizon = 300
    config.controller = replace(config.controller, gamma=0.2)
    cost = QuadraticSoftplusCost(H=np.eye(4), target=rng.normal(size=4),
                                 a=rng.normal(size=4), c=0.5)
    return config, cost


@pytest.mark.parametrize("setup", [
    lambda: (_quick_start_config(), None),
    lambda: (ExperimentConfig.from_json(shipped_config_path()), None),
    lambda: (_regularized_siso_config(), None),
    _random_softplus_setup,
], ids=["quick_start", "thermal_day", "regularized_siso", "random_n3_softplus"])
def test_step_matches_the_reference_algebra_bit_for_bit(setup):
    # the loop's products may change call form, never rounding: every value
    # a step reports equals the five stages' algebra with ``@`` exactly
    config, cost = setup()
    package, reference = _side_by_side(config, 300, cost)
    names = ("u", "e_hat", "z_s", "g_norm", "alpha_residual", "beta_residual",
             "y", "cost")
    for i, name in enumerate(names):
        first = 1 if name == "e_hat" else 0     # no estimate at the first step
        ours = np.array([row[i] for row in package[first:]])
        theirs = np.array([row[i] for row in reference[first:]])
        assert ours.shape == theirs.shape, name
        differ = np.flatnonzero([not np.array_equal(a, b) for a, b in zip(ours, theirs)])
        assert differ.size == 0, f"{name} first differs at step {first + differ[0]}"
    assert np.ptp([row[0] for row in package]) > 0.1     # the loop did move


#: the functions that run on every closed-loop step, by module
_PER_STEP_FUNCTIONS = {
    "controller.py": ("estimate_noise", "alpha_rhs", "solve_alpha",
                      "predict_and_descend", "solve_beta", "advance",
                      "Controller.step"),
    "costs.py": tuple(f"{cls}.{method}"
                      for cls in ("QuadraticTrackingCost", "QuadraticSoftplusCost",
                                  "QuadraticScheduledCost")
                      for method in ("eval", "grad")),
    "plant.py": ("step",),
    "harness.py": ("NoiseSpec.build.draw",),
}


def test_per_step_products_call_ndarray_dot():
    # ``A.dot(x)`` reaches the same BLAS call as ``A @ x`` without the
    # matmul gufunc's dispatch, which is most of a small product's cost;
    # only the benchmark would notice an ``@`` creeping back in
    src = Path(__file__).resolve().parents[1] / "src" / "ddcontrol"
    for module, names in _PER_STEP_FUNCTIONS.items():
        defs = {}

        def collect(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    defs[prefix + child.name] = child
                    collect(child, prefix + child.name + ".")
                else:
                    collect(child, prefix)

        collect(ast.parse((src / module).read_text()), "")
        for name in names:
            assert name in defs, f"{module}: {name} is gone"
            matmul = [node.lineno for node in ast.walk(defs[name])
                      if isinstance(getattr(node, "op", None), ast.MatMult)
                      or (isinstance(node, ast.Attribute) and node.attr == "matmul")]
            assert not matmul, f"{module}: {name} multiplies with @ on lines {matmul}"


def _load_perfbench(name: str):
    """A module of the benchmark, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_sites_exist():
    # the benchmark times layers by replacing these attributes; a renamed
    # or moved function would silently drop out of its per-layer metrics
    sites = _load_perfbench("spans")._sites()
    assert sites
    for owner, attr, _ in sites:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"


def test_benchmark_configs_validate():
    # the benchmark's configs must pass the one config check, with the
    # overrides its runs pass; the cost-horizon rule made that check
    # stricter. No run is started
    root = Path(__file__).resolve().parents[1]
    workloads = _load_perfbench("workloads")
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    assert names
    for name in names:
        for k in (0, 1):
            for run in workloads.unit(name, 0, k):
                run.config.build(seed=run.seed, mu=run.mu)
                if k == 0:
                    # the warm-up run of the benchmark's measurement loop
                    replace(run.config, horizon=50).build(seed=run.seed, mu=run.mu)


@pytest.mark.parametrize("workload", ["thermal_day", "scalar_long"])
def test_benchmark_golden_outputs(workload):
    # the benchmark's correctness gate, run here so that a change to the
    # loop's rounding fails the suite: scalar_long's final_noise_error is
    # round-off, compared at 1e-9 relative
    workloads = _load_perfbench("workloads")
    for i, run in enumerate(workloads.unit(workload, workloads.GOLDEN_SEED, 0)):
        record, summary = run_experiment(run.config, seed=run.seed, mu=run.mu)
        assert workloads.check(workload, record, summary) == []
        assert workloads.check_golden(workload, i, summary) == []


def test_one_noise_estimate_per_measurement(monkeypatch, small_config):
    # the runner logs the estimate each step consumed, so every measurement
    # is compared with its prediction once: T steps plus the final one
    import ddcontrol.controller as ctrl_module

    calls = []
    real_estimate_noise = ctrl_module.estimate_noise

    def counting_estimate_noise(state, y_meas, pre):
        calls.append(y_meas)
        return real_estimate_noise(state, y_meas, pre)

    monkeypatch.setattr(ctrl_module, "estimate_noise", counting_estimate_noise)
    record, _ = run_experiment(small_config)
    assert len(calls) == small_config.horizon + 1
    np.testing.assert_array_equal(np.array(calls), record.y_meas)


def test_trace_telemetry_matches_recomputation(monkeypatch, tmp_path, small_config):
    # the trace's last three columns are the steering-target norm and the
    # two solve residuals of each step, as a fresh norm computes them.
    # Nudging the stored outputs off the trajectory set by 1e-9 before each
    # alpha solve lifts that residual well above round-off, so a column
    # that is swapped or a step late cannot pass. The order bound is 2 on
    # this first-order plant: with n = 1 every output window is a trajectory
    import ddcontrol.controller as ctrl_module

    small_config.controller = replace(small_config.controller, n=2)
    fresh = []
    rng = np.random.default_rng(5)
    real_solve_alpha = ctrl_module.solve_alpha
    real_solve_beta = ctrl_module.solve_beta

    def recording_solve_alpha(state, pre, y_latest=None):
        state.y_den_hist += 1e-9 * rng.normal(size=state.y_den_hist.shape)
        alpha, res = real_solve_alpha(state, pre, y_latest)
        rhs = ctrl_module.alpha_rhs(state, pre, y_latest)
        fresh.append({"alpha_residual":
                      np.linalg.norm(coefficient_matrices(pre)[0] @ alpha - rhs)})
        return alpha, res

    def recording_solve_beta(alpha, z_s, pre):
        beta, g, g_norm, res = real_solve_beta(alpha, z_s, pre)
        fresh[-1]["g_norm"] = np.linalg.norm(g)
        fresh[-1]["beta_residual"] = np.linalg.norm(coefficient_matrices(pre)[1] @ beta - g)
        return beta, g, g_norm, res

    monkeypatch.setattr(ctrl_module, "solve_alpha", recording_solve_alpha)
    monkeypatch.setattr(ctrl_module, "solve_beta", recording_solve_beta)
    run_experiment(small_config, out_dir=tmp_path)
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(fresh) == small_config.horizon + 1
    assert min(f["alpha_residual"] for f in fresh) > 1e-12
    for key in ("g_norm", "alpha_residual", "beta_residual"):
        assert_allclose([float(row[key]) for row in rows],
                        [f[key] for f in fresh], rtol=0, atol=1e-12)


def test_step_diagnostics_are_record_series(monkeypatch, small_config):
    # one record schema: everything a step reports is a series of the run's
    # record, filled from the steps, so a diagnostic cannot stay out of
    # the record and the trace written from it
    from dataclasses import fields

    from ddcontrol.controller import StepDiagnostics
    from ddcontrol.metrics import RunRecord

    reported, real_step = [], Controller.step

    def recording_step(self, *args, **kwargs):
        u = real_step(self, *args, **kwargs)
        reported.append(self.last)
        return u

    monkeypatch.setattr(Controller, "step", recording_step)
    record, _ = run_experiment(small_config)
    names = [f.name for f in fields(StepDiagnostics)]
    assert set(names) <= {f.name for f in fields(RunRecord)}
    for name in names:
        # the noise estimate is reported from the second step on
        values = [getattr(d, name) for d in reported if getattr(d, name) is not None]
        assert len(values) >= small_config.horizon, name
        np.testing.assert_array_equal(getattr(record, name)[:len(values)], values)


# ------------------------------------------------- information pattern

class RecordingCost(CostFunction):
    """Wrapper logging every value/gradient access with its time index."""

    def __init__(self, inner):
        self.inner = inner
        self.alpha_z = inner.alpha_z
        self.l_z = inner.l_z
        self.log = []

    def eval(self, t, z):
        self.log.append(("eval", t))
        return self.inner.eval(t, z)

    def grad(self, t, z):
        self.log.append(("grad", t))
        return self.inner.grad(t, z)

    def run_starts(self, times):
        return self.inner.run_starts(times)

    def stacked_quadratic_terms(self, times):
        return self.inner.stacked_quadratic_terms(times)


def test_information_pattern(small_config):
    T = small_config.horizon
    recorder = RecordingCost(hvac_cost_schedule(p=1, m=1, day_steps=T + 1))
    run_experiment(small_config, cost=recorder)
    grads = [t for kind, t in recorder.log if kind == "grad"]
    # the controller sees gradients of exactly the delayed costs 0..T-1
    assert grads == list(range(T))
    # cost t is first touched (by anyone) only after the input at t committed:
    # the runner's own evaluation at t precedes the controller's gradient at t
    first_eval = {}
    first_grad = {}
    for idx, (kind, t) in enumerate(recorder.log):
        d = first_eval if kind == "eval" else first_grad
        d.setdefault(t, idx)
    for t, gidx in first_grad.items():
        assert first_eval[t] < gidx


class TermsRecordingCost(RecordingCost):
    """Also logs every access to the quadratic terms."""

    def stacked_quadratic_terms(self, times):
        self.log.append(("stacked_quadratic_terms", times))
        return self.inner.stacked_quadratic_terms(times)


def test_oracle_runs_once_after_the_loop(monkeypatch, small_config):
    # the best equilibria do not depend on the loop: one batched oracle call
    # per run, and no cost term is read for it while the loop runs
    import ddcontrol.harness as harness_module
    from ddcontrol.controller import Controller

    T = small_config.horizon
    recorder = TermsRecordingCost(hvac_cost_schedule(p=1, m=1, day_steps=T + 1))
    oracle_times = []
    real_oracle = harness_module.optimal_steady_state
    real_step = Controller.step

    def counting_oracle(proj, cost, t=0):
        oracle_times.append(np.array(t))
        return real_oracle(proj, cost, t)

    def logged_step(self, *args, **kwargs):
        u = real_step(self, *args, **kwargs)
        recorder.log.append(("step", None))
        return u

    monkeypatch.setattr(harness_module, "optimal_steady_state", counting_oracle)
    monkeypatch.setattr(Controller, "step", logged_step)
    record, _ = run_experiment(small_config, cost=recorder)
    assert len(oracle_times) == 1
    np.testing.assert_array_equal(oracle_times[0], np.arange(T + 1))
    kinds = [kind for kind, _ in recorder.log]
    last_step = len(kinds) - 1 - kinds[::-1].index("step")
    assert kinds.count("step") == T + 1
    assert "stacked_quadratic_terms" in kinds[last_step:]
    assert "stacked_quadratic_terms" not in kinds[:last_step]
    np.testing.assert_array_equal(
        record.opt_cost,
        [recorder.inner.eval(t, record.zeta[t]) for t in range(T + 1)])


def test_oracle_cost_evaluated_once_per_run_of_equal_parameters(small_config):
    # a static cost is one run: T+1 realized costs in the loop, then one
    # oracle cost repeated for every t
    T = small_config.horizon
    recorder = RecordingCost(QuadraticTrackingCost(
        H=np.diag([1.0, 2.0]), target=np.array([0.5, 1.0])))
    record, _ = run_experiment(small_config, cost=recorder)
    evals = [t for kind, t in recorder.log if kind == "eval"]
    assert evals == list(range(T + 1)) + [0]
    np.testing.assert_array_equal(
        record.opt_cost,
        [recorder.inner.eval(t, record.zeta[t]) for t in range(T + 1)])


def test_warm_run_matches_cold_run(monkeypatch, tmp_path, small_config,
                                   factor_cache):
    # a run on cached factors writes the same bytes as one that built them,
    # also after another horizon's run used the cache in between
    import ddcontrol.controller as ctrl_module

    run_experiment(small_config, out_dir=tmp_path / "cold")
    run_experiment(small_config, out_dir=tmp_path / "other",
                   mu=small_config.controller.mu + 1)
    assert len(factor_cache) == 2
    builds = []
    real_precompute = ctrl_module.precompute

    def counting_precompute(*args, **kwargs):
        builds.append(1)
        return real_precompute(*args, **kwargs)

    monkeypatch.setattr(ctrl_module, "precompute", counting_precompute)
    run_experiment(small_config, out_dir=tmp_path / "warm")
    assert builds == []
    for name in ("trace.csv", "summary.csv"):
        assert (tmp_path / "warm" / name).read_bytes() \
            == (tmp_path / "cold" / name).read_bytes()


# ---------------------------------------------------------------- cli

def test_cli_validate_shipped_config():
    assert cli_main(["validate", "--config", str(shipped_config_path())]) == 0


def test_cli_validate_missing_config(capsys):
    assert cli_main(["validate", "--config", "/no/such/file.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_rejects_nonpositive_gamma(tmp_path, small_config, capsys):
    path = tmp_path / "conf.json"
    _write_config(small_config, path)
    code = cli_main(["run", "--config", str(path), "--gamma", "-1"])
    assert code == 2
    assert "gamma must be positive" in capsys.readouterr().err


def test_cli_run_and_demo(tmp_path, small_config):
    path = tmp_path / "conf.json"
    _write_config(small_config, path)
    assert cli_main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    header = (tmp_path / "out" / "trace.csv").read_text().splitlines()[0]
    assert header == ("t,u_1,y_1,ytilde_1,ehat_1,us_1,ys_1,cost,opt_cost,"
                      "g_norm,alpha_residual,beta_residual")

    assert cli_main(["demo-siso", "--out", str(tmp_path / "demo")]) == 0
    demo_header = (tmp_path / "demo" / "trace.csv").read_text().splitlines()[0]
    assert demo_header.startswith("t,u_1,y_1,ytilde_1,ehat_1,us_1,ys_1")


def test_cli_names_the_step_of_a_diverged_run(tmp_path, capsys):
    # gamma = 0.3 is above the shipped day's 2/(alpha_z + l_z) = 0.155: the
    # loop diverges until the coefficient solve's right-hand side overflows.
    # The step it fails at depends on how the offline SVDs round, which
    # differs with the BLAS thread count (678 at two threads, 679 at one)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli_main(["run", "--config", str(shipped_config_path()),
                         "--gamma", "0.3", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    match = re.search(r"FeasibilityError: step (\d+): prediction coefficients "
                      "infeasible", err)
    assert match
    assert "right-hand side overflowed" in err
    assert "gamma=0.3 exceeds 2/(alpha_z + l_z)=0.155" in err
    # the run leaves the rows of the steps that completed, and no summary
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert int(match.group(1)) == len(rows)
    assert 670 <= len(rows) <= 690
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("fail_at", [0, 1, 25])
def test_failed_run_leaves_the_rows_of_the_completed_steps(
        tmp_path, small_config, monkeypatch, fail_at):
    # the trace of a run that fails at step t is the first t rows of the
    # trace the run would have written, opt_cost and the last e_hat included
    run_experiment(small_config, out_dir=tmp_path / "full")
    real_step = Controller.step

    def failing_step(self, *args, **kwargs):
        if self.t == fail_at:
            raise FeasibilityError("injected")
        return real_step(self, *args, **kwargs)

    monkeypatch.setattr(Controller, "step", failing_step)
    with pytest.raises(FeasibilityError) as info:
        run_experiment(small_config, out_dir=tmp_path / "failed")
    # the step size is within its bound, so the message names no gamma
    assert str(info.value) == f"step {fail_at}: injected"
    full = (tmp_path / "full" / "trace.csv").read_text().splitlines()
    failed = (tmp_path / "failed" / "trace.csv").read_text().splitlines()
    assert failed == full[:fail_at + 1]
    assert not (tmp_path / "failed" / "summary.csv").exists()


def test_failed_run_whose_oracle_fails_too_raises_the_step_error(tmp_path):
    # a softplus c of 1e300 overflows the steering target at step 1 and the
    # oracle's gradient alike: the run raises the step's error, and its
    # trace shows the optimum the oracle could not find as nan
    params = {"H": [[1, 0], [0, 1]], "target": [0.5, 1.0], "a": [1.0, -1.0], "c": 1e300}
    cfg = replace(demo_siso_config(), horizon=30,
                  cost=CostSpec(type="softplus", params=params))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with pytest.raises(FeasibilityError, match=r"^step 1: steering correction"):
            run_experiment(cfg, out_dir=tmp_path)
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["opt_cost"] == "nan"


def test_cli_rejects_unknown_q_mode(tmp_path, capsys):
    # a bad q_mode is a config error for both commands, not a runtime failure
    spec = json.loads(shipped_config_path().read_text())
    spec["controller"]["q_mode"] = "bogus"
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(spec))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main([*argv, "--config", str(path)]) == 2
        assert "unknown q_mode 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("section, edit, message", [
    ("failing_sensor", {"channel": 0}, "1-based"),
    ("failing_sensor", {"start": 900}, "start is after its end"),
    ("failing_sensor", {"end": None}, "failing_sensor needs exactly"),
    ("measurement", {"low": 2.0}, "measurement bounds reversed"),
    ("process", {"high": -0.2}, "process bounds reversed"),
])
def test_cli_rejects_bad_noise_section(tmp_path, capsys, section, edit, message):
    # caught before the run starts, so both commands exit 2
    spec = json.loads(shipped_config_path().read_text())
    noise = spec["noise"][section]
    for key, value in edit.items():
        if value is None:
            del noise[key]
        else:
            noise[key] = value
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(spec))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main([*argv, "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_cli_rejects_failing_sensor_beyond_the_outputs(tmp_path, capsys):
    # the shipped day has 3 sensors; the plant is needed to know that
    spec = json.loads(shipped_config_path().read_text())
    spec["noise"]["failing_sensor"]["channel"] = 4
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "channel 4 exceeds the plant's 3 outputs" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")
UNSTABLE_PLANT = {"type": "matrices", "A": [[1.5]], "B": [[1.0]], "C": [[1.0]],
                  "initial_state": [1.0]}
#: a schedule cost for the shipped plant's three outputs, with a fractional start
FRACTIONAL_START_SCHEDULE = {"type": "schedule", "params": {
    "segments": [{"start": start, "output_weight": np.eye(3).tolist(), "input_weight": 10.0,
                  "setpoint": [3.0] * 3} for start in (0, 150.7)],
    "price_series": [1.0] * 1440}}


@pytest.mark.parametrize("edits, message", [
    ({("cost", "type"): "bogus"}, "unknown cost type 'bogus'"),
    ({("plant", "type"): "warp"}, "unknown plant type 'warp'"),
    ({("plant", "hvac", "bogus"): 1.0}, "unknown hvac parameters: ['bogus']"),
    ({("plant", "initial_state"): [2.0] * 4}, "initial_state must have 5 entries"),
    ({("cost", "params", "bogus"): 1.0}, "unexpected keyword argument 'bogus'"),
    # a one-output plant has no third sensor to fail
    ({("plant",): UNSTABLE_PLANT, ("noise", "failing_sensor"): None},
     "A is not Schur stable"),
    ({("plant", "hvac", "capacitance"): [-2.0, 1.6, 2.4, 1.8, 2.2]},
     "capacitances must be positive"),
    # the shipped schedule has 1440 steps, and horizon T takes T + 1
    ({("horizon",): 1440}, "the cost covers 1440 steps"),
    # a misspelt key would otherwise fall back to its default
    ({("horizn",): 1439, ("horizon",): None}, "unknown config keys: ['horizn']"),
    ({("noise", "process", "through_input_matirx"): True,
      ("noise", "process", "through_input_matrix"): None},
     "unknown noise process keys: ['through_input_matirx']"),
    ({("noise", "measurement", "through_input_matrix"): True},
     "unknown noise measurement keys: ['through_input_matrix']"),
    ({("controller", "q_mode"): "inputs"}, "unknown q_mode 'inputs'"),
    ({("controller", "q_mode"): "outputs"}, "unknown q_mode 'outputs'"),
    ({("controller", "q_mode"): "identity+inputs"}, "unknown q_mode 'identity+inputs'"),
    # counts that are not integers once passed validate and then crashed the
    # run with a TypeError, or ran floor(horizon) steps
    ({("offline", "N"): 400.5}, "offline.N must be an integer, got 400.5"),
    ({("offline", "N"): "400"}, "offline.N must be an integer, got '400'"),
    ({("offline", "seed"): 1.5}, "offline.seed must be an integer, got 1.5"),
    ({("horizon",): 20.7}, "horizon must be an integer, got 20.7"),
    ({("horizon",): True}, "horizon must be an integer, got True"),
    # and these ran with a boolean read as 1, or crashed in the first step
    ({("controller", "mu"): 10.5}, "mu must be an integer, got 10.5"),
    ({("controller", "mu"): True}, "mu must be an integer, got True"),
    ({("controller", "n"): 5.5}, "n must be an integer, got 5.5"),
    ({("controller", "n"): True}, "n must be an integer, got True"),
    ({("noise", "seed"): True}, "noise.seed must be an integer, got True"),
    ({("noise", "seed"): 0.5}, "noise.seed must be an integer, got 0.5"),
    ({("noise", "failing_sensor", "channel"): True},
     "failing_sensor channel is a 1-based integer, got True"),
    ({("noise", "failing_sensor", "channel"): 2.0},
     "failing_sensor channel is a 1-based integer, got 2.0"),
    # non-finite values once passed validate: the run gave regret nan, ran
    # a sensor window that never opens, or crashed with an OverflowError
    ({("controller", "gamma"): NAN}, "gamma must be positive and finite"),
    ({("controller", "gamma"): INF}, "gamma must be positive and finite"),
    ({("controller", "lambda_init"): NAN}, "lambda_init must be nonnegative and finite"),
    ({("plant", "initial_state"): [NAN] * 5}, "initial_state must be finite"),
    ({("offline", "input_low"): NAN}, "offline input box must be finite"),
    ({("offline", "input_high"): INF}, "offline input box must be finite"),
    ({("noise", "measurement", "low"): NAN}, "measurement bounds must be finite"),
    ({("noise", "process", "high"): INF}, "process bounds must be finite"),
    ({("noise", "failing_sensor", "scale"): NAN},
     "failing_sensor start, end and scale must be finite"),
    ({("noise", "failing_sensor", "start"): NAN},
     "failing_sensor start, end and scale must be finite"),
    # and these exited 2 only because the matrix exponential could not
    # scale a NaN norm
    ({("plant", "hvac", "sample_time"): NAN}, "sample_time must be positive and finite"),
    ({("plant", "hvac", "sample_time"): INF}, "sample_time must be positive and finite"),
    ({("plant", "hvac", "capacitance"): [2.0, NAN, 2.4, 1.8, 2.2]},
     "capacitances must be positive and finite"),
    ({("plant", "hvac", "r_outdoor"): [NAN, 30.0, None, 28.0, 22.0]},
     "outdoor resistance of zone 0 must be positive"),
    # an index or an hour read as an integer once raised an OverflowError,
    # so both commands exited 1
    ({("plant", "hvac", "sensor_zones"): [0, 3, INF]},
     "cannot convert float infinity to integer"),
    ({("cost", "params", "switch_hour"): INF}, "cannot convert float infinity to integer"),
    # and a fractional index was truncated, so the run used another zone
    # or started the segment a fraction early
    ({("plant", "hvac", "sensor_zones"): [0.6, 3, 4]},
     "sensor zone must be an integer, got 0.6"),
    ({("plant", "hvac", "r_between", 0): [0.5, 1, 45.0]},
     "r_between zone must be an integer, got 0.5"),
    ({("cost",): FRACTIONAL_START_SCHEDULE}, "segment start must be an integer, got 150.7"),
    # values wrong whatever record is drawn once passed validate, and the
    # run exited 1 while it collected the record
    ({("offline", "N"): 0}, "offline.N must be at least 1, got 0"),
    ({("offline", "N"): -1}, "offline.N must be at least 1, got -1"),
    ({("offline", "seed"): -1}, "offline.seed must be at least 0, got -1"),
    ({("offline", "input_low"): True}, "offline input box needs input_low < input_high"),
    ({("offline", "input_high"): -1.0}, "offline input box needs input_low < input_high"),
    # an output_dir that is not a path once passed validate, and the run
    # went through the whole loop to exit 1 with a TypeError
    ({("output_dir",): 0}, "output_dir must be a string, got 0"),
    ({("output_dir",): 0.5}, "output_dir must be a string, got 0.5"),
    ({("output_dir",): True}, "output_dir must be a string, got True"),
    ({("output_dir",): NAN}, "output_dir must be a string, got nan"),
    ({("output_dir",): 1e300}, "output_dir must be a string, got 1e+300"),
], ids=["cost-type", "plant-type", "hvac-key", "initial-state", "cost-parameter",
        "unstable-plant", "capacitance", "cost-horizon", "top-level-key",
        "process-key", "measurement-key", "q-mode-inputs", "q-mode-outputs",
        "q-mode-identity+inputs", "offline-N-fraction", "offline-N-string",
        "offline-seed-fraction", "horizon-fraction", "horizon-boolean",
        "mu-fraction", "mu-boolean", "n-fraction", "n-boolean", "noise-seed-boolean",
        "noise-seed-fraction", "channel-boolean", "channel-float", "gamma-nan",
        "gamma-inf", "lambda-init-nan", "initial-state-nan", "input-low-nan",
        "input-high-inf", "measurement-low-nan", "process-high-inf",
        "failing-scale-nan", "failing-start-nan", "sample-time-nan", "sample-time-inf",
        "capacitance-nan", "r-outdoor-nan", "sensor-zone-inf", "switch-hour-inf",
        "sensor-zone-fraction", "r-between-fraction", "segment-start-fraction",
        "offline-N-zero", "offline-N-negative", "offline-seed-negative",
        "input-box-boolean", "input-box-empty", "output-dir-zero", "output-dir-fraction",
        "output-dir-boolean", "output-dir-nan", "output-dir-huge"])
def test_cli_rejects_config_that_cannot_be_built(tmp_path, capsys, edits, message):
    # validate builds every object the run would, so both commands exit 2
    spec = _edited(json.loads(shipped_config_path().read_text()), edits)
    _assert_both_commands_exit_2(tmp_path, capsys, spec, message)


@pytest.mark.parametrize("edits, message", [
    ({("cost",): {"type": "quadratic", "params": {
        "H": [[1.0, 0.0], [0.0, 1.0]], "target": [0.5, 1.0], "setpoint": [5.0]}}},
     "unknown cost parameters: ['setpoint']"),
    ({("cost", "params", "segments", 1, "setpiont"): [2.0]},
     "unknown cost segment keys: ['setpiont']"),
    ({("cost", "params", "prices"): [1.0] * 301},
     "unknown cost parameters: ['prices']"),
], ids=["quadratic-parameter", "segment-key", "schedule-parameter"])
def test_cli_rejects_unknown_cost_parameters(tmp_path, capsys, edits, message):
    # no cost reads these keys, so a misspelt one would be ignored
    spec = _edited(asdict(demo_siso_config()), edits)
    _assert_both_commands_exit_2(tmp_path, capsys, spec, message)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_cli_rejects_non_finite_prices(tmp_path, capsys, bad):
    # Python's json reads a bare NaN or Infinity; such a price once ran to
    # accumulated_cost: nan with exit 0
    spec = asdict(demo_siso_config())
    spec["cost"]["params"]["price_series"][5] = bad
    _assert_both_commands_exit_2(tmp_path, capsys, spec, "prices must be positive and finite")


@pytest.mark.parametrize("field, value", [
    ("input_weight", float("nan")), ("output_weight", [[float("nan")]]),
    ("setpoint", [float("nan")])])
def test_cli_rejects_non_finite_cost_segment(tmp_path, capsys, field, value):
    # a NaN input weight passes a positivity test, and neither the output
    # weight nor the setpoint was checked; each once gave regret = nan
    spec = asdict(demo_siso_config())
    spec["cost"]["params"]["segments"][0][field] = value
    _assert_both_commands_exit_2(tmp_path, capsys, spec,
                                 "segment weights and setpoint must be finite")


def _static_cost(kind: str, **changes) -> dict:
    """A ``quadratic`` or ``softplus`` cost section for demo-siso's z = (u, y)."""
    params = {"H": [[1.0, 0.0], [0.0, 1.0]], "target": [0.5, 1.0]}
    if kind == "softplus":
        params.update(a=[1.0, -1.0], c=0.5)
    return {"type": kind, "params": {**params, **changes}}


@pytest.mark.parametrize("edits, message", [
    ({("plant", "B"): [[INF]]}, "A, B, C and D must be finite"),
    ({("plant", "D"): [[NAN]]}, "A, B, C and D must be finite"),
    ({("cost",): _static_cost("quadratic", target=[NAN, 1.0])},
     "cost parameter target must be finite"),
    ({("cost",): _static_cost("softplus", target=[0.5, INF])},
     "cost parameter target must be finite"),
    ({("cost",): _static_cost("softplus", a=[NAN, -1.0])}, "cost parameter a must be finite"),
    ({("cost",): _static_cost("softplus", c=INF)}, "cost parameter c must be finite"),
    # a cost of the wrong shape: the run would fail in its first step, or
    # the oracle would not converge on an asymmetric H
    ({("cost",): _static_cost("quadratic", H=np.eye(3).tolist(), target=[0.5, 1.0, 0.0])},
     "the cost's target has 3 entries, but z = (u, y) has 2"),
    ({("cost",): _static_cost("softplus", a=[1.0, -1.0, 0.0])},
     "a must match the target dimension"),
    ({("cost",): _static_cost("softplus", H=[[1.0, 5.0], [0.0, 1.0]])}, "H must be symmetric"),
    # a schedule sized for two outputs on the one-output plant: the run
    # would fail in its first step on a broadcast
    ({("cost", "params", "segments", k, key): value for k in (0, 1)
      for key, value in (("setpoint", [1.0, 2.0]), ("output_weight", np.eye(2).tolist()))},
     "the cost's setpoints have 2 entries, but y has 1"),
], ids=["B-inf", "D-nan", "quadratic-target-nan", "softplus-target-inf", "softplus-a-nan",
        "softplus-c-inf", "quadratic-size", "softplus-a-size", "softplus-asymmetric",
        "schedule-size"])
def test_cli_rejects_bad_plant_matrices_and_cost_parameters(tmp_path, capsys, edits, message):
    # refused before the run, which would otherwise exit 1 on an SVD that
    # does not converge or a steering residual of nan; a softplus c = inf
    # would pass the moduli check, since l_z = inf satisfies it
    spec = _edited(asdict(demo_siso_config()), edits)
    _assert_both_commands_exit_2(tmp_path, capsys, spec, message)


def test_cli_runs_a_softplus_cost_through_the_iterative_oracle(tmp_path, monkeypatch):
    # the one shipped cost that is not quadratic has no closed-form steady
    # state, so a config that names it reaches the projected-gradient oracle
    import ddcontrol.steady_state as ss_module

    calls, real = [], ss_module._projected_gradient

    def counting_projected_gradient(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(ss_module, "_projected_gradient", counting_projected_gradient)
    spec = asdict(demo_siso_config())
    spec["cost"] = _static_cost("softplus")
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        (summary,) = csv.DictReader(fh)
    assert np.isfinite([float(v) for v in summary.values()]).all(), summary
    assert calls == [0]         # a static cost is one run of equal parameters


def _edited(spec: dict, edits: dict) -> dict:
    """``spec`` with each key path set to its value, or deleted for None."""
    for (*keys, last), value in edits.items():
        section = spec
        for key in keys:
            section = section[key]
        if value is None:
            del section[last]
        else:
            section[last] = value
    return spec


def _assert_both_commands_exit_2(tmp_path, capsys, spec: dict, message: str):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(spec))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main([*argv, "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_cli_missing_required_flag():
    assert cli_main(["run"]) == 2


def test_cli_runtime_failure_is_exit_one(tmp_path, small_config, capsys):
    # a valid config that fails at runtime: offline record too short for mu
    small_config.offline.N = 12
    path = tmp_path / "conf.json"
    _write_config(small_config, path)
    code = cli_main(["run", "--config", str(path), "--mu", "6"])
    assert code == 1
    assert "runtime failure" in capsys.readouterr().err


def test_cli_run_with_a_non_finite_summary_is_exit_one(tmp_path, capsys):
    # an initial state of 1e300 is finite, so validate passes, but the cost
    # overflows from step 0 on, which no per-step check sees; a setpoint of
    # 1e300 once exited 0 with regret nan
    spec = asdict(demo_siso_config())
    spec["plant"]["initial_state"] = [1e300]
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["validate", "--config", str(path)]) == 0
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert ("FeasibilityError: the run's regret is not finite: step 0 has a "
            "non-finite u, y, e_hat, cost or opt_cost") in capsys.readouterr().err


#: what the probe below puts in place of one leaf of a config
PROBE_VALUES = [NAN, INF, -INF, -1, 0, 0.5, True, "x", 1e300, None]


def _leaf_paths(node, path=()):
    """Key paths of every scalar of a parsed config; a list longer than
    five entries contributes its two ends only."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        ends = range(len(node)) if len(node) <= 5 else (0, len(node) - 1)
        children = ((i, node[i]) for i in ends)
    else:
        yield path
        return
    for key, child in children:
        yield from _leaf_paths(child, path + (key,))


def test_validate_refuses_or_runs_every_single_leaf_mutation(monkeypatch, tmp_path):
    # validate raises nothing but ConfigError on any one leaf replaced by a
    # probe value; what it passes on a scalar base runs, and may end only
    # in a FeasibilityError, never with a non-finite summary
    monkeypatch.chdir(tmp_path)          # an output_dir of "x" writes here
    demo = json.loads(json.dumps(asdict(demo_siso_config())))
    demo["horizon"] = 30
    quadratic, softplus = copy.deepcopy(demo), copy.deepcopy(demo)
    quadratic["cost"] = {"type": "quadratic", "params": {
        "H": [[10.0, 0.0], [0.0, 1.0]], "target": [0.0, 1.0]}}
    softplus["cost"] = {"type": "softplus", "params": {
        "H": [[10.0, 0.0], [0.0, 1.0]], "target": [0.0, 1.0], "a": [0.5, -1.0], "c": 1.0}}
    bases = [("hvac_day", json.loads(shipped_config_path().read_text()), False),
             ("demo_siso", demo, True), ("demo_siso_quadratic", quadratic, True),
             ("demo_siso_softplus", softplus, True)]
    breaks = []
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for name, base, run in bases:
            for *keys, last in _leaf_paths(base):
                for value in PROBE_VALUES:
                    spec = copy.deepcopy(base)
                    section = spec
                    for key in keys:
                        section = section[key]
                    section[last] = value
                    case = f"{name} {(*keys, last)} = {value!r}"
                    try:
                        config = ExperimentConfig.from_dict(spec)
                        config.validate()
                    except ConfigError:
                        continue
                    except Exception as exc:  # noqa: BLE001 - what the probe finds
                        breaks.append(f"{case}: validate raised {exc!r}")
                        continue
                    if not run:
                        continue
                    try:
                        _, summary = run_experiment(config)
                    except FeasibilityError:
                        continue
                    except Exception as exc:  # noqa: BLE001
                        breaks.append(f"{case}: the run raised {exc!r}")
                        continue
                    if not all(np.isfinite(v) for v in summary.values()):
                        breaks.append(f"{case}: the run's summary is not finite")
    assert not breaks, "\n".join(breaks)


def test_trace_columns_read_back_as_record(tmp_path, small_config):
    # every cell of the trace parses back to the recorded value, bit for bit
    record, _ = run_experiment(small_config, out_dir=tmp_path)
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = {
        "t": np.arange(len(record.u)), "u_1": record.u[:, 0],
        "y_1": record.y[:, 0], "ytilde_1": record.y_meas[:, 0],
        "ehat_1": record.e_hat[:, 0], "us_1": record.z_s[:, 0],
        "ys_1": record.z_s[:, 1], "cost": record.cost,
        "opt_cost": record.opt_cost, "g_norm": record.g_norm,
        "alpha_residual": record.alpha_residual,
        "beta_residual": record.beta_residual,
    }
    assert list(rows[0]) == list(expected)
    for key, values in expected.items():
        np.testing.assert_array_equal([float(row[key]) for row in rows], values)


def test_readme_trace_schema_matches_writer(tmp_path, small_config):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    schema = re.search(r"`trace.csv` \(schema:\s*`([^`]+)`", readme).group(1)
    # at m = p = 1 every ``x_1..x_m`` range is the single column x_1
    expected = re.sub(r"(\w+)_1\.\.\1_[mp]", r"\1_1", schema)
    small_config.horizon = 0
    run_experiment(small_config, out_dir=tmp_path)
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header == expected


def test_trace_floats_have_full_precision(tmp_path, small_config):
    run_experiment(small_config, out_dir=tmp_path)
    with open(tmp_path / "trace.csv") as fh:
        next(fh)
        row = next(fh).split(",")
    # round trip through the printed representation is exact
    val = float(row[2])
    assert f"{val:.17g}" == row[2]
