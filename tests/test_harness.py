import csv
import importlib.util
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ddcontrol.behavioral import Trajectory
from ddcontrol.controller import ControllerConfig
from ddcontrol.costs import (CostFunction, QuadraticTrackingCost,
                             hvac_cost_schedule)
from ddcontrol.harness import (ConfigError, CostSpec, ExperimentConfig,
                               NoiseSpec, OfflineSpec, PlantSpec, cli_main,
                               demo_siso_config, run_experiment,
                               shipped_config_path)
from ddcontrol.errors import PersistencyError
from ddcontrol.plant import NoiseModel, random_system


@pytest.fixture()
def small_config():
    cfg = demo_siso_config()
    cfg.horizon = 40
    cfg.cost.params["price_series"] = [1.0] * 41
    cfg.cost.params["segments"][1]["start"] = 20
    return cfg


# ---------------------------------------------------------------- config

def test_config_round_trip(tmp_path, small_config):
    path = tmp_path / "conf.json"
    small_config.to_json(path)
    back = ExperimentConfig.from_json(path)
    assert back == small_config
    # serialize -> parse -> serialize is also stable
    path2 = tmp_path / "conf2.json"
    back.to_json(path2)
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
    record, _ = run_experiment(small_config, check_identities=True)
    assert record.extras["max_identity_violation"] <= 1e-8
    assert record.extras["max_membership_residual"] <= 1e-8


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
    record, _ = run_experiment(config, check_identities=True)
    assert record.extras["max_identity_violation"] <= 1e-8
    assert record.extras["max_membership_residual"] <= 1e-8


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 10 ** 6))
def test_self_checks_hold_on_drawn_plants(n, m, p, seed):
    config = random_plant_config(np.random.default_rng(seed), n, m, p, seed)
    record, _ = run_experiment(config, check_identities=True)
    assert record.extras["max_identity_violation"] <= 1e-8
    assert record.extras["max_membership_residual"] <= 1e-8


def test_self_checks_hold_on_thermal_plant():
    config = ExperimentConfig.from_json(shipped_config_path())
    config.horizon = 40
    record, _ = run_experiment(config, check_identities=True)
    assert record.extras["max_identity_violation"] <= 1e-8
    assert record.extras["max_membership_residual"] <= 1e-8


def test_regularized_initialization_through_runner(small_config):
    small_config.controller.init_mode = "regularized"
    small_config.controller.lambda_init = 1.0
    record, summary = run_experiment(small_config, check_identities=True)
    assert np.isfinite(summary["regret"])
    assert record.extras["max_identity_violation"] <= 1e-8
    assert record.extras["max_membership_residual"] <= 1e-8


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
                      np.linalg.norm(pre.H_alpha @ alpha - rhs)})
        return alpha, res

    def recording_solve_beta(alpha, z_s, pre):
        beta, g, res = real_solve_beta(alpha, z_s, pre)
        fresh[-1]["g_norm"] = np.linalg.norm(g)
        fresh[-1]["beta_residual"] = np.linalg.norm(pre.H_beta @ beta - g)
        return beta, g, res

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

    def quadratic_terms(self, t):
        return self.inner.quadratic_terms(t)

    def params_key(self, t):
        return self.inner.params_key(t)


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

    def quadratic_terms(self, t):
        self.log.append(("quadratic_terms", t))
        return self.inner.quadratic_terms(t)


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
    assert "quadratic_terms" in kinds[last_step:]
    assert "quadratic_terms" not in kinds[:last_step]
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
    small_config.to_json(path)
    code = cli_main(["run", "--config", str(path), "--gamma", "-1"])
    assert code == 2
    assert "gamma must be positive" in capsys.readouterr().err


def test_cli_run_and_demo(tmp_path, small_config):
    path = tmp_path / "conf.json"
    small_config.to_json(path)
    assert cli_main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    header = (tmp_path / "out" / "trace.csv").read_text().splitlines()[0]
    assert header == ("t,u_1,y_1,ytilde_1,ehat_1,us_1,ys_1,cost,opt_cost,"
                      "g_norm,alpha_residual,beta_residual")

    assert cli_main(["demo-siso", "--out", str(tmp_path / "demo")]) == 0
    demo_header = (tmp_path / "demo" / "trace.csv").read_text().splitlines()[0]
    assert demo_header.startswith("t,u_1,y_1,ytilde_1,ehat_1,us_1,ys_1")


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


UNSTABLE_PLANT = {"type": "matrices", "A": [[1.5]], "B": [[1.0]], "C": [[1.0]],
                  "initial_state": [1.0]}


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
], ids=["cost-type", "plant-type", "hvac-key", "initial-state", "cost-parameter",
        "unstable-plant", "capacitance", "cost-horizon", "top-level-key",
        "process-key", "measurement-key", "q-mode-inputs", "q-mode-outputs",
        "q-mode-identity+inputs"])
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
    spec = _edited(demo_siso_config().to_dict(), edits)
    _assert_both_commands_exit_2(tmp_path, capsys, spec, message)


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
    small_config.to_json(path)
    code = cli_main(["run", "--config", str(path), "--mu", "6"])
    assert code == 1
    assert "runtime failure" in capsys.readouterr().err


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
