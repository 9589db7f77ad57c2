import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddcontrol.controller import Controller, ControllerConfig
from ddcontrol.costs import QuadraticTrackingCost
from ddcontrol.metrics import (RunRecord, path_length, regret, steps_to_converge,
                               summarize, write_summary_csv)
from ddcontrol.plant import step
from ddcontrol.steady_state import build_projector, optimal_steady_state

from helpers import fit_decay_rate, noise_error_series


def make_record(cost_vals, opt_vals, dim_u=1, dim_y=1, **overrides):
    T1 = len(cost_vals)
    fields = dict(
        u=np.zeros((T1, dim_u)),
        y=np.zeros((T1, dim_y)),
        y_meas=np.zeros((T1, dim_y)),
        e_hat=np.zeros((T1, dim_y)),
        z_s=np.zeros((T1, dim_u + dim_y)),
        zeta=np.zeros((T1, dim_u + dim_y)),
        cost=np.asarray(cost_vals, dtype=float),
        opt_cost=np.asarray(opt_vals, dtype=float),
        z_s_init=np.zeros(dim_u + dim_y),
        e_true=np.zeros((T1, dim_y)),
        g_norm=np.zeros(T1),
        alpha_residual=np.zeros(T1),
        beta_residual=np.zeros(T1),
    )
    fields.update(overrides)
    return RunRecord(**fields)


# ---------------------------------------------------------------- regret

def test_regret_zero_when_on_oracle():
    rec = make_record([2.0, 3.0, 1.0], [2.0, 3.0, 1.0])
    total, running = regret(rec)
    assert total == 0.0
    assert_allclose(running, np.zeros(3))


def test_regret_single_step_arithmetic():
    rec = make_record([9.5], [2.0])
    total, running = regret(rec)
    assert_allclose(total, 7.5)
    assert_allclose(running, [7.5])


def test_regret_running_series_matches_cumsum_oracle():
    rng = np.random.default_rng(0)
    c, o = rng.normal(size=20), rng.normal(size=20)
    _, running = regret(make_record(c, o))
    brute = [sum(c[:k + 1] - o[:k + 1]) for k in range(20)]
    assert_allclose(running, brute, atol=1e-12)


def test_regret_can_be_transiently_negative(siso_data):
    # an economic cost is minimized off the steady-state set; sitting at
    # the unconstrained minimum transiently undercuts the best equilibrium
    proj = build_projector(siso_data, n=1)
    target = np.array([1.0, 0.0])            # off the manifold y = 2u
    cost = QuadraticTrackingCost(H=np.eye(2), target=target)
    zeta = optimal_steady_state(proj, cost)
    assert np.linalg.norm(proj.S @ target) > 1e-3
    z0 = target                               # loop passes through the minimum
    rec = make_record(
        [cost.eval(0, z0), cost.eval(1, zeta)],
        [cost.eval(0, zeta), cost.eval(1, zeta)],
    )
    total, running = regret(rec)
    assert running[0] < 0
    assert total < 0


# ---------------------------------------------------------------- path length

def test_path_length_constant_series():
    zeta = np.tile([1.0, 2.0], (5, 1))
    assert path_length(zeta, np.array([1.0, 2.0])) == 0.0


def test_path_length_single_switch():
    a, b = np.array([0.0, 1.0]), np.array([3.0, 5.0])
    zeta = np.vstack([np.tile(a, (4, 1)), np.tile(b, (6, 1))])
    assert_allclose(path_length(zeta, a), np.linalg.norm(b - a))


def test_path_length_random_switches_sum_of_jumps():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(6, 3))
    reps = rng.integers(1, 5, size=6)
    zeta = np.vstack([np.tile(p, (r, 1)) for p, r in zip(points, reps)])
    expected = sum(np.linalg.norm(points[k + 1] - points[k]) for k in range(5))
    expected += np.linalg.norm(points[0] - np.zeros(3))
    assert_allclose(path_length(zeta, np.zeros(3)), expected, atol=1e-12)


# ---------------------------------------------------------------- noise error

def test_noise_error_zero_for_exact_run():
    rec = make_record(np.zeros(10), np.zeros(10),
                      e_true=np.zeros((10, 1)))
    err, rate = noise_error_series(rec)
    assert_allclose(err, np.zeros(10))
    assert np.isnan(rate)


def test_noise_error_rate_matches_plant_pole(siso_model, siso_data):
    cfg = ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    cost = QuadraticTrackingCost(H=np.diag([10.0, 1.0]), target=np.array([0.0, 1.0]))
    T = 100
    e_const = np.array([0.4])
    x = np.array([1.0])
    meas = np.empty((1, 1))
    for k in range(1):
        x, _, meas[k] = step(siso_model, x, np.zeros(1), e_const)
    ctrl.start(meas)
    prev, revealed = None, None
    ehat = np.empty((T + 1, 1))
    for t in range(T + 1):
        u = ctrl.step(y_meas=prev, prev_cost=revealed)
        x, _, ym = step(siso_model, x, u, e_const)
        ehat[t] = ctrl.noise_estimate(ym)
        revealed = cost
        prev = ym
    rec = make_record(np.zeros(T + 1), np.zeros(T + 1),
                      e_hat=ehat, e_true=np.tile(e_const, (T + 1, 1)))
    err, rate = noise_error_series(rec)
    assert 0.45 <= rate <= 0.55
    assert err[100] <= 1e-6


def test_noise_error_floor_under_process_noise(siso_model, siso_data):
    rng = np.random.default_rng(9)
    cfg = ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    cost = QuadraticTrackingCost(H=np.diag([10.0, 1.0]), target=np.array([0.0, 1.0]))
    T = 300
    e_seq = rng.uniform(-1, 1, (T + 2, 1))
    q_seq = rng.uniform(-0.1, 0.1, (T + 1, 1))
    x = np.zeros(1)
    meas = np.empty((1, 1))
    for k in range(1):
        x, _, meas[k] = step(siso_model, x, np.zeros(1), e_seq[k])
    ctrl.start(meas)
    prev, revealed = None, None
    ehat = np.empty((T + 1, 1))
    for t in range(T + 1):
        u = ctrl.step(y_meas=prev, prev_cost=revealed)
        x, _, ym = step(siso_model, x, u, e_seq[1 + t], q_seq[t])
        ehat[t] = ctrl.noise_estimate(ym)
        revealed = cost
        prev = ym
    err = np.linalg.norm(ehat - e_seq[1:], axis=1)
    tail = err[T // 2:]
    assert tail.mean() > 0.0           # does not converge to zero
    assert tail.max() < 1.0            # but stays bounded at the noise floor


# ---------------------------------------------------------------- utilities

def test_fit_decay_rate_pure_geometric():
    errs = 3.0 * 0.5 ** np.arange(50)
    assert_allclose(fit_decay_rate(errs), 0.5, atol=1e-12)


def test_fit_decay_rate_ignores_floor_and_degenerate():
    errs = np.concatenate([2.0 * 0.5 ** np.arange(40), np.zeros(20)])
    assert_allclose(fit_decay_rate(errs), 0.5, atol=1e-6)
    assert np.isnan(fit_decay_rate(np.zeros(30)))


def test_steps_to_converge():
    zeta = np.zeros((10, 2))
    z = np.zeros((10, 2))
    z[:4] = 5.0
    rec = make_record(np.zeros(10), np.zeros(10),
                      u=z[:, :1], y=z[:, 1:], zeta=zeta)
    assert steps_to_converge(rec, tol=1e-3) == 4
    rec2 = make_record(np.zeros(3), np.zeros(3))
    assert steps_to_converge(rec2, tol=1e-3) == 0
    z3 = np.full((3, 2), 9.0)
    rec3 = make_record(np.zeros(3), np.zeros(3), u=z3[:, :1], y=z3[:, 1:])
    assert steps_to_converge(rec3, tol=1e-3) == -1


def test_record_length_validation():
    with pytest.raises(ValueError, match="same length"):
        make_record(np.zeros(5), np.zeros(5), y=np.zeros((4, 1)))


def test_regret_grows_affinely_with_path_length():
    # more target switches mean more path length and proportionally more
    # regret; the relation across scenarios stays essentially linear
    from ddcontrol.harness import (ExperimentConfig, NoiseSpec, OfflineSpec,
                                   PlantSpec, CostSpec,
                                   run_experiment)
    from ddcontrol.metrics import path_length
    from helpers import SwitchingQuadraticCost

    rng = np.random.default_rng(21)
    regrets, lengths = [], []
    for k_switches in (1, 2, 3, 4, 5):
        targets = [np.zeros(2)] + [np.array([1.5, 3.0]) * (i % 2 * 2 - 1)
                                   for i in range(k_switches)]
        times = [0] + [100 * (i + 1) for i in range(k_switches)]
        cost = SwitchingQuadraticCost(np.diag([2.0, 1.0]), targets, times)
        config = ExperimentConfig(
            plant=PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]], C=[[1.0]]),
            noise=NoiseSpec(seed=int(rng.integers(10 ** 6)),
                            measurement={"low": -0.05, "high": 0.05}),
            controller=ControllerConfig(gamma=2.0 / (cost.alpha_z + cost.l_z),
                                      mu=2, n=1, q_mode="identity"),
            cost=CostSpec(type="quadratic",
                          params={"H": [[2.0, 0.0], [0.0, 1.0]],
                                  "target": [0.0, 0.0]}),
            offline=OfflineSpec(N=60, seed=3),
            horizon=100 * (k_switches + 1),
        )
        record, _ = run_experiment(config, cost=cost)
        total, _ = regret(record)
        regrets.append(total)
        lengths.append(path_length(record.zeta, record.z_s_init))
    regrets, lengths = np.array(regrets), np.array(lengths)
    slope, intercept = np.polyfit(lengths, regrets, 1)
    assert np.isfinite(slope) and slope > 0
    corr = np.corrcoef(lengths, regrets)[0, 1]
    assert corr > 0.95
    predicted = slope * lengths + intercept
    assert np.all(np.abs(regrets - predicted) <= 0.2 * np.abs(regrets).max())


def test_summary_csv(tmp_path):
    rec = make_record([1.0, 2.0], [0.5, 0.5], e_true=np.zeros((2, 1)))
    rows = [summarize(rec, seed=3, gamma=0.1, mu=2)]
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ("seed,gamma,mu,regret,path_length,"
                        "final_noise_error,steps_to_converge")
    assert lines[1].startswith("3,0.1")
