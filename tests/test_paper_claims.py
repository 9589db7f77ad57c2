"""The paper's claims, checked in its own terms.

Criterion 6 of the acceptance suite checks only that the running-average
regret decays; these tests check sharper properties the controller has:
after a zero-mode start its inputs do not depend on the measurements, once
the cost stops switching the regret stops growing, the regret is
proportional to the path length of the optimum, measurement noise adds
a constant to the regret, and the noise estimate misses by exactly the
plant's response to what the controller does not see, plus, after a
regularized start, the free response of the state that start estimated.
"""

import dataclasses

import numpy as np
from numpy.testing import assert_allclose

from ddcontrol.controller import Controller, ControllerConfig
from ddcontrol.costs import QuadraticTrackingCost
from ddcontrol.harness import (CostSpec, ExperimentConfig, NoiseSpec,
                               OfflineSpec, PlantSpec, demo_siso_config,
                               run_experiment, shipped_config_path)
from ddcontrol.metrics import path_length, regret
from ddcontrol.plant import simulate

from helpers import SwitchingQuadraticCost


def test_zero_mode_inputs_ignore_the_measurements(siso_data):
    # the README quick start: the denoised output is the controller's own
    # prediction, so zeros and N(0, 100^2) garbage give the same inputs
    cfg = ControllerConfig(gamma=0.3, mu=2, n=1)
    cost = QuadraticTrackingCost(H=np.diag([2.0, 1.0]), target=np.array([0.0, 1.0]))
    rng = np.random.default_rng(8)
    feeds = {"zeros": np.zeros((201, 1)), "garbage": rng.normal(0.0, 100.0, (201, 1))}
    inputs = {}
    for name, feed in feeds.items():
        ctrl = Controller(cfg, siso_data)
        ctrl.start(feed[:1])
        y_meas, revealed, us = None, None, []
        for t in range(200):
            us.append(ctrl.step(y_meas=y_meas, prev_cost=revealed))
            y_meas, revealed = feed[t + 1], cost
        inputs[name] = np.array(us)
    assert np.abs(inputs["zeros"]).max() > 0.1
    assert np.abs(inputs["zeros"] - inputs["garbage"]).max() <= 1e-12


def test_regret_stops_growing_after_the_last_switch():
    # criterion 6's scalar setup at seed 0: the last switch is at t = 500,
    # and by t = 1000 the loop has settled on the last equilibrium, so the
    # regret through T = 1000 is the regret through T = 5000
    rng = np.random.default_rng(66)
    switch_times = [0] + [50 * (k + 1) for k in range(10)]
    targets = [rng.normal(size=2) * 1.5 for _ in switch_times]
    cost = SwitchingQuadraticCost(np.diag([2.0, 1.0]), targets, switch_times)
    config = ExperimentConfig(
        plant=PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]], C=[[1.0]],
                        D=[[0.0]]),
        noise=NoiseSpec(seed=0, measurement={"low": -0.1, "high": 0.1}),
        controller=ControllerConfig(gamma=2.0 / (cost.alpha_z + cost.l_z), mu=2,
                                    n=1, q_mode="identity"),
        cost=CostSpec(type="quadratic",
                      params={"H": [[2.0, 0.0], [0.0, 1.0]], "target": [0.0, 0.0]}),
        offline=OfflineSpec(N=60, seed=3),
        horizon=5000,
    )
    record, _ = run_experiment(config, cost=cost)
    _, running = regret(record)
    assert running[1000] > 1.0
    assert abs(running[5000] - running[1000]) <= 1e-9 * abs(running[5000])


def _scalar_config(horizon, noise, initial_state=None, **controller):
    """The README quick-start plant under a static tracking cost."""
    return ExperimentConfig(
        plant=PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]], C=[[1.0]],
                        D=[[0.0]], initial_state=initial_state),
        noise=noise,
        controller=ControllerConfig(gamma=2.0 / 3.0, mu=2, n=1, q_mode="identity",
                                    **controller),
        cost=CostSpec(type="quadratic",
                      params={"H": [[2.0, 0.0], [0.0, 1.0]], "target": [0.0, 1.0]}),
        offline=OfflineSpec(N=60, seed=3),
        horizon=horizon,
    )


def test_regret_is_proportional_to_path_length():
    # demo 05: from rest, k switches between the same two targets, 100 steps
    # apart. Dynamic regret of online gradient descent is O(1 + path length); here
    # every switch costs the same transient, so R_T / P_T is 4.13 at every k
    here, there = np.array([0.0, 0.0]), np.array([1.5, 3.0])
    noise = NoiseSpec(seed=1, measurement={"low": -0.1, "high": 0.1})
    ratios = []
    for k in (1, 2, 4, 8):
        times = [0] + [100 * (i + 1) for i in range(k)]
        targets = [here] + [there if i % 2 == 0 else here for i in range(k)]
        cost = SwitchingQuadraticCost(np.diag([2.0, 1.0]), targets, times)
        record, _ = run_experiment(_scalar_config(2000, noise), cost=cost)
        total, _ = regret(record)
        ratios.append(total / path_length(record.zeta, record.z_s_init))
    assert all(4.0 <= r <= 4.25 for r in ratios), ratios


AMPLITUDES = (0.0, 0.1, 1.0)


def _regrets(horizon, **controller):
    """Regret per measurement-noise amplitude in ``AMPLITUDES``."""
    totals = []
    for a in AMPLITUDES:
        noise = NoiseSpec(seed=0, measurement={"low": -a, "high": a} if a else None)
        record, _ = run_experiment(_scalar_config(horizon, noise, [1.0], **controller))
        totals.append(regret(record)[0])
    return np.array(totals)


def test_measurement_noise_leaves_zero_mode_regret_unchanged():
    # the zero-mode loop is feedforward in the measurements, so the regret,
    # 0.400891269 here, is the same at every amplitude
    totals = _regrets(2000)
    assert totals[0] > 0.1
    assert np.abs(totals - totals[0]).max() <= 1e-12 * totals[0]


def test_measurement_noise_adds_a_constant_to_the_regret():
    # the regularized initialization reads the first noisy measurement; the
    # excess regret it causes (1.59e-3 at amplitude 0.1 and 2.13e-2 at 1.0)
    # is paid once and does not grow with T
    short = _regrets(2000, init_mode="regularized", lambda_init=1.0)
    long = _regrets(4000, init_mode="regularized", lambda_init=1.0)
    excess_short, excess_long = short[1:] - short[0], long[1:] - long[0]
    assert np.all(excess_long > 1e-3)
    assert np.all(np.abs(excess_short - excess_long) <= 1e-9 * excess_long)


def _unseen_response(config):
    """A run's ``e_hat - e_true`` and the plant's ``y - y_rest``.

    ``y_rest`` is the output of the plant started at rest and driven by the
    run's inputs without process noise; the plant model enters here only,
    as the reference.
    """
    record, _ = run_experiment(config)
    model = config.build()[0]
    y_rest = simulate(model, np.zeros(model.n), record.u).outputs
    return record.e_hat - record.e_true, record.y - y_rest


def test_noise_estimate_misses_by_the_unseen_response_on_the_shipped_day():
    # the denoised output is the from-rest response to the applied inputs,
    # so the estimate's error is the plant's response to its initial state
    # and its process noise, neither of which the controller sees
    miss, unseen = _unseen_response(ExperimentConfig.from_json(shipped_config_path()))
    assert np.abs(unseen).max() > 0.1
    assert np.abs(miss - unseen).max() <= 1e-10


def test_noise_estimate_misses_by_the_free_response_on_the_quick_start():
    # from x0 = 1 without process noise the miss is the free response alone,
    # 0.5^(t+1) after the one warm-up step, up to the round-off of y - y_rest
    noise = NoiseSpec(seed=0, measurement={"low": -0.1, "high": 0.1})
    miss, unseen = _unseen_response(_scalar_config(200, noise, [1.0]))
    assert_allclose(unseen[:, 0], 0.5 ** np.arange(1, 202), rtol=1e-12, atol=1e-14)
    assert np.abs(miss - unseen).max() <= 1e-10


def test_noise_estimate_misses_by_the_free_response_on_a_quiet_day():
    # the shipped day with process noise off: the initial state is all the
    # controller does not see, so the miss at row t is the free response
    # C A^(t+n) x0 (n warm-up steps), and it decays at the slowest pole
    config = ExperimentConfig.from_json(shipped_config_path())
    config = dataclasses.replace(config, noise=dataclasses.replace(config.noise, process=None))
    miss, _ = _unseen_response(config)
    model, x0 = config.build()[:2]
    n, steps = config.controller.n, miss.shape[0]
    free = simulate(model, x0, np.zeros((steps + n, model.m))).outputs[n:]
    assert np.abs(free).max() > 1.0
    assert np.abs(miss - free).max() <= 1e-10

    rho = np.abs(np.linalg.eigvals(model.A)).max()
    assert abs(rho - 0.98712) <= 5e-6
    err = np.linalg.norm(miss, axis=1)
    assert abs(err[1000] / err[500] / rho ** 500 - 1.0) <= 0.05


def test_noise_estimate_misses_by_a_free_response_after_a_regularized_start():
    # a regularized start stores a window that encodes an estimated state
    # x_hat, and every later prediction carries that state's free response,
    # so beyond y - y_rest the miss is C A^t z, with z = -x_hat at row 0.
    # On demo-siso it is -0.4517 * 0.5^t; on the shipped day (n = 5) one
    # 5-vector z fits all 301 x 3 rows
    siso, thermal = demo_siso_config(), ExperimentConfig.from_json(shipped_config_path())
    thermal.horizon = 300
    fitted = []
    for config in (siso, thermal):
        config.controller = dataclasses.replace(config.controller, init_mode="regularized",
                                                lambda_init=1.0)
        miss, unseen = _unseen_response(config)
        beyond = (miss - unseen).ravel()
        model = config.build()[0]
        rows = [model.C]
        for _ in range(miss.shape[0] - 1):
            rows.append(rows[-1] @ model.A)
        free = np.vstack(rows)
        z = np.linalg.lstsq(free, beyond, rcond=None)[0]
        assert np.abs(beyond).max() > 0.1
        assert np.abs(free @ z - beyond).max() <= 1e-11
        fitted.append(z)
    assert abs(fitted[0][0] + 0.4517) <= 5e-5
