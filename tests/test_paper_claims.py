"""The paper's claims, checked in its own terms.

Criterion 6 of the acceptance suite checks only that the running-average
regret decays; these tests check two sharper properties the controller
has: after a zero-mode start its inputs do not depend on the measurements,
and once the cost stops switching the regret stops growing.
"""

import numpy as np

from ddcontrol.controller import Controller, ControllerConfig
from ddcontrol.costs import QuadraticTrackingCost
from ddcontrol.harness import (CostSpec, ExperimentConfig, NoiseSpec,
                               OfflineSpec, PlantSpec, run_experiment)
from ddcontrol.metrics import regret

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
