"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criterion 7 is implemented exactly as specified and is expected to fail:
the specified step-length inequality is provably violated by generic
quadratics at the specified step size (see the companion test asserting
the contraction-to-optimum form, which holds, and notes/decisions.md).
"""

import time

import numpy as np
import pytest

from ddcontrol.behavioral import Trajectory, membership_residual
from ddcontrol.controller import (ControllerConfig, initialize, precompute,
                                  solve_alpha, solve_beta)
from ddcontrol.costs import QuadraticTrackingCost
from ddcontrol.harness import (ExperimentConfig, NoiseSpec, OfflineSpec,
                               PlantSpec, CostSpec,
                               run_experiment, shipped_config_path)
from ddcontrol.metrics import regret
from ddcontrol.plant import collect_offline_data, simulate
from ddcontrol.steady_state import build_projector, optimal_steady_state

from helpers import (SwitchingQuadraticCost, checked_run, coefficient_matrices,
                     min_seminorm_qp, model_steady_state, noise_error_series,
                     q_weight, random_system)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} {detail}")


@pytest.fixture(scope="module")
def system_zoo():
    """20 random minimal Schur systems with excitation data (n<=4, m,p<=2)."""
    rng = np.random.default_rng(20240601)
    zoo = []
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        model = random_system(rng, n, m, p)
        L = n + 5
        data = collect_offline_data(model, 40 * (m + 1),
                                    pe_order=max(L + n, 2 * n + 1),
                                    seed=int(rng.integers(10 ** 6)))
        zoo.append((model, data, L))
    return zoo


def matrices_config(model, **kwargs):
    return ExperimentConfig(
        plant=PlantSpec(type="matrices", A=model.A.tolist(), B=model.B.tolist(),
                        C=model.C.tolist(), D=model.D.tolist(),
                        initial_state=kwargs.pop("initial_state", None)),
        **kwargs,
    )


# ------------------------------------------------------------------ 1

def test_criterion_1_trajectory_membership(system_zoo):
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    for model, data, L in system_zoo:
        for _ in range(10):
            x0 = rng.normal(size=model.n)
            fresh = simulate(model, x0, rng.uniform(-1, 1, (L, model.m)))
            res = membership_residual(data, fresh, n=model.n)
            assert res <= 1e-8
        corrupted = fresh.outputs.copy()
        corrupted[L // 2, 0] += 1.0
        bad = Trajectory(fresh.inputs, corrupted)
        assert membership_residual(data, bad) > 1e-3
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    report(1, "trajectory membership via one excited record", ok,
           f"(200 windows, {elapsed:.2f} s)")
    assert ok


# ------------------------------------------------------------------ 2

def test_criterion_2_steady_state_manifold(system_zoo):
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    for model, data, _ in system_zoo:
        proj = build_projector(data, model.n)
        for _ in range(5):
            z_s = model_steady_state(model, rng.normal(size=model.m))
            z_s = z_s / np.linalg.norm(z_s)     # the set is a subspace
            assert np.linalg.norm(proj.S @ z_s) <= 1e-7
        assert proj.dim == model.m
    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    report(2, "data-driven steady-state set equals the model's", ok,
           f"(20 systems, {elapsed:.2f} s)")
    assert ok


# ------------------------------------------------------------------ 3

def test_criterion_3_per_step_identities():
    config = ExperimentConfig(
        plant=PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]], C=[[1.0]],
                        D=[[0.0]], initial_state=[0.8]),
        noise=NoiseSpec(seed=0),            # noise free
        controller=ControllerConfig(gamma=0.2, mu=2, n=1, q_mode="identity"),
        cost=CostSpec(type="schedule", params={
            "segments": [
                {"start": 0, "output_weight": [[2.0]], "input_weight": 1.0,
                 "setpoint": [1.0]},
                {"start": 170, "output_weight": [[2.0]], "input_weight": 1.0,
                 "setpoint": [-0.5]},
                {"start": 330, "output_weight": [[0.5]], "input_weight": 2.0,
                 "setpoint": [2.0]},
            ],
            "price_series": [1.0] * 501,
        }),
        offline=OfflineSpec(N=60, seed=3),
        horizon=500,
    )
    viol, memb, _ = checked_run(config)
    ok = viol <= 1e-7 and memb <= 1e-7
    report(3, "cross-step plan consistency identities", ok,
           f"(max violation {viol:.2e}, membership {memb:.2e})")
    assert viol <= 1e-7
    assert memb <= 1e-7


# ------------------------------------------------------------------ 4

def test_criterion_4_noise_estimate_convergence():
    config = ExperimentConfig(
        plant=PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]], C=[[1.0]],
                        D=[[0.0]], initial_state=[1.0]),
        # constant sensor offset: a zero-width uniform distribution
        noise=NoiseSpec(seed=0, measurement={"low": 0.3, "high": 0.3}),
        controller=ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity"),
        cost=CostSpec(type="quadratic",
                      params={"H": [[10.0, 0.0], [0.0, 1.0]],
                              "target": [0.0, 1.0]}),
        offline=OfflineSpec(N=60, seed=3),
        horizon=120,
    )
    record, _ = run_experiment(config)
    err, rate = noise_error_series(record)
    ok = 0.45 <= rate <= 0.55 and err[100] <= 1e-6
    report(4, "noise estimates converge at the plant's decay rate", ok,
           f"(fitted rate {rate:.4f}, error at t=100 {err[100]:.2e})")
    assert 0.45 <= rate <= 0.55
    assert err[100] <= 1e-6


# ------------------------------------------------------------------ 5

def test_criterion_5_constant_cost_convergence():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(5):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        model = random_system(rng, n, m, p)
        dim = m + p
        M = rng.normal(size=(dim, dim)) * 0.2
        H = M @ M.T + np.eye(dim)          # well conditioned
        targets = [rng.normal(size=dim), rng.normal(size=dim)]
        cost = SwitchingQuadraticCost(H, targets, [0, 100])
        gamma = 2.0 / (cost.alpha_z + cost.l_z)
        for mu in (n, 2 * n):
            config = matrices_config(
                model,
                noise=NoiseSpec(seed=0),
                controller=ControllerConfig(gamma=gamma, mu=max(mu, 1), n=n,
                                          q_mode="identity"),
                cost=CostSpec(type="quadratic",
                              params={"H": np.eye(dim).tolist(),
                                      "target": [0.0] * dim}),
                offline=OfflineSpec(N=160, seed=int(rng.integers(10 ** 6))),
                horizon=260,
            )
            record, _ = run_experiment(config, cost=cost)
            settle = 100 + max(mu, 1) + 50
            dist = np.linalg.norm(record.z - record.zeta, axis=1)
            worst = max(worst, float(dist[settle:].max()))
            # accumulated distance stays bounded: the partial sums are
            # Cauchy over the settled portion of the run
            settled = dist[settle:]
            assert settled[len(settled) // 2:].sum() <= 1e-6
    ok = worst <= 1e-6
    report(5, "convergence to the constant optimal steady state", ok,
           f"(worst distance after settling {worst:.2e})")
    assert worst <= 1e-6


# ------------------------------------------------------------------ 6

def test_criterion_6_sublinear_regret_behavior():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    T = 5000
    switch_times = [0] + [50 * (k + 1) for k in range(10)]   # all within T/10
    targets = [rng.normal(size=2) * 1.5 for _ in switch_times]
    cost = SwitchingQuadraticCost(np.diag([2.0, 1.0]), targets, switch_times)
    gamma = 2.0 / (cost.alpha_z + cost.l_z)
    ratios = []
    for seed in range(5):
        config = ExperimentConfig(
            plant=PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]], C=[[1.0]],
                            D=[[0.0]]),
            noise=NoiseSpec(seed=seed, measurement={"low": -0.1, "high": 0.1}),
            controller=ControllerConfig(gamma=gamma, mu=2, n=1,
                                      q_mode="identity"),
            cost=CostSpec(type="quadratic",
                          params={"H": [[2.0, 0.0], [0.0, 1.0]],
                                  "target": [0.0, 0.0]}),
            offline=OfflineSpec(N=60, seed=3),
            horizon=T,
        )
        record, _ = run_experiment(config, cost=cost)
        _, running = regret(record)
        early = running[T // 10 - 1] / (T // 10)
        late = running[T - 1] / T
        assert early > 0
        ratios.append(late / early)
    worst = max(ratios)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.25
    report(6, "running-average regret decays after the switches stop", ok,
           f"(worst late/early ratio {worst:.3f}, {elapsed:.1f} s)")
    assert worst <= 0.25


# ------------------------------------------------------------------ 7

@pytest.fixture(scope="module")
def contraction_trials(siso_data):
    """100 random quadratic costs and manifold points at the critical step."""
    proj = build_projector(siso_data, n=1)
    rng = np.random.default_rng(77)
    trials = []
    for _ in range(100):
        M = rng.normal(size=(2, 2))
        H = M @ M.T + 0.3 * np.eye(2)
        cost = QuadraticTrackingCost(H=H, target=rng.normal(size=2) * 2)
        gamma = 2.0 / (cost.alpha_z + cost.l_z)
        z0 = proj.basis @ rng.normal(size=1) * 3
        zstar = optimal_steady_state(proj, cost)
        z1 = proj.P @ (z0 - gamma * cost.grad(0, z0))
        kappa = 1.0 - cost.alpha_z * gamma
        trials.append((z0, z1, zstar, kappa))
    return trials


def test_criterion_7_projected_gradient_step_bound(contraction_trials):
    # literal form: the step length |z1 - z0| bounded by kappa |z0 - zstar|.
    # This inequality is provably false for generic quadratics at the
    # critical step size (the gradient step moves 2 l / (alpha + l) times
    # the distance along the stiffest manifold direction, which exceeds
    # kappa = (l - alpha) / (l + alpha) whenever 2 l > l - alpha, i.e.
    # always); it is retained verbatim and expected to fail. See
    # notes/decisions.md and the companion test below for the form the
    # closed-loop analysis actually relies on.
    violations = sum(
        np.linalg.norm(z1 - z0) > kappa * np.linalg.norm(z0 - zstar) + 1e-10
        for z0, z1, zstar, kappa in contraction_trials)
    ok = violations == 0
    report(7, "projected-gradient step-length bound (literal form)", ok,
           f"({violations}/100 violations; expected failure, see decisions ledger)")
    assert violations == 0, (
        f"step-length form violated in {violations}/100 trials; "
        "the contraction-to-optimum form (companion test) holds"
    )


def test_criterion_7_companion_contraction_to_optimum(contraction_trials):
    # the form the regret analysis actually uses: one projected gradient
    # step contracts the distance to the constrained minimizer by kappa
    violations = sum(
        np.linalg.norm(z1 - zstar) > kappa * np.linalg.norm(z0 - zstar) + 1e-10
        for z0, z1, zstar, kappa in contraction_trials)
    ok = violations == 0
    report(7, "projected-gradient contraction to the optimum (companion)", ok,
           f"({violations}/100 violations)")
    assert violations == 0


# ------------------------------------------------------------------ 8

def test_criterion_8_weighted_pseudoinverse_optimality():
    rng = np.random.default_rng(88)
    model = random_system(rng, 3, 2, 2)
    n, mu = 3, 4
    data = collect_offline_data(model, 120, pe_order=3 * n + mu + 1, seed=8)
    pre = precompute(data, n, mu, "identity+future_inputs")
    _, H_beta = coefficient_matrices(pre)
    Q = q_weight(pre, "identity+future_inputs")
    proj = build_projector(data, n)
    cfg = ControllerConfig(gamma=0.1, mu=mu, n=n)
    state = initialize(cfg, pre, np.zeros((n, model.p)))
    alpha, _ = solve_alpha(state, pre)
    worst_gap, worst_res = 0.0, 0.0
    for _ in range(50):
        z_s = proj.basis @ rng.normal(size=proj.dim)
        beta, g, *_ = solve_beta(alpha, z_s, pre)
        beta_star = min_seminorm_qp(H_beta, g, Q)
        gap = np.linalg.norm(Q @ beta) - np.linalg.norm(Q @ beta_star)
        res = np.linalg.norm(H_beta @ beta - g)
        worst_gap = max(worst_gap, float(gap))
        worst_res = max(worst_res, float(res))
    ok = worst_gap <= 1e-9 and worst_res <= 1e-8
    report(8, "steering correction is the weighted-seminorm minimizer", ok,
           f"(worst optimality gap {worst_gap:.2e}, worst residual {worst_res:.2e})")
    assert worst_gap <= 1e-9
    assert worst_res <= 1e-8


# ------------------------------------------------------------------ 9

def test_criterion_9_gradient_correctness():
    from ddcontrol.costs import QuadraticSoftplusCost, hvac_cost_schedule
    from helpers import central_diff

    rng = np.random.default_rng(99)
    families = {
        "tracking": QuadraticTrackingCost(
            H=np.diag([3.0, 1.0, 2.0]), target=np.array([0.5, -1.0, 2.0])),
        "softplus": QuadraticSoftplusCost(
            H=np.diag([2.0, 1.0, 1.5]), target=np.array([0.0, 1.0, -0.5]),
            a=np.array([0.4, -0.7, 0.2]), c=2.0),
        "scheduled": hvac_cost_schedule(p=2, m=1, day_steps=64),
    }
    worst = 0.0
    for name, cost in families.items():
        for _ in range(100):
            t = int(rng.integers(0, 60)) if name == "scheduled" else 0
            z = rng.normal(size=3) * 2.0
            g = cost.grad(t, z)
            fd = central_diff(lambda v: cost.eval(t, v), z, h=1e-6)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)
            worst = max(worst, float(rel))
    ok = worst <= 1e-5
    report(9, "analytic gradients match central differences", ok,
           f"(worst relative error {worst:.2e} over 300 points)")
    assert worst <= 1e-5


# ------------------------------------------------------------------ 10

def test_criterion_10_thermal_benchmark():
    # The published accumulated-cost figures for this scenario are not
    # reproducible from first principles (the thermal constants and the
    # price profile behind them are not available), so this criterion
    # checks the qualitative findings on the shipped default parameters.
    config = ExperimentConfig.from_json(shipped_config_path())
    seeds = range(5)
    max_run_time = 0.0
    details = []
    for seed in seeds:
        costs = {}
        for mu in (10, 30):
            t0 = time.monotonic()
            record, summary = run_experiment(config, seed=seed, mu=mu)
            max_run_time = max(max_run_time, time.monotonic() - t0)
            # (a) bounded states, finite regret
            assert np.isfinite(record.y).all() and np.abs(record.y).max() < 50.0
            assert np.isfinite(summary["regret"])
            costs[mu] = summary["accumulated_cost"]
            if mu == 10:
                # (c) the failing-sensor window must not hurt true tracking
                track = np.linalg.norm(record.y - record.zeta[:, 5:], axis=1)
                fail = config.noise.failing_sensor
                lo, hi = fail["start"], fail["end"]
                in_window = track[lo:hi].mean()
                out_window = np.concatenate([track[:lo], track[hi:]]).mean()
                assert in_window <= 2.0 * out_window
        # (b) the shorter horizon is at least as good, per common seed
        assert costs[10] <= costs[30]
        details.append(f"seed {seed}: {costs[10]:.0f}/{costs[30]:.0f}")
    ok = max_run_time < 60.0
    report(10, "thermal benchmark qualitative reproduction", ok,
           f"(accumulated cost mu=10/mu=30 per seed: {'; '.join(details)}; "
           f"slowest day-run {max_run_time:.1f} s)")
    assert max_run_time < 60.0
