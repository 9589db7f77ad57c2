import copy
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddcontrol.behavioral import Trajectory
from ddcontrol.controller import (Q_MODES, Controller, ControllerConfig,
                                  check_step_size, estimate_noise,
                                  initialize, precompute,
                                  predict_and_descend,
                                  regularized_init_solution, solve_alpha,
                                  solve_beta)
from ddcontrol.costs import QuadraticTrackingCost
from ddcontrol.errors import FeasibilityError, PersistencyError
from ddcontrol.harness import OfflineSpec
from ddcontrol.plant import PlantModel, collect_offline_data, simulate, step
from ddcontrol.steady_state import build_projector, optimal_steady_state

from helpers import (checked_run, coefficient_matrices, constrained_ls_kkt,
                     kernel_basis_q_tilde, min_seminorm_qp, q_weight,
                     random_system, rank_by_svd)


@pytest.fixture(scope="module")
def siso_setup(siso_data):
    cfg = ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity")
    pre = precompute(siso_data, cfg.n, cfg.mu, cfg.q_mode)
    proj = build_projector(siso_data, cfg.n)
    return cfg, pre, proj


@pytest.fixture(scope="module")
def mimo_setup():
    rng = np.random.default_rng(91)
    model = random_system(rng, 3, 2, 2)
    n, mu = 3, 4
    data = collect_offline_data(model, 120, pe_order=3 * n + mu + 1, seed=5)
    cfg = ControllerConfig(gamma=0.1, mu=mu, n=n, q_mode="identity")
    pre = precompute(data, n, mu, cfg.q_mode)
    proj = build_projector(data, n)
    return model, data, cfg, pre, proj


def run_closed_loop(model, ctrl, cost, T, x0, e_seq=None, q_seq=None):
    """Tiny manual loop mirroring the harness call order.

    Returns the inputs, true outputs and measurements, and ``ctrl.last``
    after every step.
    """
    n = ctrl.config.n
    x = np.asarray(x0, dtype=float).copy()
    meas = np.empty((n, model.p))
    for k in range(n):
        e = None if e_seq is None else e_seq[k]
        x, _, meas[k] = step(model, x, np.zeros(model.m), e)
    ctrl.start(meas)
    prev, revealed = None, None
    us, ys, ymeas, steps = [], [], [], []
    for t in range(T + 1):
        u = ctrl.step(y_meas=prev, prev_cost=revealed)
        steps.append(ctrl.last)
        e = None if e_seq is None else e_seq[n + t]
        q = None if q_seq is None else q_seq[t]
        x, y, ym = step(model, x, u, e, q)
        revealed = cost
        us.append(u)
        ys.append(y)
        ymeas.append(ym)
        prev = ym
    return np.array(us), np.array(ys), np.array(ymeas), steps


# ---------------------------------------------------------------- precompute

def test_precompute_pseudoinverse_identities(mimo_setup):
    _, _, _, pre, _ = mimo_setup
    Ha, H_beta = coefficient_matrices(pre)
    columns = pre.U.shape[1]
    assert np.linalg.norm(Ha @ pre.H_alpha_pinv @ Ha - Ha) \
        <= 1e-8 * np.linalg.norm(Ha)
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = H_beta @ rng.normal(size=columns)
        back = H_beta @ (pre.Q_tilde @ g)
        assert np.linalg.norm(back - g) <= 1e-8 * (1.0 + np.linalg.norm(g))
    assert_allclose(pre.Q_tilde @ np.zeros(H_beta.shape[0]),
                    np.zeros(columns), atol=1e-15)


def test_precompute_min_norm_against_qp_oracle(mimo_setup):
    _, _, _, pre, _ = mimo_setup
    rng = np.random.default_rng(1)
    _, Hb = coefficient_matrices(pre)
    columns = pre.U.shape[1]
    kernel = np.linalg.svd(Hb)[2][rank_by_svd(Hb):].T
    for _ in range(50):
        g = Hb @ rng.normal(size=columns)
        beta = pre.Q_tilde @ g
        # oracle solution of the same program
        beta_star = min_seminorm_qp(Hb, g, np.eye(columns))
        assert np.linalg.norm(beta) <= np.linalg.norm(beta_star) + 1e-9
        # random feasible alternatives cannot do better
        alt = beta + kernel @ rng.normal(size=kernel.shape[1])
        assert np.linalg.norm(beta) <= np.linalg.norm(alt) + 1e-12


def test_precompute_rejects_bad_inputs(siso_model):
    # constant input: no excitation
    flat = simulate(siso_model, np.zeros(1), np.ones((30, 1)))
    with pytest.raises(PersistencyError):
        precompute(flat, 1, 2, "identity")
    tiny = simulate(siso_model, np.zeros(1),
                    np.random.default_rng(0).uniform(-1, 1, (9, 1)))
    with pytest.raises(ValueError, match="too short"):
        precompute(tiny, 1, 2, "identity")


def _record(n, m, p, seed):
    """150 samples of a ``random_system`` plant, exciting enough for mu = n."""
    model = random_system(np.random.default_rng(seed), n, m, p)
    return collect_offline_data(model, 150, pe_order=3 * n + n + 1, seed=seed)


#: Schur-stable n=5 plants with poles below 0.33 seen through one output;
#: cond(H_beta) is about 1e7 and 1.6e6, although H_beta has full row rank
POORLY_OBSERVABLE = [(5, 2, 1, 889143), (5, 2, 1, 969146)]


def test_steering_map_on_poorly_observable_plant():
    # a Q_tilde built from the round-off of the kernel projector
    # I - H_beta^+ H_beta missed here by 7.5e7 relative; the closed form
    # takes the kernel from the SVD of H_beta
    n = mu = 5
    pre = precompute(_record(*POORLY_OBSERVABLE[0]), n, mu, "identity")
    _, H_beta = coefficient_matrices(pre)
    g = H_beta @ np.random.default_rng(0).normal(size=pre.U.shape[1])
    back = H_beta @ (pre.Q_tilde @ g)
    assert np.linalg.norm(back - g) <= 1e-8 * (1.0 + np.linalg.norm(g))


def _projector_q_tilde(pre, mode):
    """The steering map as formerly built, through the kernel projector.

    ``(I - pinv(Q (I - H_beta^+ H_beta)) Q) H_beta^+`` pseudo-inverts the
    projector's round-off, so on a poorly conditioned H_beta it misses its
    targets; kept here as the broken reference.
    """
    from ddcontrol.linalg import pinv

    _, H_beta = coefficient_matrices(pre)
    H_beta_pinv = pinv(H_beta)
    I = np.eye(pre.U.shape[1])
    Q = q_weight(pre, mode)
    return (I - pinv(Q @ (I - H_beta_pinv @ H_beta)) @ Q) @ H_beta_pinv


def test_residual_map_keeps_a_broken_steering_map_loud(monkeypatch):
    # the step's beta residual measures only g's distance from range(H_beta),
    # so Q_tilde's own error is checked once, at construction: the plant
    # above steers, and the projector-form Q_tilde put back is refused by
    # that check. (This record's steady-state set has dimension m = 2, so
    # the target is a real equilibrium: g_norm 2.8e-2.)
    import ddcontrol.controller as ctrl_module

    n = mu = 5
    data = _record(*POORLY_OBSERVABLE[0])
    cfg = ControllerConfig(gamma=0.1, mu=mu, n=n, q_mode="identity")
    cost = QuadraticTrackingCost(H=np.eye(3), target=np.array([1.0, -1.0, 0.5]))

    def two_steps(ctrl):
        ctrl.start(np.zeros((n, 1)))
        ctrl.step()
        return ctrl.step(y_meas=np.zeros(1), prev_cost=cost)

    ctrl = Controller(cfg, data)
    two_steps(ctrl)
    assert ctrl.last.g_norm > 0
    assert ctrl.last.beta_residual <= 1e-8

    _, H_beta = coefficient_matrices(ctrl.pre)
    L = ctrl.pre.left_null_beta
    ctrl_module.check_steering_map(H_beta, ctrl.pre.Q_tilde, L)
    broken = _projector_q_tilde(ctrl.pre, cfg.q_mode)
    with pytest.raises(FeasibilityError, match="steering map misses its targets"):
        ctrl_module.check_steering_map(H_beta, broken, L)
    # and construction runs the check
    monkeypatch.setattr(ctrl_module, "STEER_RTOL", 0.0)
    with pytest.raises(FeasibilityError, match="steering map misses its targets"):
        precompute(data, n, mu, cfg.q_mode)


@pytest.mark.parametrize("mode", Q_MODES)
@pytest.mark.parametrize("n, m, p, seed", [
    (2, 1, 3, 82), (2, 3, 2, 83), (3, 3, 1, 84), (4, 2, 2, 85), (5, 1, 1, 86),
    (5, 3, 3, 87), *POORLY_OBSERVABLE])
def test_q_tilde_is_the_least_seminorm_solution(mode, n, m, p, seed):
    # beta = Q_tilde g solves H_beta beta = g, and moving along the kernel of
    # H_beta cannot lower |Q beta|^2: the gradient W beta, W = Q'Q, is
    # orthogonal to the kernel (the optimality condition of the null-space
    # method), with the kernel taken from numpy's SVD. Both hold to 1e-10
    # relative plus 100 eps cond(H_beta), the forward-error floor of any
    # backward-stable solve, which only the poorly observable records reach:
    # there the kernel condition reads 9.2e-11 (identity) and 2.3e-9 (future
    # inputs) of |W beta| at cond 1e7
    pre = precompute(_record(n, m, p, seed), n, n, mode)
    Q = q_weight(pre, mode)
    W = Q.T @ Q
    _, Hb = coefficient_matrices(pre)
    _, s, Vt = np.linalg.svd(Hb)
    rank = rank_by_svd(Hb)
    kernel = Vt[rank:].T
    assert kernel.shape[1] > 0
    floor = 100 * np.finfo(float).eps * s[0] / s[rank - 1]
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = Hb @ rng.normal(size=pre.U.shape[1])
        beta = pre.Q_tilde @ g
        assert np.linalg.norm(Hb @ beta - g) <= (1e-10 + floor) * (1.0 + np.linalg.norm(g))
        Wb = W @ beta
        assert np.linalg.norm(kernel.T @ Wb) \
            <= 1e-10 * np.linalg.norm(Wb) + floor * np.linalg.norm(W, 2) * np.linalg.norm(beta)


@pytest.mark.parametrize("n, m, p, seed", [
    (2, 1, 3, 82), (2, 3, 2, 83), (3, 3, 1, 84), (4, 2, 2, 85), (5, 1, 1, 86),
    (5, 3, 3, 87)])
def test_q_tilde_agrees_with_the_kernel_basis_form(n, m, p, seed):
    # with future inputs the closed form takes the kernel of H_beta through
    # its projector I - V_r V_r' and matches the kernel-basis form on the
    # well-conditioned records above (cond(H_beta) at most 3.4e3); identity
    # mode is H_beta^+ as numpy rounds it
    from ddcontrol.linalg import RANK_RTOL

    data = _record(n, m, p, seed)
    pre = precompute(data, n, n, "identity+future_inputs")
    ref = kernel_basis_q_tilde(pre)
    assert np.linalg.norm(pre.Q_tilde - ref) <= 1e-11 * np.linalg.norm(ref)
    _, Hb = coefficient_matrices(pre)
    assert np.array_equal(precompute(data, n, n, "identity").Q_tilde,
                          np.linalg.pinv(Hb, rcond=max(Hb.shape) * RANK_RTOL))


def test_thermal_precompute_factors_each_matrix_once(monkeypatch):
    # a thermal cache miss takes one economy SVD of H_alpha and one of
    # H_beta, and no full SVD: the kernel of H_beta enters only through
    # its projector I - V_r V_r', so no 380x380 factor, kernel basis, weight
    # or projector comes back unnoticed
    import ddcontrol.linalg as linalg_module
    from ddcontrol.harness import ExperimentConfig, shipped_config_path

    config = ExperimentConfig.from_json(shipped_config_path())
    cc = config.controller
    model, _ = config.plant.build()
    data = collect_offline_data(
        model, config.offline.N, pe_order=3 * cc.n + cc.mu + 1,
        input_box=(config.offline.input_low, config.offline.input_high),
        seed=config.offline.seed)
    real_factor, calls = linalg_module.factor, []

    def counted_factor(M, *args, **kwargs):
        calls.append(np.shape(M))
        return real_factor(M, *args, **kwargs)

    monkeypatch.setattr(linalg_module, "factor", counted_factor)
    pre = precompute(data, cc.n, cc.mu, cc.q_mode)
    assert sorted(calls) == [(85, 380), (120, 380)]
    H_alpha, H_beta = coefficient_matrices(pre)
    assert [H_beta.shape, H_alpha.shape] == [(85, 380), (120, 380)]


def _logged_and_fresh_residuals(monkeypatch, rng, model, data, n):
    """Each solve's logged residual, a fresh ``|H x - rhs|`` and ``|rhs|``.

    Runs 20 closed-loop steps at mu = n; rows alternate alpha and beta
    solves. The stored outputs are nudged by 1e-9 each step, which lifts
    the alpha residual above round-off.
    """
    import ddcontrol.controller as ctrl_module

    ctrl = Controller(ControllerConfig(gamma=0.2, mu=n, n=n, q_mode="identity"), data)
    cost = QuadraticTrackingCost(H=np.eye(model.m + model.p),
                                 target=rng.normal(size=model.m + model.p))
    real_solve_alpha, real_solve_beta = ctrl_module.solve_alpha, ctrl_module.solve_beta
    fresh = []

    def nudged_solve_alpha(state, pre, y_latest=None):
        state.y_den_hist += 1e-9 * rng.normal(size=state.y_den_hist.shape)
        alpha, res = real_solve_alpha(state, pre, y_latest)
        rhs = ctrl_module.alpha_rhs(state, pre, y_latest)
        fresh.append([res, np.linalg.norm(coefficient_matrices(pre)[0] @ alpha - rhs),
                      np.linalg.norm(rhs)])
        return alpha, res

    def recording_solve_beta(alpha, z_s, pre):
        beta, g, g_norm, res = real_solve_beta(alpha, z_s, pre)
        fresh.append([res, np.linalg.norm(coefficient_matrices(pre)[1] @ beta - g),
                      np.linalg.norm(g)])
        return beta, g, g_norm, res

    monkeypatch.setattr(ctrl_module, "solve_alpha", nudged_solve_alpha)
    monkeypatch.setattr(ctrl_module, "solve_beta", recording_solve_beta)
    run_closed_loop(model, ctrl, cost, 20, rng.normal(size=n))
    return ctrl.pre, *np.array(fresh).T


@pytest.mark.parametrize("n, m, p", [(2, 1, 2), (3, 2, 2), (4, 1, 3), (5, 2, 2)])
def test_residual_maps_equal_fresh_residuals(monkeypatch, n, m, p):
    # each logged residual, taken through an offline basis, equals the norm
    # of the solve's own H x - rhs; every plant has more than one output,
    # since n outputs of one channel fit some state
    rng = np.random.default_rng(70 + n)
    model = random_system(rng, n, m, p)
    order = 3 * n + n + 1                      # excitation order at mu = n
    data = collect_offline_data(model, (m + 1) * order + 20, pe_order=order, seed=n)
    _, logged, want, scale = _logged_and_fresh_residuals(monkeypatch, rng, model, data, n)
    assert len(logged) == 2 * 21
    assert logged[0::2].max() > 1e-11
    assert np.all(np.abs(logged - want) <= 1e-12 * (1.0 + scale))


def test_residuals_on_a_tall_record_take_the_whole_complement(monkeypatch):
    # with p > m + 1 and the shortest record, H_alpha (25x21) and H_beta
    # (33x21) are tall, both of rank 17: their complements have dimension 8
    # and 16, of which an economy SVD holds only 4, so precompute takes the
    # full SVD, and the logged residuals still equal fresh ones
    n, m, p = 4, 1, 3
    rng = np.random.default_rng(0)
    model = random_system(rng, n, m, p)
    order = 3 * n + n + 1
    data = collect_offline_data(model, (m + 1) * order - 1, pe_order=order, seed=n)
    pre, logged, want, scale = _logged_and_fresh_residuals(monkeypatch, rng, model, data, n)
    for H, L in zip(coefficient_matrices(pre), (pre.left_null_alpha, pre.left_null_beta)):
        assert H.shape[0] > H.shape[1] and rank_by_svd(H) == 17
        assert L.shape == (H.shape[0] - rank_by_svd(H), H.shape[0])
        assert L.flags.c_contiguous
        assert_allclose(L @ L.T, np.eye(L.shape[0]), atol=1e-12)
        assert np.abs(L @ H).max() <= 1e-12 * np.abs(H).max()
    assert logged[0::2].max() > 1e-11
    assert np.all(np.abs(logged - want) <= 1e-12 * (1.0 + scale))


@pytest.mark.parametrize("record, mu, dims", [
    ("thermal", 10, (10, 20)), ("thermal", 30, (10, 20)), ("scalar", 2, (0, 0))])
def test_complement_dimensions_on_the_benchmark_records(record, mu, dims):
    # rows minus rank of H_alpha and H_beta: on the shipped thermal record
    # pn - n_true = 15 - 5 and twice that, at either sweep horizon; the
    # scalar record's matrices have full row rank, so its per-step checks
    # test finiteness only
    from ddcontrol.harness import ExperimentConfig, shipped_config_path

    if record == "thermal":
        config = ExperimentConfig.from_json(shipped_config_path())
        n, q_mode = config.controller.n, config.controller.q_mode
        model, _ = config.plant.build()
        offline = config.offline
    else:
        n, q_mode = 1, "identity"
        model = PlantModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        offline = OfflineSpec(N=60, seed=3)
    data = collect_offline_data(model, offline.N, pe_order=3 * n + mu + 1,
                                input_box=(offline.input_low, offline.input_high),
                                seed=offline.seed)
    pre = precompute(data, n, mu, q_mode)
    assert (pre.left_null_alpha.shape[0], pre.left_null_beta.shape[0]) == dims
    for H, L in zip(coefficient_matrices(pre), (pre.left_null_alpha, pre.left_null_beta)):
        assert L.shape == (H.shape[0] - rank_by_svd(H), H.shape[0])


#: round-off allowance of the membership bound below. The two residuals
#: come from different products (``E_alpha`` against a fresh factor of the
#: depth-n windows), and the membership residual exceeded the logged one
#: by at most 8.2e-15, on the thermal record
MEMBERSHIP_SLACK = 1e-13


@pytest.mark.parametrize("plant", ["thermal", (2, 1, 2), (3, 2, 2), (4, 1, 3), (5, 2, 2)],
                         ids=["thermal", "n2", "n3", "n4", "n5"])
def test_window_membership_is_bounded_by_the_alpha_residual(monkeypatch, plant):
    # the window a step solves with, its past inputs and denoised outputs,
    # is part of the alpha solve's right-hand side, and the record's
    # depth-n windows include H_alpha's columns. So the window's membership
    # residual is at most the alpha residual, which every step checks and
    # logs. The stored outputs are nudged by 1e-9 each step, as in
    # ``test_residual_maps_equal_fresh_residuals``, so that both residuals
    # sit above round-off
    import ddcontrol.controller as ctrl_module
    from ddcontrol.behavioral import membership_residual
    from ddcontrol.harness import ExperimentConfig, shipped_config_path

    rng = np.random.default_rng(17)
    if plant == "thermal":
        config = ExperimentConfig.from_json(shipped_config_path())
        cc = config.controller
        model, x0 = config.plant.build()
        data = collect_offline_data(
            model, config.offline.N, pe_order=3 * cc.n + cc.mu + 1,
            input_box=(config.offline.input_low, config.offline.input_high),
            seed=config.offline.seed)
        cost = config.cost.build(model.m, model.p)
    else:
        n, m, p = plant
        model = random_system(rng, n, m, p)
        order = 3 * n + n + 1                  # excitation order at mu = n
        data = collect_offline_data(model, (m + 1) * order + 20, pe_order=order, seed=n)
        cc = ControllerConfig(gamma=0.2, mu=n, n=n, q_mode="identity")
        cost = QuadraticTrackingCost(H=np.eye(m + p), target=rng.normal(size=m + p))
        x0 = rng.normal(size=n)
    ctrl = Controller(cc, data)
    real_solve_alpha, windows = ctrl_module.solve_alpha, []

    def nudged_solve_alpha(state, pre, y_latest=None):
        state.y_den_hist += 1e-9 * rng.normal(size=state.y_den_hist.shape)
        y_window = state.y_den_hist.copy() if y_latest is None \
            else np.vstack([state.y_den_hist[1:], y_latest])
        windows.append(Trajectory(state.u_hist.copy(), y_window))
        return real_solve_alpha(state, pre, y_latest)

    monkeypatch.setattr(ctrl_module, "solve_alpha", nudged_solve_alpha)
    *_, steps = run_closed_loop(model, ctrl, cost, 40, x0)
    membership = np.array([membership_residual(data, w) for w in windows])
    logged = np.array([d.alpha_residual for d in steps])
    assert len(membership) == len(logged) == 41
    assert membership.min() > 1e-11
    assert np.all(membership <= logged + MEMBERSHIP_SLACK), \
        np.max(membership - logged)


def test_precompute_refuses_unknown_q_mode(siso_data):
    assert Q_MODES == ("identity", "identity+future_inputs")
    with pytest.raises(ValueError, match="unknown q_mode 'bogus'"):
        precompute(siso_data, 1, 2, "bogus")


# ---------------------------------------------------------------- noise estimate

def test_estimate_noise_requires_previous_step(siso_setup, siso_data):
    cfg, pre, _ = siso_setup
    state = initialize(cfg, pre, np.zeros((1, 1)))
    with pytest.raises(RuntimeError, match=r"call step\(\)"):
        estimate_noise(state, np.zeros(1), pre)


def test_estimate_noise_exact_when_noise_free(siso_model, siso_data):
    cfg = ControllerConfig(gamma=0.1, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    cost = QuadraticTrackingCost(H=np.eye(2), target=np.array([0.2, 0.4]))
    _, _, _, steps = run_closed_loop(siso_model, ctrl, cost, 10, np.zeros(1))
    # plant at rest, no noise: every estimate must be numerically zero
    # (step t consumes the estimate for the measurement after step t-1)
    estimates = [d.e_hat for d in steps[1:]]
    assert len(estimates) == 10
    for est in estimates:
        assert np.linalg.norm(est) <= 1e-9


def test_estimate_noise_affine_shift(siso_setup, siso_data, siso_model):
    cfg, pre, _ = siso_setup
    ctrl = Controller(cfg, siso_data)
    cost = QuadraticTrackingCost(H=np.eye(2), target=np.array([0.2, 0.4]))
    run_closed_loop(siso_model, ctrl, cost, 5, np.zeros(1))
    y = np.array([0.37])
    delta = np.array([2.5])
    base = ctrl.noise_estimate(y)
    shifted = ctrl.noise_estimate(y + delta)
    assert_allclose(shifted - base, delta, atol=1e-12)


def test_estimate_noise_error_follows_plant_decay(siso_model, siso_data):
    # constant sensor offset, plant started away from rest: the estimate
    # error is the unforced plant response and halves every step (A = 0.5)
    cfg = ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    cost = QuadraticTrackingCost(H=np.eye(2), target=np.array([0.2, 0.4]))
    T = 60
    e_seq = np.full((T + 2, 1), 0.3)
    _, _, _, steps = run_closed_loop(siso_model, ctrl, cost, T, np.array([1.0]),
                                     e_seq=e_seq)
    est = np.array([d.e_hat for d in steps[1:]])   # estimates for steps 0..T-1
    err = np.abs(est[:, 0] - 0.3)
    ratios = err[5:25] / err[4:24]
    assert np.all(np.abs(ratios - 0.5) <= 0.025)   # within 5% of the true rate


# ---------------------------------------------------------------- alpha solve

def test_solve_alpha_zero_state(siso_setup):
    cfg, pre, _ = siso_setup
    state = initialize(cfg, pre, np.zeros((1, 1)))
    alpha, _ = solve_alpha(state, pre)
    assert np.linalg.norm(pre.U @ alpha) <= 1e-10
    assert np.linalg.norm(pre.Y_past @ alpha) <= 1e-10
    assert np.linalg.norm(pre.Y_ahead @ alpha) <= 1e-10


def test_solve_alpha_held_at_steady_state(siso_setup):
    cfg, pre, _ = siso_setup
    state = initialize(cfg, pre, np.zeros((1, 1)))
    # overwrite the memory as if the loop had been parked at (u, y) = (1, 2)
    state.u_hist[:] = 1.0
    state.y_den_hist[:] = 2.0
    state.u_pred[:] = 1.0
    state.z_s_prev[:] = np.array([1.0, 2.0])
    alpha, _ = solve_alpha(state, pre)
    assert_allclose(pre.Y_ahead @ alpha, [2.0], atol=1e-8)


def test_solve_alpha_detects_corrupted_state(mimo_setup):
    # two output channels over three steps over-determine the initial
    # state, so an arbitrary output history is not a trajectory
    model, _, cfg, pre, _ = mimo_setup
    state = initialize(cfg, pre, np.zeros((cfg.n, model.p)))
    rng = np.random.default_rng(77)
    state.y_den_hist[:] = rng.normal(size=state.y_den_hist.shape) * 5
    with pytest.raises(FeasibilityError, match="infeasible"):
        solve_alpha(state, pre)


# ---------------------------------------------------------------- gradient step

def test_predict_and_descend_fixed_point(siso_setup):
    cfg, pre, proj = siso_setup
    state = initialize(cfg, pre, np.zeros((1, 1)))
    z_on = proj.basis[:, 0] * 1.3
    state.u_hist[:] = z_on[0]
    state.y_den_hist[:] = z_on[1]
    state.u_pred[:] = z_on[0]
    state.z_s_prev[:] = z_on
    alpha, _ = solve_alpha(state, pre)
    cost = QuadraticTrackingCost(H=np.eye(2), target=z_on)  # gradient zero at z_on
    z_hat, z_s = predict_and_descend(state, alpha, pre, cost, 0, proj, 0.3)
    assert_allclose(z_hat, z_on, atol=1e-9)
    assert_allclose(z_s, z_hat, atol=1e-9)


def test_predict_and_descend_hand_example(siso_setup):
    # at the origin with L = 0.5 (y-1)^2 + 5 u^2 the gradient is (0, -1)
    # and one step of size 0.15 lands on P (0, 0.15) = (0.06, 0.12)
    cfg, pre, proj = siso_setup
    state = initialize(cfg, pre, np.zeros((1, 1)))
    alpha, _ = solve_alpha(state, pre)
    cost = QuadraticTrackingCost(H=np.diag([10.0, 1.0]), target=np.array([0.0, 1.0]))
    z_hat, z_s = predict_and_descend(state, alpha, pre, cost, 0, proj, 0.15)
    assert_allclose(z_hat, np.zeros(2), atol=1e-10)
    assert_allclose(z_s, [0.06, 0.12], atol=1e-8)
    # None cost: pure projection, no gradient step
    _, z_s0 = predict_and_descend(state, alpha, pre, None, -1, proj, 0.15)
    assert_allclose(z_s0, np.zeros(2), atol=1e-12)


def test_gradient_step_contracts_toward_manifold_optimum(siso_setup):
    # one projected gradient step from a manifold point lands closer to the
    # constrained minimizer by the factor 1 - alpha_z * gamma
    cfg, pre, proj = siso_setup
    rng = np.random.default_rng(8)
    for _ in range(100):
        M = rng.normal(size=(2, 2))
        H = M @ M.T + 0.2 * np.eye(2)
        cost = QuadraticTrackingCost(H=H, target=rng.normal(size=2) * 2)
        gamma = 2.0 / (cost.alpha_z + cost.l_z)
        kappa = 1.0 - cost.alpha_z * gamma
        z0 = proj.basis @ rng.normal(size=1) * 3
        zeta = optimal_steady_state(proj, cost)
        z1 = proj.P @ (z0 - gamma * cost.grad(0, z0))
        assert (np.linalg.norm(z1 - zeta)
                <= kappa * np.linalg.norm(z0 - zeta) + 1e-10)


def test_gradient_step_spec_instance_step_bound(siso_setup):
    # the hand example instance also satisfies the step-length form
    # |z1 - z0| <= (1 - alpha gamma) |z0 - zstar| at gamma = 0.15
    cfg, pre, proj = siso_setup
    cost = QuadraticTrackingCost(H=np.diag([10.0, 1.0]), target=np.array([0.0, 1.0]))
    gamma = 0.15
    z0 = np.zeros(2)
    zeta = optimal_steady_state(proj, cost)
    z1 = proj.P @ (z0 - gamma * cost.grad(0, z0))
    assert (np.linalg.norm(z1 - z0)
            <= (1 - cost.alpha_z * gamma) * np.linalg.norm(z0 - zeta) + 1e-10)


# ---------------------------------------------------------------- beta solve

def test_solve_beta_zero_mismatch(siso_setup):
    cfg, pre, proj = siso_setup
    state = initialize(cfg, pre, np.zeros((1, 1)))
    alpha, _ = solve_alpha(state, pre)
    beta, g, *_ = solve_beta(alpha, np.zeros(2), pre)
    assert_allclose(g, np.zeros_like(g), atol=1e-12)
    assert_allclose(beta, np.zeros_like(beta), atol=1e-12)


def test_solve_beta_optimality_against_oracle(mimo_setup):
    model, data, cfg, pre, proj = mimo_setup
    rng = np.random.default_rng(3)
    state = initialize(cfg, pre, np.zeros((cfg.n, model.p)))
    alpha, _ = solve_alpha(state, pre)
    Q = q_weight(pre, cfg.q_mode)
    _, H_beta = coefficient_matrices(pre)
    for _ in range(20):
        z_s = proj.basis @ rng.normal(size=proj.dim)
        beta, g, *_ = solve_beta(alpha, z_s, pre)
        beta_star = min_seminorm_qp(H_beta, g, Q)
        assert np.linalg.norm(Q @ beta) \
            <= np.linalg.norm(Q @ beta_star) + 1e-9
        assert np.linalg.norm(H_beta @ beta - g) \
            <= 1e-8 * (1.0 + np.linalg.norm(g))


def test_solve_beta_infeasible_target(mimo_setup):
    # holding an off-manifold pair for n >= 2 terminal steps is not a
    # trajectory, so the steering solve must flag it
    model, _, cfg, pre, proj = mimo_setup
    state = initialize(cfg, pre, np.zeros((cfg.n, model.p)))
    alpha, _ = solve_alpha(state, pre)
    z_bad = np.concatenate([np.ones(model.m), 37.0 * np.ones(model.p)])
    assert np.linalg.norm(proj.S @ z_bad) > 1.0   # genuinely off the manifold
    with pytest.raises(FeasibilityError, match="steering"):
        solve_beta(alpha, z_bad, pre)


def test_solve_beta_refuses_a_target_whose_squared_norm_overflows(mimo_setup):
    # |g|^2 overflows to inf, and a bound of inf once passed any residual
    model, _, cfg, pre, proj = mimo_setup
    state = initialize(cfg, pre, np.zeros((cfg.n, model.p)))
    alpha, _ = solve_alpha(state, pre)
    z_huge = 1e160 * np.concatenate([np.ones(model.m), 37.0 * np.ones(model.p)])
    with np.errstate(over="ignore"), pytest.raises(FeasibilityError, match="steering"):
        solve_beta(alpha, z_huge, pre)
    # and the message names the overflow, not the horizon or the data
    with np.errstate(over="ignore"), pytest.raises(
            FeasibilityError, match=r"norm inf; the target mismatch overflowed: the loop "
                                    r"diverged, .* above 2/\(alpha_z \+ l_z\)"):
        solve_beta(alpha, z_huge, pre)


@pytest.mark.parametrize("n, m, p", [(2, 1, 3), (3, 3, 1), (4, 2, 2), (5, 3, 3)])
def test_gathers_match_a_tiled_assembly(monkeypatch, n, m, p):
    # alpha_rhs and solve_beta place the steady state by one gather; the
    # result must equal the tile-and-reshape assembly bit for bit
    import ddcontrol.controller as ctrl_module

    rng = np.random.default_rng(60 + n)
    model = random_system(rng, n, m, p)
    order = 3 * n + n + 1                      # excitation order at mu = n
    data = collect_offline_data(model, (m + 1) * order + 20, pe_order=order, seed=n)
    ctrl = Controller(ControllerConfig(gamma=0.2, mu=n, n=n, q_mode="identity"), data)
    cost = QuadraticTrackingCost(H=np.eye(m + p), target=rng.normal(size=m + p))
    real_alpha_rhs, real_solve_beta = ctrl_module.alpha_rhs, ctrl_module.solve_beta
    checked = []

    def checked_alpha_rhs(state, pre, y_latest=None):
        rhs = real_alpha_rhs(state, pre, y_latest)
        y_hist = state.y_den_hist if y_latest is None \
            else np.vstack([state.y_den_hist[1:], y_latest])
        want = np.concatenate([state.u_hist.reshape(-1), state.u_pred.reshape(-1)[m:],
                               np.tile(state.z_s_prev[:m], n + 1), y_hist.reshape(-1)])
        assert np.array_equal(rhs, want)
        checked.append(y_latest is None)
        return rhs

    def checked_solve_beta(alpha, z_s, pre):
        beta, g, g_norm, res = real_solve_beta(alpha, z_s, pre)
        want = np.concatenate([np.zeros(n * m), np.tile(z_s[:m], n + 1) - pre.U_tail @ alpha,
                               np.zeros(n * p), np.tile(z_s[m:], n) - pre.Y_tail @ alpha])
        assert np.array_equal(g, want)
        return beta, g, g_norm, res

    monkeypatch.setattr(ctrl_module, "alpha_rhs", checked_alpha_rhs)
    monkeypatch.setattr(ctrl_module, "solve_beta", checked_solve_beta)
    e_seq = rng.uniform(-0.1, 0.1, size=(n + 13, p))
    *_, steps = run_closed_loop(model, ctrl, cost, 12, rng.normal(size=n), e_seq)
    assert checked == [True] + [False] * 12
    assert np.abs(steps[-1].z_s).min() > 0     # every entry of the target placed


# ---------------------------------------------------------------- closed loop

def test_per_step_identities_hold_in_closed_loop():
    # the reference plant and record of ``siso_model`` and ``siso_data``
    from ddcontrol.harness import (CostSpec, ExperimentConfig, OfflineSpec,
                                   PlantSpec)

    config = ExperimentConfig(
        plant=PlantSpec(type="matrices", A=[[0.5]], B=[[1.0]], C=[[1.0]],
                        D=[[0.0]], initial_state=[0.4]),
        controller=ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity"),
        cost=CostSpec(type="quadratic", params={"H": [[2.0, 0.0], [0.0, 1.0]],
                                                "target": [0.5, 0.6]}),
        offline=OfflineSpec(N=60, seed=3),
        horizon=60)
    run = checked_run(config)
    assert run.violation <= run.bound
    assert run.membership <= 1e-8


def test_steady_state_fixed_point_no_drift(siso_model, siso_data):
    # park the loop at the optimum of a constant cost: nothing may move
    cfg = ControllerConfig(gamma=0.2, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    proj = ctrl.projector
    cost = QuadraticTrackingCost(H=np.diag([10.0, 1.0]), target=np.array([0.0, 1.0]))
    zeta = optimal_steady_state(proj, cost)
    eta = zeta[:1]
    # drive the true plant to the equilibrium state for input eta
    x = np.linalg.solve(np.eye(1) - siso_model.A, siso_model.B @ eta)
    ctrl.start(np.tile((siso_model.C @ x), (1, 1)))
    # overwrite memory as if it had been at the optimum forever
    ctrl.state.u_hist[:] = eta
    ctrl.state.y_den_hist[:] = zeta[1:]
    ctrl.state.u_pred[:] = eta
    ctrl.state.z_s_prev[:] = zeta
    prev, revealed = None, None
    drift = 0.0
    for t in range(100):
        u = ctrl.step(y_meas=prev, prev_cost=revealed)
        drift = max(drift, float(np.linalg.norm(u - eta)))
        x, _, ym = step(siso_model, x, u)
        revealed = cost
        prev = ym
    assert drift <= 1e-9


def test_controller_converges_to_optimum(siso_model, siso_data):
    cfg = ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    cost = QuadraticTrackingCost(H=np.diag([10.0, 1.0]), target=np.array([0.0, 1.0]))
    us, ys, _, _ = run_closed_loop(siso_model, ctrl, cost, 150, np.zeros(1))
    zeta = optimal_steady_state(ctrl.projector, cost)
    z_fin = np.array([us[-1, 0], ys[-1, 0]])
    assert np.linalg.norm(z_fin - zeta) <= 1e-8


# ---------------------------------------------------------------- initialization

def test_initialize_zero_mode_state_is_valid_trajectory(siso_setup, siso_data):
    cfg, pre, _ = siso_setup
    y_meas = np.array([[0.83]])
    state = initialize(cfg, pre, y_meas)
    from ddcontrol.behavioral import membership_residual
    hist = Trajectory(state.u_hist, state.y_den_hist)
    assert membership_residual(siso_data, hist) <= 1e-12
    # the initial noise estimate is the measurement minus the stored output
    assert_allclose((y_meas - state.y_den_hist)[0], [0.83])


def test_initialize_at_rest_no_noise_gives_zero_estimates(siso_model, siso_data):
    cfg = ControllerConfig(gamma=0.1, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    x = np.zeros(1)
    meas = np.empty((1, 1))
    for k in range(1):
        x, _, meas[k] = step(siso_model, x, np.zeros(1))
    ctrl.start(meas)
    assert_allclose((meas - ctrl.state.y_den_hist)[0], np.zeros(1), atol=1e-15)


def test_initialize_regularized_feasible_and_consistent(mimo_setup):
    model, data, cfg0, pre, proj = mimo_setup
    rng = np.random.default_rng(10)
    cfg = ControllerConfig(gamma=0.1, mu=cfg0.mu, n=cfg0.n,
                           q_mode="identity", init_mode="regularized",
                           lambda_init=0.5)
    # a plant not at rest: the zero warm-up inputs from a random state,
    # measured with noise
    traj = simulate(model, rng.normal(size=model.n), np.zeros((cfg.n, model.m)))
    y_noisy = traj.outputs + rng.uniform(-0.2, 0.2, traj.outputs.shape)
    state = initialize(cfg, pre, y_noisy)
    from ddcontrol.behavioral import membership_residual
    hist = Trajectory(state.u_hist, state.y_den_hist)
    assert np.abs(state.y_den_hist).max() > 0.1
    assert membership_residual(data, hist) <= 1e-8
    # the first step solves for its coefficients like every later one, and
    # the regularized state makes that solve feasible
    _, residual = solve_alpha(state, pre)
    assert residual <= 1e-8


def test_regularized_solution_matches_kkt_oracle_and_monotone(mimo_setup):
    model, data, cfg0, pre, proj = mimo_setup
    rng = np.random.default_rng(13)
    n, p = cfg0.n, model.p
    y_meas = rng.normal(size=(n, p))
    U_full = pre.U
    E = np.hstack([U_full, np.zeros((U_full.shape[0], n * p))])
    M = np.hstack([coefficient_matrices(pre)[0][-p * n:], np.eye(n * p)])
    norms = []
    for lam in (0.01, 1.0, 100.0):
        alpha0 = regularized_init_solution(pre, y_meas, lam)
        # the noise estimates are unconstrained, so given alpha0 they
        # minimize |Y_past alpha0 + e - y|^2 + lam |e|^2 in closed form
        e_hat = (y_meas.ravel() - pre.Y_past @ alpha0) / (1.0 + lam)
        w = np.concatenate([alpha0, e_hat])
        w_star = constrained_ls_kkt(M, y_meas.ravel(), E, np.zeros(E.shape[0]), lam)
        assert_allclose(w, w_star, atol=1e-7)
        norms.append(np.linalg.norm(w))
    # larger regularization pulls toward the minimum-norm feasible pair
    assert norms[0] >= norms[1] >= norms[2]


def test_a_nan_first_measurement_fails_the_first_regularized_step(mimo_setup):
    model, data, cfg0, *_ = mimo_setup
    cfg = ControllerConfig(gamma=0.1, mu=cfg0.mu, n=cfg0.n, q_mode="identity",
                           init_mode="regularized", lambda_init=0.5)
    ctrl = Controller(cfg, data)
    first = np.zeros((cfg.n, model.p))
    first[1, 0] = np.nan
    ctrl.start(first)
    with pytest.raises(FeasibilityError, match="prediction coefficients"):
        ctrl.step()
    assert ctrl.t == 0


# ---------------------------------------------------------------- wrapper protocol

def test_controller_step_protocol(siso_data):
    cfg = ControllerConfig(gamma=0.1, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    with pytest.raises(RuntimeError, match="start"):
        ctrl.step()
    ctrl.start(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="consumes no measurement"):
        ctrl.step(y_meas=np.zeros(1))
    ctrl.step()
    with pytest.raises(ValueError, match="requires the latest measurement"):
        ctrl.step()


def test_noise_estimate_is_pure(siso_model, siso_data):
    cfg = ControllerConfig(gamma=0.1, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    cost = QuadraticTrackingCost(H=np.eye(2), target=np.array([0.2, 0.4]))
    run_closed_loop(siso_model, ctrl, cost, 3, np.zeros(1))
    y = np.array([0.12])
    before, last = copy.deepcopy(ctrl.state), ctrl.last
    first = ctrl.noise_estimate(y)
    second = ctrl.noise_estimate(y)
    assert_allclose(first, second)
    assert ctrl.state.coeff_prev is not None
    assert_allclose(ctrl.state.y_den_hist, before.y_den_hist)
    assert ctrl.last is last


def test_noise_estimate_needs_a_step(siso_data):
    ctrl = Controller(ControllerConfig(gamma=0.1, mu=2, n=1), siso_data)
    with pytest.raises(RuntimeError, match=r"call start\(\)"):
        ctrl.noise_estimate(np.zeros(1))
    ctrl.start(np.zeros((1, 1)))
    with pytest.raises(RuntimeError, match=r"call step\(\)"):
        ctrl.noise_estimate(np.zeros(1))
    ctrl.step()
    assert ctrl.noise_estimate(np.zeros(1)).shape == (1,)


def test_failed_step_leaves_controller_unchanged(mimo_setup):
    # a step commits its new state only after every stage succeeded, so a
    # step that raises must leave the controller exactly as it found it
    model, data, cfg, *_ = mimo_setup
    ctrl = Controller(cfg, data)
    cost = QuadraticTrackingCost(H=np.eye(4), target=np.array([0.3, -0.2, 0.5, 0.1]))
    _, _, ymeas, _ = run_closed_loop(model, ctrl, cost, 10, np.zeros(model.n))
    rng = np.random.default_rng(17)
    ctrl.state.y_den_hist[:] = rng.normal(size=ctrl.state.y_den_hist.shape) * 5
    before = copy.deepcopy(ctrl.state)
    t, last = ctrl.t, ctrl.last
    with pytest.raises(FeasibilityError, match="infeasible"):
        ctrl.step(y_meas=ymeas[-1], prev_cost=cost)
    after = ctrl.state
    for field in ("u_hist", "y_den_hist", "u_pred", "z_s_prev", "coeff_prev"):
        np.testing.assert_array_equal(getattr(after, field), getattr(before, field))
    assert ctrl.t == t
    assert ctrl.last is last


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_measurement_raises_and_leaves_the_controller_unchanged(
        mimo_setup, bad):
    # a non-finite measurement makes the alpha residual NaN (the denoised
    # output of an infinite one is inf - inf), and a NaN fails every
    # comparison; the feasibility test is written so that it fails the step
    model, data, cfg, *_ = mimo_setup
    cost = QuadraticTrackingCost(H=np.eye(4), target=np.array([0.3, -0.2, 0.5, 0.1]))
    ctrl, twin = Controller(cfg, data), Controller(cfg, data)
    _, _, ymeas, _ = run_closed_loop(model, ctrl, cost, 10, np.zeros(model.n))
    run_closed_loop(model, twin, cost, 10, np.zeros(model.n))
    y_bad = ymeas[-1].copy()
    y_bad[0] = bad
    with pytest.raises(FeasibilityError, match=r"prediction coefficients infeasible "
                                               r"\(residual nan\)"), \
            np.errstate(invalid="ignore"):
        ctrl.step(y_meas=y_bad, prev_cost=cost)
    assert ctrl.t == twin.t
    u = ctrl.step(y_meas=ymeas[-1], prev_cost=cost)
    np.testing.assert_array_equal(u, twin.step(y_meas=ymeas[-1], prev_cost=cost))
    np.testing.assert_array_equal(ctrl.last.z_s, twin.last.z_s)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_measurement_raises_where_the_complements_are_empty(
        siso_model, siso_data, bad):
    # on the README quick-start plant H_alpha and H_beta have full row rank,
    # so both residuals read 0 whatever the operands; the bound, taken at
    # every step, still fails a non-finite measurement before ``advance``
    # commits the step, and a non-finite target before the steering solve
    # returns
    cfg = ControllerConfig(gamma=0.3, mu=2, n=1)
    ctrl, twin = Controller(cfg, siso_data), Controller(cfg, siso_data)
    assert ctrl.pre.left_null_alpha.shape[0] == ctrl.pre.left_null_beta.shape[0] == 0
    cost = QuadraticTrackingCost(H=np.diag([2.0, 1.0]), target=np.array([0.0, 1.0]))
    _, _, ymeas, _ = run_closed_loop(siso_model, ctrl, cost, 10, np.zeros(1))
    run_closed_loop(siso_model, twin, cost, 10, np.zeros(1))
    before, last = copy.deepcopy(ctrl.state), ctrl.last
    with pytest.raises(FeasibilityError, match="prediction coefficients infeasible"), \
            np.errstate(invalid="ignore"):
        ctrl.step(y_meas=np.array([bad]), prev_cost=cost)
    for field in ("u_hist", "y_den_hist", "u_pred", "z_s_prev", "coeff_prev"):
        np.testing.assert_array_equal(getattr(ctrl.state, field), getattr(before, field))
    assert ctrl.t == twin.t and ctrl.last is last
    np.testing.assert_array_equal(ctrl.step(y_meas=ymeas[-1], prev_cost=cost),
                                  twin.step(y_meas=ymeas[-1], prev_cost=cost))
    alpha, _ = solve_alpha(ctrl.state, ctrl.pre, ymeas[-1])
    with pytest.raises(FeasibilityError, match="steering correction infeasible"), \
            np.errstate(invalid="ignore"):
        solve_beta(alpha, np.array([bad, 0.0]), ctrl.pre)


@pytest.mark.parametrize("init_mode", ["zero", "regularized"])
def test_step_residuals_match_recomputation(mimo_setup, monkeypatch, init_mode):
    # the diagnostics record the residuals the solves computed for their
    # feasibility checks; they must equal a fresh recomputation from the
    # step's own coefficients and targets. Nudging the stored outputs off
    # the trajectory set by 1e-9 lifts the alpha residual well above
    # round-off, yet far below the feasibility threshold.
    import ddcontrol.controller as ctrl_module

    model, data, cfg0, pre, _ = mimo_setup
    H_alpha, H_beta = coefficient_matrices(pre)
    n, m = cfg0.n, model.m
    cfg = ControllerConfig(gamma=0.1, mu=cfg0.mu, n=n, q_mode="identity",
                           init_mode=init_mode, lambda_init=0.5)
    ctrl = Controller(cfg, data)
    solved = []
    real_solve_beta = ctrl_module.solve_beta

    def recording_solve_beta(alpha, z_s, pre):
        beta, g, g_norm, res = real_solve_beta(alpha, z_s, pre)
        solved.append((alpha, beta, g))
        return beta, g, g_norm, res

    monkeypatch.setattr(ctrl_module, "solve_beta", recording_solve_beta)
    cost = QuadraticTrackingCost(H=np.eye(4), target=np.array([0.3, -0.2, 0.5, 0.1]))
    rng = np.random.default_rng(23)
    x = rng.normal(size=model.n)
    meas = np.empty((n, model.p))
    for k in range(n):
        x, _, meas[k] = step(model, x, np.zeros(m), rng.uniform(-0.1, 0.1, model.p))
    ctrl.start(meas)
    prev, revealed = None, None
    for t in range(40):
        ctrl.state.y_den_hist += 1e-9 * rng.normal(size=ctrl.state.y_den_hist.shape)
        before = copy.deepcopy(ctrl.state)
        u = ctrl.step(y_meas=prev, prev_cost=revealed)
        # the output window a step solves with is the one it commits
        rhs = np.concatenate([before.u_hist.ravel(), before.u_pred.ravel()[m:],
                              np.tile(before.z_s_prev[:m], n + 1),
                              ctrl.state.y_den_hist.ravel()])
        alpha, beta, g = solved[-1]
        d = ctrl.last
        assert d.alpha_residual > 1e-11
        assert abs(d.alpha_residual
                   - np.linalg.norm(H_alpha @ alpha - rhs)) <= 1e-12
        assert abs(d.beta_residual
                   - np.linalg.norm(H_beta @ beta - g)) <= 1e-12
        assert abs(d.g_norm - np.linalg.norm(g)) <= 1e-12
        x, _, prev = step(model, x, u, rng.uniform(-0.1, 0.1, model.p))
        revealed = cost
    assert len(solved) == 40


def test_controller_memory_stays_bounded(siso_model, siso_data):
    # the controller keeps only its latest step, so the memory it holds
    # at step 3000 is what it held at step 300
    import tracemalloc

    cfg = ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    cost = QuadraticTrackingCost(H=np.diag([10.0, 1.0]), target=np.array([0.0, 1.0]))
    rng = np.random.default_rng(31)
    x, _, meas = step(siso_model, np.array([1.0]), np.zeros(1))
    ctrl.start(meas[None, :])
    prev, revealed = None, None
    tracemalloc.start()
    try:
        for t in range(3001):
            if t == 300:
                held_early = tracemalloc.get_traced_memory()[0]
            u = ctrl.step(y_meas=prev, prev_cost=revealed)
            x, _, prev = step(siso_model, x, u, rng.uniform(-0.1, 0.1, 1))
            revealed = cost
        held_late = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held_late - held_early < 64 * 1024


def test_step_does_no_matrix_factorization(monkeypatch, siso_model, siso_data):
    # per-step work is matrix-vector products only; every factorization
    # happens up front, so the loop must survive with the SVD disabled
    cfg = ControllerConfig(gamma=0.1, mu=2, n=1, q_mode="identity")
    ctrl = Controller(cfg, siso_data)
    cost = QuadraticTrackingCost(H=np.eye(2), target=np.array([0.2, 0.4]))
    x = np.zeros(1)
    meas = np.empty((1, 1))
    for k in range(1):
        x, _, meas[k] = step(siso_model, x, np.zeros(1))
    ctrl.start(meas)

    def forbidden(*args, **kwargs):
        raise AssertionError("factorization called inside the per-step loop")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    monkeypatch.setattr(np.linalg, "pinv", forbidden)
    prev, revealed = None, None
    for t in range(5):
        u = ctrl.step(y_meas=prev, prev_cost=revealed)
        x, _, ym = step(siso_model, x, u)
        revealed = cost
        prev = ym


def test_controller_module_never_imports_the_simulator():
    # the controller must work from recorded data and measurements alone;
    # the simulator module is off limits by design
    import ast
    import inspect
    import ddcontrol.controller as ctrl_module

    tree = ast.parse(inspect.getsource(ctrl_module))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "plant" not in (node.module or "")
        if isinstance(node, ast.Import):
            assert all("plant" not in a.name for a in node.names)


def test_config_validation_and_step_size_warning():
    with pytest.raises(ValueError, match="gamma"):
        ControllerConfig(gamma=0.0, mu=2, n=1)
    with pytest.raises(ValueError, match="mu"):
        ControllerConfig(gamma=0.1, mu=0, n=1)
    with pytest.raises(ValueError, match="init_mode"):
        ControllerConfig(gamma=0.1, mu=2, n=1, init_mode="magic")
    assert check_step_size(0.1, 1.0, 10.0) is True
    with pytest.warns(UserWarning, match="exceeds"):
        assert check_step_size(0.5, 1.0, 10.0) is False


# ---------------------------------------------------------------- factor cache

def _factor_arrays(ctrl):
    """Every array reachable from the offline factors, with all its bases.

    Walks ``ctrl.pre`` and ``ctrl.projector`` through dataclass fields, as
    the benchmark's ``factor_bytes`` does.
    """
    out, todo = [], [ctrl.pre, ctrl.projector]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj, np.ndarray):
                out.append(obj)
                obj = obj.base
        elif dataclasses.is_dataclass(obj):
            todo.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return out


def _random_record(rng, N, m, p):
    """A random order-1 plant and its noise-free record, excited for n <= 2."""
    model = random_system(rng, 1, m, p)
    return model, collect_offline_data(model, N, pe_order=9,
                                       seed=int(rng.integers(2 ** 32)))


def test_equal_record_reuses_the_factors(monkeypatch, factor_cache, siso_data):
    import ddcontrol.controller as ctrl_module
    import ddcontrol.linalg as linalg_module
    import ddcontrol.steady_state as ss_module

    calls = []
    for module, name in ((linalg_module, "factor"), (ctrl_module, "precompute"),
                         (ss_module, "build_projector")):
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    cfg = ControllerConfig(gamma=0.15, mu=2, n=1, q_mode="identity")
    first = Controller(cfg, siso_data)
    assert {"factor", "precompute", "build_projector"} <= set(calls)
    calls.clear()
    equal = Trajectory(siso_data.inputs.copy(), siso_data.outputs.copy())
    second = Controller(cfg, equal)
    assert calls == []
    assert second.pre is first.pre and second.projector is first.projector


def test_miss_builds_hankels_through_the_module_attribute(monkeypatch,
                                                        factor_cache, siso_data):
    # tools that time the Hankel build replace ``behavioral.build_hankel_set``;
    # a name bound inside the controller at import would bypass them
    import ddcontrol.behavioral as behavioral_module

    calls = []
    real_build = behavioral_module.build_hankel_set

    def counting_build(*args, **kwargs):
        calls.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(behavioral_module, "build_hankel_set", counting_build)
    Controller(ControllerConfig(gamma=0.1, mu=2, n=1), siso_data)
    assert len(calls) == 1


def test_cached_factors_are_read_only(factor_cache, siso_data):
    # this test, the bound, the failed build and the threads test cover the
    # one policy of ``memoized``, which the runner's record cache shares
    cfg =ControllerConfig(gamma=0.15, mu=2, n=1)
    ctrl = Controller(cfg, siso_data)
    arrays = _factor_arrays(ctrl)
    assert len(arrays) > 10
    assert not [a.shape for a in arrays if a.flags.writeable]
    with pytest.raises(ValueError, match="read-only"):
        ctrl.pre.Y_next[0, 0] = 1.0


def test_distinct_records_never_share_factors(factor_cache):
    model, base_data = _random_record(np.random.default_rng(5), 200, 2, 2)
    u, y = base_data.inputs, base_data.outputs
    base_cfg = ControllerConfig(gamma=0.1, mu=2, n=1, q_mode="identity")
    base = Controller(base_cfg, base_data)
    # each changed record is still a trajectory of the plant: an input
    # change along null(B) moves neither state nor output, and the same
    # inputs from another initial state change only the outputs
    u_changed = u.copy()
    u_changed[17] += 1e-3 * np.linalg.svd(model.B)[2][-1]
    y_changed = simulate(model, np.full(1, 1e-3), u).outputs
    variants = {
        "n": (dataclasses.replace(base_cfg, n=2), base_data),
        "mu": (dataclasses.replace(base_cfg, mu=3), base_data),
        "q_mode": (dataclasses.replace(base_cfg, q_mode="identity+future_inputs"),
                   base_data),
        "input value": (base_cfg, Trajectory(u_changed, y)),
        "output value": (base_cfg, Trajectory(u, y_changed)),
    }
    for name, (cfg, data) in variants.items():
        # the base record is the most recently used entry each time
        assert Controller(base_cfg, base_data).pre is base.pre
        ctrl = Controller(cfg, data)
        assert ctrl.pre is not base.pre, name
        assert ctrl.projector is not base.projector, name
        assert (ctrl.pre.n, ctrl.pre.mu, ctrl.pre.m, ctrl.pre.p) \
            == (cfg.n, cfg.mu, data.m, data.p), name
    # the same bytes read as 400 steps of one input and one output are no
    # trajectory of an order-1 plant: a cache hit would have returned the
    # base factors unchecked
    assert Controller(base_cfg, base_data).pre is base.pre
    with pytest.raises(PersistencyError, match="rank"):
        Controller(base_cfg, Trajectory(u.reshape(400, 1), y.reshape(400, 1)))


def test_factor_cache_is_bounded(monkeypatch, factor_cache):
    # two entries at most, and a miss evicts before it builds, so no build
    # runs beside a full cache
    import tracemalloc
    import ddcontrol.controller as ctrl_module

    held_during_build = []
    real_precompute = ctrl_module.precompute

    def recording_precompute(*args, **kwargs):
        held_during_build.append(len(factor_cache))
        return real_precompute(*args, **kwargs)

    monkeypatch.setattr(ctrl_module, "precompute", recording_precompute)
    model = random_system(np.random.default_rng(91), 3, 2, 2)
    cfg = ControllerConfig(gamma=0.1, mu=4, n=3, q_mode="identity")

    def record(seed):
        return collect_offline_data(model, 200, pe_order=3 * cfg.n + cfg.mu + 1,
                                    seed=seed)

    tracemalloc.start()
    try:
        for seed in range(5):
            ctrl = Controller(cfg, record(seed))
            assert len(factor_cache) <= 2
            if seed == 1:
                entry = sum({id(a): a.nbytes for a in _factor_arrays(ctrl)
                             if a.base is None}.values())
                del ctrl
                held_two = tracemalloc.get_traced_memory()[0]
        del ctrl
        grown = tracemalloc.get_traced_memory()[0] - held_two
    finally:
        tracemalloc.stop()
    assert held_during_build == [0, 1, 1, 1, 1]
    assert grown < entry


def test_failed_construction_caches_nothing(factor_cache, siso_data):
    cfg = ControllerConfig(gamma=0.1, mu=2, n=1, q_mode="identity")
    Controller(cfg, siso_data)
    before = list(factor_cache.items())
    # a constant input is not persistently exciting
    flat = Trajectory(np.ones((siso_data.N, 1)), siso_data.outputs)
    with pytest.raises(PersistencyError):
        Controller(cfg, flat)
    assert list(factor_cache) == [key for key, _ in before]
    assert all(factor_cache[key] is value for key, value in before)


def test_parallel_constructions_share_a_consistent_cache(factor_cache):
    import sys
    import threading

    rng = np.random.default_rng(8)
    records = [_random_record(rng, 80, 1, 1)[1] for _ in range(3)]
    cfg = ControllerConfig(gamma=0.1, mu=2, n=1, q_mode="identity")
    errors, seen = [], []

    def worker(offset):
        try:
            for i in range(150):
                data = records[(i + offset) % len(records)]
                ctrl = Controller(cfg, data)
                seen.append(len(factor_cache))
                assert ctrl.pre.U[0, 0] == data.inputs[0, 0]
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(seen) == 600 and max(seen) <= 2
