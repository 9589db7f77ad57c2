"""Independent oracles used across the test suite.

Everything here is implemented by a different route than the package code
it checks: index loops instead of vectorized stacking, KKT systems instead
of pseudoinverse formulas, finite differences instead of analytic
gradients, and model-based steady-state maps instead of data-driven ones.
The reference step at the end is the exception: it is the package's own
per-step algebra with every product written as ``@``, so that a change to
how the loop calls its products can be checked bit for bit. The
cross-step identities of that algebra, and the membership of each window
a step solves with, are checked on a closed loop by ``checked_run``.
The random plants and the noise-error decay fit are test fixtures only:
no run of the package draws a plant or fits a rate.
"""

import copy
import math
from collections import namedtuple

import numpy as np

from ddcontrol.behavioral import (Trajectory, block_rows, build_hankel,
                                  membership_residual)
from ddcontrol.controller import Controller
from ddcontrol.costs import (CostFunction, QuadraticScheduledCost,
                             QuadraticSoftplusCost, _logistic)
from ddcontrol.plant import PlantModel, collect_offline_data, step


def hankel_by_index(z, L):
    """Hankel matrix straight from the definition, one entry at a time."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    N, q = z.shape
    cols = N - L + 1
    H = np.zeros((q * L, cols))
    for i in range(L):           # block row
        for j in range(cols):    # column
            for k in range(q):   # channel
                H[i * q + k, j] = z[i + j, k]
    return H


def rank_by_svd(M, rtol=1e-12):
    s = np.linalg.svd(np.atleast_2d(M), compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > max(M.shape) * s[0] * rtol))


def coefficient_matrices(pre):
    """``(H_alpha, H_beta)`` of a ``Precomputed``, which keeps only their factors.

    Restacked from the named row blocks with ``precompute``'s own ``vstack``,
    so the two are the matrices it factored, bit for bit.
    """
    n, mu, m = pre.n, pre.mu, pre.m
    U_past, U_f = block_rows(pre.U, m, 1, n), block_rows(pre.U, m, n + 1, 2 * n + mu + 1)
    return (np.vstack([U_past, U_f, pre.Y_past]),
            np.vstack([U_past, pre.U_tail, pre.Y_past, pre.Y_tail]))


def q_weight(pre, mode):
    """The weight Q whose seminorm |Q beta| the steering correction minimizes.

    The identity, stacked on the future-input rows U^{n+1:2n+mu+1} of the
    data Hankel matrix in "identity+future_inputs" mode. The package never
    forms it; its ``Q_tilde`` minimizes the same seminorm in closed form.
    """
    n, mu, m = pre.n, pre.mu, pre.m
    Q = np.eye(pre.U.shape[1])
    if mode == "identity":
        return Q
    assert mode == "identity+future_inputs", mode
    U_f = pre.U[n * m:(2 * n + mu + 1) * m]
    return np.vstack([Q, U_f])


def kernel_basis_q_tilde(pre):
    """``Q_tilde`` of "identity+future_inputs" mode through a kernel basis.

    The form before the push-through identity: N from numpy's full SVD of
    H_beta, M = U_f N, R = M'U_f H_beta^+, and
    H_beta^+ - N (R - M'(I + MM')^-1 M R). It materializes the kernel
    basis the package no longer forms, and serves as the reference.
    """
    n, mu, m = pre.n, pre.mu, pre.m
    _, Hb = coefficient_matrices(pre)
    U_f = pre.U[n * m:(2 * n + mu + 1) * m]
    _, _, Vt = np.linalg.svd(Hb)
    N = Vt[rank_by_svd(Hb):].T
    Hb_pinv = np.linalg.pinv(Hb, rcond=max(Hb.shape) * 1e-12)
    M = U_f @ N
    R = M.T @ (U_f @ Hb_pinv)
    X = R - M.T @ np.linalg.solve(np.eye(M.shape[0]) + M @ M.T, M @ R)
    return Hb_pinv - N @ X


def min_seminorm_qp(H, g, Q):
    """Minimize |Q b|^2 subject to H b = g, via the KKT block system.

    Solves the stationarity/feasibility system with a least-squares solve;
    for Q with positive definite Q'Q the minimizer is unique, so any KKT
    point carries it.
    """
    H = np.atleast_2d(H)
    c = H.shape[1]
    KKT = np.block([
        [Q.T @ Q, H.T],
        [H, np.zeros((H.shape[0], H.shape[0]))],
    ])
    rhs = np.concatenate([np.zeros(c), g])
    sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
    return sol[:c]


def constrained_ls_kkt(M, c, E, b, lam):
    """Minimize |M w - c|^2 + lam |w|^2 s.t. E w = b, via KKT equations."""
    M, E = np.atleast_2d(M), np.atleast_2d(E)
    d = M.shape[1]
    KKT = np.block([
        [M.T @ M + lam * np.eye(d), E.T],
        [E, np.zeros((E.shape[0], E.shape[0]))],
    ])
    rhs = np.concatenate([M.T @ c, b])
    sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
    return sol[:d]


def central_diff(f, z, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    z = np.asarray(z, dtype=float)
    g = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2 * h)
    return g


def model_steady_state(model, u_s):
    """Equilibrium (u_s, y_s) from the state-space matrices directly."""
    u_s = np.atleast_1d(np.asarray(u_s, dtype=float))
    x = np.linalg.solve(np.eye(model.n) - model.A, model.B @ u_s)
    return np.concatenate([u_s, model.C @ x + model.D @ u_s])


def steady_state_constraint(model):
    """E with {z : E z = 0} the model's equilibria: y = G u, G the DC gain."""
    gain = model.C @ np.linalg.solve(np.eye(model.n) - model.A, model.B) + model.D
    return np.hstack([gain, -np.eye(model.p)])


def softplus_kkt_reference(cost, E):
    """Minimizer of a ``QuadraticSoftplusCost`` subject to E z = 0.

    Feasible-start Newton's method on the KKT system (Boyd & Vandenberghe,
    "Convex Optimization", §10.2), from z = 0 with a backtracking line
    search; once the Newton decrement is below 1e-8, three full steps
    finish in the quadratically convergent phase.
    """
    d, r = cost.target.size, E.shape[0]
    z, full_steps = np.zeros(d), 0
    for _ in range(200):
        value, grad = reference_cost(cost, 0, z)
        s = _logistic(cost.a @ z)
        hess = cost.H + cost.c * s * (1 - s) * np.outer(cost.a, cost.a)
        kkt = np.block([[hess, E.T], [E, np.zeros((r, r))]])
        dz = np.linalg.solve(kkt, np.concatenate([-grad, np.zeros(r)]))[:d]
        decrement = -grad @ dz
        t = 1.0
        if decrement <= 1e-8:
            if full_steps == 3:
                return z
            full_steps += 1
        else:
            while reference_cost(cost, 0, z + t * dz)[0] > value - t * decrement / 4:
                t /= 2
        z = z + t * dz
    raise AssertionError("the Newton reference did not converge in 200 steps")


def random_system(rng: np.random.Generator, n: int, m: int, p: int) -> PlantModel:
    """Random Schur-stable, controllable, observable system for experiments.

    The spectral radius of A is drawn uniformly from [0.3, 0.9).
    """
    for _ in range(50):
        A = rng.normal(size=(n, n))
        radius = np.abs(np.linalg.eigvals(A)).max()
        A *= rng.uniform(0.3, 0.9) / max(radius, 1e-9)
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(p, n))
        try:
            return PlantModel(A, B, C)
        except ValueError:
            continue
    raise RuntimeError("failed to draw a minimal stable system")


def fit_decay_rate(errors: np.ndarray) -> float:
    """Geometric decay rate of an error series by a log-linear fit.

    The first tenth of the samples is discarded to avoid transient
    contamination, and samples at or below 1e-13 are dropped so that
    numerical underflow does not pollute the fit. Returns NaN when fewer
    than two usable samples remain.
    """
    errors = np.asarray(errors, dtype=float)
    t = np.arange(len(errors))
    start = int(np.ceil(0.1 * len(errors)))
    t, errors = t[start:], errors[start:]
    mask = errors > 1e-13
    if mask.sum() < 2:
        return float("nan")
    slope = np.polyfit(t[mask], np.log(errors[mask]), 1)[0]
    return float(np.exp(slope))


def noise_error_series(record) -> tuple[np.ndarray, float]:
    """Per-step norm of the noise-estimate error and its fitted decay rate."""
    err = np.linalg.norm(record.e_hat - record.e_true, axis=1)
    return err, fit_decay_rate(err)


def fit_geometric_rate(err, start, stop):
    """Decay rate by plain log-linear fit over [start, stop)."""
    t = np.arange(start, stop)
    vals = np.asarray(err[start:stop], dtype=float)
    mask = vals > 0
    slope = np.polyfit(t[mask], np.log(vals[mask]), 1)[0]
    return float(np.exp(slope))


class SwitchingQuadraticCost(CostFunction):
    """Test scenario cost: quadratic in z with piecewise-constant targets.

    The target active at time t is the one whose switch time is the
    largest at or before t; the Hessian is shared across segments. The
    oracle's array forms find each time's segment with ``searchsorted``
    over the switch times.
    """

    def __init__(self, H, targets, switch_times):
        self.H = np.atleast_2d(np.asarray(H, dtype=float))
        self.targets = np.array(targets, dtype=float)
        self.switch_times = np.asarray(switch_times)
        assert self.switch_times[0] == 0
        w = np.linalg.eigvalsh(self.H)
        self.alpha_z = float(w[0])
        self.l_z = float(w[-1])

    def _segment(self, times):
        return np.searchsorted(self.switch_times, times, side="right") - 1

    def eval(self, t, z):
        d = z - self.targets[self._segment(t)]
        return 0.5 * float(d @ self.H @ d)

    def grad(self, t, z):
        return self.H @ (z - self.targets[self._segment(t)])

    def stacked_terms(self, times):
        # each target's g is formed once, so a time's row does not depend on
        # the other times; H is symmetric
        k = self._segment(times)
        return np.repeat(self.H[None], len(k), axis=0), -(self.targets @ self.H)[k]


def reference_cost(cost, t, z):
    """``(eval, grad)`` of a shipped cost, with its products written as ``@``."""
    if isinstance(cost, QuadraticScheduledCost):
        W, iw, sp = cost.params_at(t)
        u, y = z[:cost.m], z[cost.m:]
        d = y - sp
        return (0.5 * float(d @ W @ d) + 0.5 * iw * float(u @ u),
                np.concatenate([iw * u, W @ (y - sp)]))
    d = z - cost.target
    value, grad = 0.5 * float(d @ cost.H @ d), cost.H @ (z - cost.target)
    if isinstance(cost, QuadraticSoftplusCost):
        value += cost.c * float(np.logaddexp(0.0, cost.a @ z))
        grad = grad + cost.c * _logistic(cost.a @ z) * cost.a
    return value, grad


def reference_plant_step(model, x, u, e, q):
    """``plant.step`` with its products written as ``@``."""
    y = model.C @ x + model.D @ u
    return model.A @ x + model.B @ u + q, y, y + e


def reference_solves(state, pre, proj, gamma, t, y_meas, prev_cost):
    """The reference step up to its commit; ``state`` is only read.

    Returns ``(e_hat, y_den, alpha, alpha_residual, z_s, g, beta,
    beta_residual)``; ``e_hat`` and ``y_den`` are None at the first step.
    """
    n, m, p = pre.n, pre.m, pre.p
    e_hat = y_den = None
    y_window = state.y_den_hist.ravel()
    if y_meas is not None:
        e_hat = y_meas - pre.Y_next @ state.coeff_prev
        y_den = y_meas - e_hat
        y_window = np.concatenate([state.y_den_hist[1:].ravel(), y_den])
    rhs = np.concatenate([state.u_hist.ravel(), state.u_pred.ravel()[m:],
                          np.tile(state.z_s_prev[:m], n + 1), y_window])
    alpha = pre.H_alpha_pinv @ rhs
    r = pre.left_null_alpha @ rhs
    alpha_res = math.sqrt(r @ r)

    z_hat = np.concatenate([state.z_s_prev[:m], pre.Y_ahead @ alpha])
    grad = np.zeros_like(z_hat) if prev_cost is None \
        else reference_cost(prev_cost, t - 1, z_hat)[1]
    z_s = proj.P @ (z_hat - gamma * grad)

    a, b, c = n * m, (2 * n + 1) * m, (2 * n + 1) * m + n * p
    g = np.zeros(c + n * p)
    g[a:b] = np.tile(z_s[:m], n + 1) - pre.U_tail @ alpha
    g[c:] = np.tile(z_s[m:], n) - pre.Y_tail @ alpha
    beta = pre.Q_tilde @ g
    r = pre.left_null_beta @ g
    return e_hat, y_den, alpha, alpha_res, z_s, g, beta, math.sqrt(r @ r)


def reference_commit(state, pre, y_den, coeff, z_s):
    """The reference step's commit: shift ``state`` in place, return the input."""
    u_plan = (pre.U_plan @ coeff).reshape(pre.mu + 1, pre.m)
    if y_den is not None:
        state.y_den_hist = np.vstack([state.y_den_hist[1:], y_den])
    state.u_hist = np.vstack([state.u_hist[1:], u_plan[:1]])
    state.u_pred, state.z_s_prev, state.coeff_prev = u_plan, z_s, coeff
    return u_plan[0].copy()


def reference_step(state, pre, proj, gamma, t, y_meas, prev_cost):
    """One ``Controller.step`` in the five stages' algebra, products as ``@``.

    The same operands in the same order as the package's stages: the noise
    estimate, the coefficient solve, the prediction and gradient step, the
    steering solve and the commit. No feasibility check is made. Updates
    ``state`` (a ``ControllerState``) in place and returns
    ``(u, e_hat, z_s, g_norm, alpha_residual, beta_residual)``; ``e_hat``
    is None at the first step.
    """
    e_hat, y_den, alpha, alpha_res, z_s, g, beta, beta_res = reference_solves(
        state, pre, proj, gamma, t, y_meas, prev_cost)
    u = reference_commit(state, pre, y_den, alpha + beta, z_s)
    return u, e_hat, z_s, math.sqrt(g @ g), alpha_res, beta_res


def step_identities(pre, Y, alpha, coeff_prev, coeff_new, z_s):
    """Largest violation of the four cross-step identities of the step's algebra.

    Consecutive coefficient vectors agree on the shifted initialization
    window, on the shifted input plan and on the overlapping output
    predictions, and the committed coefficients hold the terminal window
    at the new equilibrium. ``Y`` is the record's output Hankel matrix of
    depth 2n+mu+1, which ``pre`` keeps only in row blocks.
    """
    U, n, mu, m, p = pre.U, pre.n, pre.mu, pre.m, pre.p

    def shifted(H, q, a, b):
        # blocks a..b of alpha against blocks a+1..b+1 of the last coefficients
        return np.abs(block_rows(H, q, a, b) @ alpha
                      - block_rows(H, q, a + 1, b + 1) @ coeff_prev).max()

    terminal = np.abs(block_rows(Y, p, n + mu + 1, 2 * n + mu + 1) @ coeff_new
                      - np.tile(z_s[m:], n + 1)).max()
    return float(max(shifted(U, m, 1, n), shifted(Y, p, 1, n),
                     shifted(U, m, n + 1, 2 * n + mu), shifted(Y, p, n + 1, 2 * n + mu),
                     terminal))


def identity_bound(pre):
    """Round-off bound on ``step_identities``: 1000 eps cond_r.

    The identities hold exactly in exact arithmetic. In floating point each
    is a solve residual, which a backward-stable solve keeps within a few
    eps cond_r of the right-hand side's size; cond_r = sigma_1/sigma_r is
    taken of H_alpha or H_beta, whichever is the larger.
    """
    return 1000 * np.finfo(float).eps * max(map(_cond_r, coefficient_matrices(pre)))


def _cond_r(M):
    s = np.linalg.svd(M, compute_uv=False)
    return s[0] / s[rank_by_svd(M) - 1]


CheckedRun = namedtuple("CheckedRun", "violation membership bound")


def checked_run(config):
    """The closed loop of ``config`` with the per-step identities checked.

    Drives ``Controller.step`` and the reference algebra side by side from
    the controller's own initialization, on one plant, and requires the
    two to commit the same coefficients bit for bit at every step. Returns
    the largest ``step_identities`` violation, taken on the reference's
    alpha, beta and coefficients; the largest ``membership_residual`` of
    the window each of the controller's steps solved with; and
    ``identity_bound`` of the record.
    """
    model, x, cost, cc, draw, _ = config.build()
    data = collect_offline_data(
        model, config.offline.N,
        input_box=(config.offline.input_low, config.offline.input_high),
        seed=config.offline.seed)
    ctrl = Controller(cc, data)
    first = np.empty((cc.n, model.p))
    for k in range(cc.n):
        e, q = draw(k - cc.n)
        x, _, first[k] = step(model, x, np.zeros(model.m), e, q)
    ctrl.start(first)
    ref = copy.deepcopy(ctrl.state)
    Y = build_hankel(data.outputs, 2 * cc.n + cc.mu + 1)
    violation = membership = 0.0
    y_meas = revealed = None
    for t in range(config.horizon + 1):
        u_window = ctrl.state.u_hist.copy()
        u = ctrl.step(y_meas=y_meas, prev_cost=revealed)
        # the step solved with the inputs before it and the outputs it committed
        membership = max(membership, membership_residual(
            data, Trajectory(u_window, ctrl.state.y_den_hist)))
        coeff_prev = ref.coeff_prev
        _, y_den, alpha, _, z_s, _, beta, _ = reference_solves(
            ref, ctrl.pre, ctrl.projector, cc.gamma, t, y_meas, revealed)
        if coeff_prev is not None:
            violation = max(violation, step_identities(
                ctrl.pre, Y, alpha, coeff_prev, alpha + beta, z_s))
        reference_commit(ref, ctrl.pre, y_den, alpha + beta, z_s)
        assert np.array_equal(ref.coeff_prev, ctrl.state.coeff_prev), \
            f"step {t} left the reference algebra"
        e, q = draw(t)
        x, _, y_meas = step(model, x, u, e, q)
        revealed = cost
    return CheckedRun(violation, membership, identity_bound(ctrl.pre))
