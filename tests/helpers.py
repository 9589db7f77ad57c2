"""Independent oracles used across the test suite.

Everything here is implemented by a different route than the package code
it checks: index loops instead of vectorized stacking, KKT systems instead
of pseudoinverse formulas, finite differences instead of analytic
gradients, and model-based steady-state maps instead of data-driven ones.
"""

import numpy as np

from ddcontrol.costs import CostFunction


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


def fit_geometric_rate(err, start, stop):
    """Decay rate by plain log-linear fit over [start, stop)."""
    t = np.arange(start, stop)
    vals = np.asarray(err[start:stop], dtype=float)
    mask = vals > 0
    slope = np.polyfit(t[mask], np.log(vals[mask]), 1)[0]
    return float(np.exp(slope))


class SwitchingQuadraticCost(CostFunction):
    """Test scenario cost: quadratic in z with piecewise-constant targets.

    ``switches`` maps step indices to target points; the target active at
    time t is the one with the largest switch index <= t. The Hessian is
    shared across segments. Only the scalar forms are written here, so the
    oracle reads the runs and terms through ``CostFunction``'s loops.
    """

    def __init__(self, H, targets, switch_times):
        self.H = np.atleast_2d(np.asarray(H, dtype=float))
        self.targets = [np.asarray(x, dtype=float) for x in targets]
        self.switch_times = list(switch_times)
        assert self.switch_times[0] == 0
        w = np.linalg.eigvalsh(self.H)
        self.alpha_z = float(w[0])
        self.l_z = float(w[-1])

    def _target(self, t):
        idx = 0
        for k, start in enumerate(self.switch_times):
            if t >= start:
                idx = k
        return self.targets[idx]

    def eval(self, t, z):
        d = z - self._target(t)
        return 0.5 * float(d @ self.H @ d)

    def grad(self, t, z):
        return self.H @ (z - self._target(t))

    def quadratic_terms(self, t):
        target = self._target(t)
        return self.H.copy(), -self.H @ target, 0.5 * float(target @ self.H @ target)

    def params_key(self, t):
        idx = 0
        for k, start in enumerate(self.switch_times):
            if t >= start:
                idx = k
        return idx
