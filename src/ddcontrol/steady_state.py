"""Data-driven characterization of a system's steady-state set.

An input-output pair is an equilibrium of a linear system exactly when
holding it for n+1 consecutive steps forms a valid trajectory. Writing
that condition with the data's depth-(n+1) Hankel matrix yields a single
matrix S whose null space is the steady-state set: no model is involved,
only recorded data. The orthogonal projector onto null(S) is what the
controller's gradient step projects through, and minimizing a cost over
null(S) gives the reference point regret is measured against.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .behavioral import Trajectory, build_hankel, persistency_check
from .costs import _logistic
from .errors import NonConvergenceError, PersistencyError


@dataclass(frozen=True)
class SteadyStateProjector:
    """Steady-state set of a system, derived from data alone.

    Attributes:
        S: matrix of shape ((m+p)(n+1), m+p); z is an equilibrium iff S z = 0.
        P: orthogonal projector of shape (m+p, m+p) onto null(S).
        basis: orthonormal columns spanning null(S), shape (m+p, d).
    """

    S: np.ndarray
    P: np.ndarray
    basis: np.ndarray
    m: int
    p: int

    @property
    def dim(self) -> int:
        """Dimension of the steady-state set (m for generic stable systems)."""
        return self.basis.shape[1]


def build_projector(data: Trajectory, n: int) -> SteadyStateProjector:
    """Build the steady-state matrix S, projector P, and null-space basis.

    Requires the data input to be persistently exciting of order 2n+1 and
    the data outputs to be noise free; under those conditions null(S) is
    exactly the set of equilibrium input-output pairs of the data-generating
    system. Such data keep the depth-(n+1) data Hankel matrix at rank
    m(n+1)+n or below; a record above that raises ``PersistencyError``.

    Args:
        data: offline record with noise-free outputs.
        n: upper bound on the system order.
    """
    m, p = data.m, data.p
    if n < 1:
        raise ValueError(f"order bound must be >= 1, got {n}")
    if data.N - n < 1:
        raise ValueError(
            f"degenerate data: depth-{n + 1} Hankel matrix has no columns"
        )
    if not persistency_check(data.inputs, 2 * n + 1):
        raise PersistencyError(
            f"data input is not persistently exciting of order 2n+1 = {2 * n + 1}"
        )
    H = np.vstack([build_hankel(data.inputs, n + 1), build_hankel(data.outputs, n + 1)])
    rank, H_pinv, _, _, sigma, _ = linalg.factor(H)
    bound = m * (n + 1) + n
    if rank > bound:
        raise PersistencyError(
            f"data Hankel matrix of depth {n + 1} has rank {rank}, above the "
            f"bound m(n+1)+n = {bound} of noise-free data: the outputs are "
            f"noisy, or n={n} is below the system order")
    ones = np.ones((n + 1, 1))
    stack_m = np.kron(ones, np.eye(m))
    stack_p = np.kron(ones, np.eye(p))
    repeat = np.block([
        [stack_m, np.zeros(((n + 1) * m, p))],
        [np.zeros(((n + 1) * p, m)), stack_p],
    ])
    S = (H @ H_pinv - np.eye((m + p) * (n + 1))) @ repeat
    # S is built from the projector H H^+, whose round-off error is about
    # eps cond_r(H) (Wedin), so its rank is read at that scale; one
    # factorization gives S^+ and the basis, so both agree on the rank;
    # S is tall, so its economy SVD carries the complete null basis
    rtol = max(linalg.RANK_RTOL, np.finfo(float).eps * sigma[0] / sigma[rank - 1])
    _, S_pinv, basis, _, _, _ = linalg.factor(S, rtol)
    P = np.eye(m + p) - S_pinv @ S
    return SteadyStateProjector(S=S, P=P, basis=basis, m=m, p=p)


def project(proj: SteadyStateProjector, z: np.ndarray) -> np.ndarray:
    """Euclidean projection of a point onto the steady-state set."""
    z = np.asarray(z, dtype=float)
    if z.shape != (proj.m + proj.p,):
        raise ValueError(f"expected a point in R^{proj.m + proj.p}, got shape {z.shape}")
    return proj.P @ z


def optimal_steady_state(proj: SteadyStateProjector, cost, t=0):
    """Minimizers of a strongly convex cost over the steady-state set.

    ``t`` is one time index, which gives the minimizer at that time with
    shape (m+p,), or a 1-D sequence of them, which gives one minimizer row
    per time; one time is the length-one case of the same computation. In
    the null-space basis B, a cost's ``stacked_terms`` (H, g) give the
    normal equations B'HB w = -B'g, formed by stacked products and solved
    in one batched call; B'HB >= alpha_z I, so every system is nonsingular.
    Terms (H, g, a, c) add B'a as a second column, which leaves one scalar
    equation per time; one that overflows raises ``NonConvergenceError``,
    and a cost that gives no terms ``ValueError``.
    """
    times = np.atleast_1d(t)
    terms = cost.stacked_terms(times)
    if terms is None:
        raise ValueError(f"{type(cost).__name__} gives no stacked_terms, "
                         "the form the oracle solves")
    H, g, *softplus = terms
    B = proj.basis
    # every product is one per time, so a time's row does not depend
    # on how many others share the call
    rhs = -(B.T @ g[..., None])
    if softplus:
        a, c = softplus
        rhs = np.concatenate([rhs, B.T @ a[..., None]], axis=-1)
    w = np.linalg.solve(B.T @ H @ B, rhs)
    if softplus:
        # w = [w0 v]. Stationarity in s = a'Bw is phi(s) = s + ck sigma(s) - s0
        # = 0, with s0 = a'Bw0, k = a'Bv >= 0 and phi' >= 1: its root lies in
        # [s0 - ck, s0], bisected to the last bit (at most ~2100 halvings)
        with np.errstate(over="ignore", invalid="ignore"):
            s0, k = (rhs[..., 1:] * w).sum(axis=-2).T
            lo, hi = s0 - c * k, s0
        if not np.isfinite(lo).all():      # lo is finite only if s0 and ck are
            raise NonConvergenceError(f"the softplus bracket [s0 - ck, s0] = [{lo}, {hi}] "
                                      "is not finite: the cost's parameters overflow it")
        mid = 0.5 * lo + 0.5 * hi
        while not ((mid == lo) | (mid == hi)).all():
            below = mid + c * k * _logistic(mid) < s0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            mid = 0.5 * lo + 0.5 * hi
        w = w[..., :1] - (c * _logistic(mid))[:, None, None] * w[..., 1:]
    zeta = (B @ w)[..., 0]
    return zeta if np.ndim(t) else zeta[0]
