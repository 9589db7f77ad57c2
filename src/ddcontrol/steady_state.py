"""Data-driven characterization of a system's steady-state set.

An input-output pair is an equilibrium of a linear system exactly when
holding it for n+1 consecutive steps forms a valid trajectory. Writing
that condition with the data's depth-(n+1) Hankel matrix yields a single
matrix S whose null space is the steady-state set: no model is involved,
only recorded data. The orthogonal projector onto null(S) is what the
controller's gradient step projects through, and minimizing a cost over
null(S) gives the reference point regret is measured against.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .behavioral import Trajectory, build_hankel, persistency_check
from .errors import NonConvergenceError, PersistencyError

#: stop threshold on the projected gradient norm for the iterative solver
_GRAD_TOL = 1e-10
_MAX_ITERS = 10 ** 6
#: iterations between the projected gradient solver's checks of its rate
_PROBE = 128


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
    shape (m+p,), or a 1-D sequence of them. The cost's ``run_starts``
    splits the times into runs of equal parameters, and each run shares one
    solve, so a sequence gives ``(starts, zeta)``: the position in ``t``
    where each run starts, and one minimizer row per run. One time is the
    length-one case of the same computation. A cost whose
    ``stacked_quadratic_terms`` gives terms ``(H, g)`` is reduced to the
    normal equations B'HB w = -B'g in the null-space basis B, all formed by
    stacked products and solved in one batched call; B'HB >= alpha_z I, so
    every system is nonsingular. Any other cost falls back to projected
    gradient iteration driven to a projected-gradient norm of 1e-10, once
    per run; that solver raises ``NonConvergenceError`` at the first non-finite
    projected gradient or update too small to move the iterate (l_z = inf),
    and when the rate measured over its last ``_PROBE`` iterations cannot
    reach the tolerance within its cap.
    """
    times = np.atleast_1d(t)
    starts = cost.run_starts(times)
    run_times = times[starts]
    terms = cost.stacked_quadratic_terms(run_times)
    B = proj.basis
    if terms is None:
        zeta = np.empty((len(starts), proj.m + proj.p))
        for r, ti in enumerate(map(int, run_times)):
            zeta[r] = _projected_gradient(proj, cost, ti)
    else:
        # every product is one per run, so a run's row does not depend
        # on how many others share the call
        H, g = terms
        w = np.linalg.solve(B.T @ H @ B, -(B.T @ g[..., None]))
        zeta = (B @ w)[..., 0]
    return (starts, zeta) if np.ndim(t) else zeta[0]


def _projected_gradient(proj: SteadyStateProjector, cost, t: int) -> np.ndarray:
    if cost.alpha_z <= 0:
        raise ValueError("iterative steady-state solve needs a strongly convex cost")
    step = 2.0 / (cost.alpha_z + cost.l_z)
    z = np.zeros(proj.m + proj.p)
    for k in range(_MAX_ITERS):
        grad = cost.grad(t, z)
        norm = np.linalg.norm(proj.P @ grad)
        if norm <= _GRAD_TOL:
            return z
        if not math.isfinite(norm):
            raise NonConvergenceError(
                f"projected gradient norm is {norm} at iteration {k}: the "
                "cost's parameters overflow its gradient")
        if np.array_equal(z_next := proj.P @ (z - step * grad), z):
            raise NonConvergenceError(f"step 2/(alpha_z + l_z) = {step:.3g} with l_z = "
                                      f"{cost.l_z:.3g} cannot move the iterate at iteration {k}")
        if k % _PROBE == 0:
            # the rate since the last check, held to the cap (a quadratic's only slows)
            if k and ((_MAX_ITERS - k) * math.log(norm / probed)
                      > _PROBE * math.log(_GRAD_TOL / norm)):
                raise NonConvergenceError(
                    f"l_z/alpha_z = {cost.l_z / cost.alpha_z:.3g}: the rate of iterations "
                    f"{k - _PROBE}-{k} cannot reach {_GRAD_TOL} within {_MAX_ITERS} iterations")
            probed = norm
        z = z_next
    raise NonConvergenceError(
        f"projected gradient did not reach tolerance {_GRAD_TOL} "
        f"within {_MAX_ITERS} iterations"
    )
