"""Shared numerical-rank conventions and small linear-algebra helpers.

Every rank decision on data (persistency checks, pseudoinverses,
null-space bases) uses the same backward-stable cutoff so that derived
quantities stay mutually consistent: a singular value counts toward the
rank iff it exceeds ``max(rows, cols) * sigma_max * RANK_RTOL``. The rank
tests of ``plant.PlantModel`` check the ground-truth simulator, which the
controller never sees, and use numpy's ``matrix_rank``.
"""

import numpy as np

RANK_RTOL = 1e-12


def rank_cutoff(shape: tuple[int, int], smax: float) -> float:
    return max(shape) * smax * RANK_RTOL


def numerical_rank(M: np.ndarray) -> int:
    """Rank of a dense matrix by SVD with the shared cutoff."""
    M = np.atleast_2d(M)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > rank_cutoff(M.shape, s[0])))


def pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared rank cutoff.

    The default numpy cutoff is too tight for products involving
    projectors, where discarded directions leave singular values a few
    orders above machine epsilon; inverting those makes results explode.
    """
    M = np.atleast_2d(M)
    return np.linalg.pinv(M, rcond=max(M.shape) * RANK_RTOL)


def lstsq(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution with the shared cutoff."""
    return np.linalg.lstsq(M, b, rcond=max(M.shape) * RANK_RTOL)[0]


def nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space, columns of the returned matrix."""
    M = np.atleast_2d(M)
    _, s, Vt = np.linalg.svd(M)
    if s.size == 0:
        return np.eye(M.shape[1])
    rank = int(np.count_nonzero(s > rank_cutoff(M.shape, s[0])))
    return Vt[rank:].T.copy()


def constrained_ridge_lstsq(
    M: np.ndarray,
    c: np.ndarray,
    E: np.ndarray,
    b: np.ndarray,
    lam: float = 0.0,
) -> np.ndarray:
    """Solve ``min_w |M w - c|^2 + lam * |w|^2  s.t.  E w = b``.

    Uses the null-space method: a minimum-norm particular solution of the
    constraint plus a ridge least-squares solve in the constraint's null
    space. Raises FeasibilityError if the constraint itself is inconsistent.
    """
    from .errors import FeasibilityError

    w0 = lstsq(E, b)
    res = np.linalg.norm(E @ w0 - b)
    if res > 1e-8 * (1.0 + np.linalg.norm(b)):
        raise FeasibilityError(
            f"equality constraint inconsistent (residual {res:.3e})"
        )
    Z = nullspace(E)
    if Z.shape[1] == 0:
        return w0
    # w0 is orthogonal to null(E), so |w|^2 = |w0|^2 + |v|^2 exactly.
    A = M @ Z
    rhs = c - M @ w0
    if lam > 0.0:
        A = np.vstack([A, np.sqrt(lam) * np.eye(Z.shape[1])])
        rhs = np.concatenate([rhs, np.zeros(Z.shape[1])])
    v = lstsq(A, rhs)
    return w0 + Z @ v
