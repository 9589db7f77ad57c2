"""One numerical-rank rule and the one function that applies it.

Every rank decision on data (persistency checks, pseudoinverses,
null-space bases) uses the same backward-stable cutoff so that derived
quantities stay mutually consistent: a singular value counts toward the
rank iff it exceeds ``max(rows, cols) * RANK_RTOL * sigma_max``. ``factor``
is the only place that turns an SVD into a rank, a pseudoinverse, a null
basis and a row basis, so a caller that needs two of them factors its
matrix once;
``numerical_rank`` applies the same cutoff to the singular values alone.
The rank tests of ``plant.PlantModel`` check the ground-truth simulator,
which the controller never sees, and use numpy's ``matrix_rank``.
"""

import numpy as np

RANK_RTOL = 1e-12


def _rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Count of singular values above the cutoff, formed as ``np.linalg.pinv`` does."""
    return int(np.count_nonzero(s > max(shape) * RANK_RTOL * s.max(initial=0.0)))


def numerical_rank(M: np.ndarray) -> int:
    """Rank of a dense matrix by SVD with the shared cutoff."""
    M = np.atleast_2d(M)
    return _rank(np.linalg.svd(M, compute_uv=False), M.shape)


def factor(M: np.ndarray, full: bool = False) -> tuple:
    """``(rank, pinv, null_basis, row_basis)`` of M from one SVD.

    The rank uses the shared cutoff. The pseudoinverse repeats
    ``np.linalg.pinv``'s arithmetic: from the default economy SVD it is
    bit-identical to ``np.linalg.pinv(M, rcond=max(M.shape) *
    RANK_RTOL)``. Both bases have orthonormal
    columns. The row basis ``V_r`` (the first ``rank`` right singular
    vectors) spans the row space of M from the economy SVD too, so a
    caller that needs the kernel only through its projector
    ``I - V_r V_r'`` never needs ``full=True``. The null basis spans the
    whole kernel only for a tall M or with ``full=True``, because the
    economy SVD of a wide M omits the last right singular vectors.
    """
    M = np.atleast_2d(M)
    U, s, Vt = np.linalg.svd(M, full_matrices=full)
    rank = _rank(s, M.shape)
    s_inv = np.zeros_like(s)
    s_inv[:rank] = 1.0 / s[:rank]
    M_pinv = Vt[:s.size].T @ (s_inv[:, None] * U[:, :s.size].T)
    return rank, M_pinv, Vt[rank:].T.copy(), Vt[:rank].T


def pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared rank cutoff.

    The default numpy cutoff is too tight for products involving
    projectors, where discarded directions leave singular values a few
    orders above machine epsilon; inverting those makes results explode.
    """
    return factor(M)[1]


def lstsq(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution with the shared cutoff."""
    return factor(M)[1] @ b


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

    _, E_pinv, Z, _ = factor(E, full=True)
    w0 = E_pinv @ b
    res = np.linalg.norm(E @ w0 - b)
    if res > 1e-8 * (1.0 + np.linalg.norm(b)):
        raise FeasibilityError(
            f"equality constraint inconsistent (residual {res:.3e})"
        )
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
