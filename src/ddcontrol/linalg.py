"""One numerical-rank rule and the functions that apply it.

Every rank decision on data (persistency checks, pseudoinverses,
null-space bases, the regularized start's ridge step) uses the same
backward-stable cutoff, ``_rank``, so that derived quantities stay
mutually consistent: a singular value counts toward the rank iff it
exceeds ``max(rows, cols) * rtol * sigma_max``, with ``rtol = RANK_RTOL``
for data. A matrix built from data by round-off projectors passes a
larger ``rtol`` that matches its forward error (``steady_state``).
``factor`` applies the cutoff to turn one SVD into a rank, a
pseudoinverse, a null basis, a row basis and a left null basis, so a
caller that needs two of them factors its matrix once; the ridge step of
``constrained_ridge_lstsq`` on the kernel of its constraint and
``numerical_rank`` apply it to their singular values. The rank tests of
``plant.PlantModel`` check the ground-truth simulator, which the
controller never sees, and use numpy's ``matrix_rank``.
"""

import numpy as np

RANK_RTOL = 1e-12


def _rank(s: np.ndarray, shape: tuple[int, int], rtol: float = RANK_RTOL) -> int:
    """Count of singular values above the cutoff, formed as ``np.linalg.pinv`` does."""
    return int(np.count_nonzero(s > max(shape) * rtol * s.max(initial=0.0)))


def numerical_rank(M: np.ndarray) -> int:
    """Rank of a dense matrix by SVD with the shared cutoff."""
    M = np.atleast_2d(M)
    return _rank(np.linalg.svd(M, compute_uv=False), M.shape)


def factor(M: np.ndarray, rtol: float = RANK_RTOL, complete: bool = False) -> tuple:
    """``(rank, pinv, null_basis, row_basis, s, left_null)`` of M from one SVD.

    The rank uses the shared cutoff at relative tolerance ``rtol``. The
    pseudoinverse repeats ``np.linalg.pinv``'s arithmetic and is
    bit-identical to ``np.linalg.pinv(M, rcond=max(M.shape) * rtol)``. Both
    bases have orthonormal columns. The row basis ``V_r`` (the first
    ``rank`` right singular vectors) spans the row space of M, so a caller
    that needs the kernel only through its projector ``I - V_r V_r'``
    needs no more. The null basis spans the whole kernel only for a tall M,
    because the economy SVD of a wide M omits the last right singular
    vectors. ``s`` holds the singular values, largest first. ``left_null``
    holds the left singular vectors past the rank as orthonormal rows, a
    C-contiguous array; they span the left null space of M, the orthogonal
    complement of its range, when M is wide or square. ``complete`` asks
    for that span on a tall M too: the SVD is then the full one, whose
    pseudoinverse may round differently from numpy's.
    """
    M = np.atleast_2d(M)
    U, s, Vt = np.linalg.svd(M, full_matrices=complete and M.shape[0] > M.shape[1])
    rank = _rank(s, M.shape, rtol)
    left_null = U[:, rank:].T.copy()
    U = U[:, :s.size]
    s_inv = np.zeros_like(s)
    s_inv[:rank] = 1.0 / s[:rank]
    M_pinv = Vt.T @ (s_inv[:, None] * U.T)
    return rank, M_pinv, Vt[rank:].T.copy(), Vt[:rank].T, s, left_null


def pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared rank cutoff.

    The default numpy cutoff is too tight for products involving
    projectors, where discarded directions leave singular values a few
    orders above machine epsilon; inverting those makes results explode.
    """
    return factor(M)[1]


def constrained_ridge_lstsq(M: np.ndarray, c: np.ndarray, E: np.ndarray,
                            lam: float = 0.0) -> np.ndarray:
    """Solve ``min_w |M w - c|^2 + lam * |w|^2  s.t.  E w = 0``.

    E must have a nontrivial kernel. The null-space method (Golub & Van
    Loan, "Matrix Computations", 4th ed., section 6.2) with the kernel of
    E taken through its projector ``I - V_r V_r'``: w is the ridge solution
    of ``min_w |A w - c|^2 + lam * |w|^2`` with ``A = M (I - V_r V_r')``.
    That w lies in row(A), inside null(E), so no kernel basis is formed,
    and one economy SVD of A gives ``w = V diag(s / (s^2 + lam)) U' c``
    over the singular values above the shared cutoff.
    """
    V_r = factor(E)[3]
    U, s, Vt = np.linalg.svd(M - (M @ V_r) @ V_r.T, full_matrices=False)
    k = _rank(s, M.shape)
    s = s[:k]
    return Vt[:k].T @ (s / (s * s + lam) * (U[:, :k].T @ c))
