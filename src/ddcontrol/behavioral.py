"""Trajectory containers and Hankel-matrix machinery.

A length-N input-output record of a linear system, arranged into Hankel
matrices, spans every trajectory of that system once the input is
persistently exciting of sufficient order. This module provides the
record container (Trajectory), Hankel matrices as plain arrays, the
excitation check, and a least-squares membership test certifying whether
a candidate window could have been produced by the same system.

Indexing conventions: sequence time indices are 0-based everywhere;
block rows of a Hankel matrix are 1-based (``block_rows(H, q, a, b)``
selects blocks a..b inclusive), matching the standard superscript
notation H^{a:b}. The two conventions meet only inside ``block_rows``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PersistencyError
from .linalg import numerical_rank, pinv


@dataclass(frozen=True)
class Trajectory:
    """A finite input-output record, one row per time step.

    Attributes:
        inputs: array of shape (N, m).
        outputs: array of shape (N, p).
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.outputs, dtype=float)
        if u.ndim == 1:
            u = u[:, None]       # scalar channel
        if y.ndim == 1:
            y = y[:, None]
        if u.ndim != 2 or y.ndim != 2:
            raise ValueError("inputs and outputs must be 2-D (N, channels)")
        if len(u) != len(y):
            raise ValueError(
                f"inputs and outputs must have equal length, got {len(u)} != {len(y)}"
            )
        if len(u) < 1:
            raise ValueError("a trajectory needs at least one step")
        object.__setattr__(self, "inputs", u)
        object.__setattr__(self, "outputs", y)

    @property
    def N(self) -> int:
        return self.inputs.shape[0]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    @property
    def p(self) -> int:
        return self.outputs.shape[1]


def build_hankel(z: np.ndarray, L: int) -> np.ndarray:
    """Hankel matrix of depth L from a sequence of N vectors.

    Args:
        z: array of shape (N,) or (N, q).
        L: depth, 1 <= L <= N.

    Returns:
        Array of shape (q*L, N-L+1) whose column j stacks the values at
        times j .. j+L-1; block row i holds the q channels at offset i-1.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    N, q = z.shape
    if L < 1 or L > N:
        raise ValueError(f"depth out of range: L={L} with N={N}")
    cols = N - L + 1
    H = np.empty((q * L, cols))
    for i in range(L):
        H[i * q:(i + 1) * q, :] = z[i:i + cols, :].T
    return H


def block_rows(H: np.ndarray, q: int, a: int, b: int) -> np.ndarray:
    """Block rows a..b (1-based, inclusive) of a Hankel matrix of block size q.

    Returns a view of the rows, not a copy.
    """
    depth = H.shape[0] // q
    if not (1 <= a <= b <= depth):
        raise IndexError(f"block rows [{a}:{b}] out of range for depth {depth}")
    return H[(a - 1) * q:b * q, :]


def persistency_check(u: np.ndarray, L: int) -> bool:
    """Whether a signal is persistently exciting of order L.

    True iff the depth-L Hankel matrix of the signal has full row rank m*L.
    Degenerate cases (L < 1, fewer than L samples) are simply not exciting
    and return False rather than raising.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    N, m = u.shape
    if L < 1 or N < L:
        return False
    return numerical_rank(build_hankel(u, L)) == m * L


def membership_residual(data: Trajectory, candidate: Trajectory,
                        n: int | None = None) -> float:
    """Least-squares residual of expressing a candidate window in the data.

    Solves ``[H_L(u_d); H_L(y_d)] a = [u_bar; y_bar]`` for the stacked
    candidate and returns the Euclidean norm of the residual. A residual
    of numerically zero certifies that the candidate is a trajectory of
    the system that produced the data, provided the data input is
    persistently exciting of order L+n (checked when ``n`` is supplied).
    """
    if candidate.m != data.m or candidate.p != data.p:
        raise ValueError(
            f"channel mismatch: data is ({data.m}, {data.p}), "
            f"candidate is ({candidate.m}, {candidate.p})"
        )
    L = candidate.N
    if n is not None and not persistency_check(data.inputs, L + n):
        raise PersistencyError(
            f"data input is not persistently exciting of order L+n = {L + n}"
        )
    H = np.vstack([build_hankel(data.inputs, L), build_hankel(data.outputs, L)])
    rhs = np.concatenate([candidate.inputs.ravel(), candidate.outputs.ravel()])
    return float(np.linalg.norm(H @ (pinv(H) @ rhs) - rhs))


def build_hankel_set(data: Trajectory, n: int, mu: int) -> tuple:
    """The depth-(2n+mu+1) Hankel matrices ``(U, Y)`` of a data record.

    Args:
        data: offline record with noise-free outputs.
        n: upper bound on the system order.
        mu: prediction horizon (>= 1).
    """
    if n < 1 or mu < 1:
        raise ValueError(f"need n >= 1 and mu >= 1, got n={n}, mu={mu}")
    depth = 2 * n + mu + 1
    if data.N < depth:
        raise ValueError(
            f"data of length {data.N} too short for Hankel depth {depth}"
        )
    return build_hankel(data.inputs, depth), build_hankel(data.outputs, depth)
