"""Per-step output-feedback controller built on recorded data.

Each step runs a fixed pipeline: estimate the latest measurement noise by
comparing the measurement against the controller's own one-step output
prediction; solve for trajectory coefficients that encode the current
initialization and the previously planned input sequence; read out the
mu-step-ahead output prediction; take one projected gradient step on the
most recently revealed cost to update the steady-state target; solve for
a steering correction that reaches the new target in mu steps and parks
there; and emit the first input of the updated plan. All pseudoinverses
are precomputed, so the online work per step is one gradient evaluation
plus a handful of matrix-vector products.
"""

import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import linalg
from .behavioral import Trajectory, block_rows, persistency_check
from .costs import CostFunction
from .errors import FeasibilityError, PersistencyError
from .steady_state import SteadyStateProjector

#: relative residual tolerance for the coefficient solves
FEAS_RTOL = 1e-7
#: bound on the steering map's own error (``check_steering_map``). A
#: backward-stable Q_tilde errs by about eps cond(H_beta): 3.3e-11 on the
#: shipped record and 1.8e-7 on a test record of cond 1e7, where the
#: projector-form map errs by 4e15
STEER_RTOL = 1e-6


@dataclass
class ControllerConfig:
    """Tuning knobs of the per-step controller.

    gamma: gradient step size (> 0).
    mu: prediction horizon; mu >= n always satisfies the reachability
        requirement since the controllability index never exceeds the
        system order.
    n: upper bound on the system order.
    q_mode: the seminorm the steering correction minimizes, one of
        ``Q_MODES``: |beta|^2, or that plus |U_f beta|^2 (its future inputs).
    lambda_init: regularizer of the optional least-squares initialization.
    init_mode: "zero" (rest initialization) or "regularized".
    """

    gamma: float
    mu: int
    n: int
    q_mode: str = "identity+future_inputs"
    lambda_init: float = 0.0
    init_mode: str = "zero"

    def __post_init__(self):
        for name in ("mu", "n"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.q_mode not in Q_MODES:
            raise ValueError(f"unknown q_mode {self.q_mode!r}; options: {Q_MODES}")
        if self.init_mode not in ("zero", "regularized"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if not (self.lambda_init >= 0 and math.isfinite(self.lambda_init)):
            raise ValueError(f"lambda_init must be nonnegative and finite, "
                             f"got {self.lambda_init}")


def step_size_limit(alpha_z: float, l_z: float) -> float:
    """The largest step size with the tracking guarantee, 2/(alpha_z + l_z)."""
    return 2.0 / (alpha_z + l_z)


def check_step_size(gamma: float, alpha_z: float, l_z: float) -> bool:
    """Warn when the step size exceeds ``step_size_limit``.

    A large step only voids the tracking guarantee, it does not break the
    per-step algebra, so this is a warning rather than an error.
    """
    limit = step_size_limit(alpha_z, l_z)
    if gamma > limit * (1 + 1e-12):
        warnings.warn(
            f"step size gamma={gamma:.4g} exceeds 2/(alpha_z+l_z)={limit:.4g}; "
            "tracking guarantees no longer apply",
            stacklevel=2,
        )
        return False
    return True


Q_MODES = ("identity", "identity+future_inputs")


@dataclass(frozen=True)
class Precomputed:
    """The factors of a data record, holding only what a run reads.

    ``m`` and ``p`` are the record's input and output widths, plain fields
    because the loop reads them. ``U`` is the record's depth-(2n+mu+1)
    input Hankel matrix, which the regularized start constrains. The
    coefficient systems stack row blocks of the data Hankel matrices:
    ``H_alpha`` = [U^{1:n}; U^{n+1:2n+mu+1}; Y^{1:n}] in the row order of
    ``alpha_rhs``, ``H_beta`` = [U^{1:n}; U_tail; Y^{1:n}; Y_tail] in that
    of ``solve_beta``'s g. Neither is kept; their factors are.
    ``H_alpha_pinv`` solves the prediction-coefficient system and
    ``Q_tilde`` maps a steering target mismatch g to the solution of
    ``H_beta beta = g`` of least ``q_mode`` seminorm, in closed form from
    one SVD of ``H_beta``. ``left_null_alpha`` and ``left_null_beta`` hold,
    as orthonormal rows, the left singular vectors of ``H_alpha`` and
    ``H_beta`` past their ranks: they span the complement of each range,
    so a right-hand side's solve residual is the norm of its product with
    them. Where a matrix has full row rank the basis is empty and its
    check tests finiteness only. ``precompute`` checks ``Q_tilde``'s own
    error once (``check_steering_map``). The named row blocks are views of
    the data Hankel matrices that the loop reads out every step.
    ``steady_index`` gathers a steady state (u_s, y_s) into the terminal
    window's layout: u_s n+1 times, then y_s n times.
    """

    U: np.ndarray
    n: int
    mu: int
    m: int
    p: int
    H_alpha_pinv: np.ndarray
    Q_tilde: np.ndarray
    left_null_alpha: np.ndarray
    left_null_beta: np.ndarray
    U_plan: np.ndarray      # U^{n+1:n+mu+1}: the planned input window
    U_tail: np.ndarray      # U^{n+mu+1:2n+mu+1}: terminal input window
    Y_past: np.ndarray      # Y^{1:n}
    Y_next: np.ndarray      # Y^{n+1}: one-step-ahead output prediction
    Y_ahead: np.ndarray     # Y^{n+mu+1}: mu-step-ahead output prediction
    Y_tail: np.ndarray      # Y^{n+mu+1:2n+mu}: terminal output window
    steady_index: np.ndarray


def precompute(data: Trajectory, n: int, mu: int, q_mode: str) -> Precomputed:
    """Factor an offline data record once; the loop then only multiplies.

    Checks the record's length and its input's excitation of order 3n+mu+1,
    builds the record's Hankel matrices, cuts each named row block once and
    stacks ``H_alpha`` and ``H_beta`` from them, then factors the two by
    one SVD each: ``H_alpha`` into its pseudoinverse, ``H_beta`` into
    ``Q_tilde`` in closed form (``notes/decisions.md``, "Q̃ in closed form"),
    and each into the basis of its range's complement. The stacked
    matrices and the output Hankel matrix are not returned; the row blocks
    the loop reads stay as views of them. Raises ``FeasibilityError``
    through ``check_steering_map`` when ``Q_tilde`` misses its targets.
    """
    # looked up at call time, so a timing wrapper on the module attribute sees it
    from .behavioral import build_hankel_set

    if q_mode not in Q_MODES:
        raise ValueError(f"unknown q_mode {q_mode!r}; options: {Q_MODES}")
    order = 3 * n + mu + 1
    min_N = (data.m + 1) * order - 1
    if data.N < min_N:
        raise ValueError(f"data too short: need N >= {min_N} for excitation "
                         f"order {order}, got {data.N}")
    if not persistency_check(data.inputs, order):
        raise PersistencyError(
            f"data input is not persistently exciting of order 3n+mu+1 = {order}"
        )
    U, Y = build_hankel_set(data, n, mu)
    m, p = data.m, data.p
    # each row block the factors or the loop read, cut once; U_f holds the
    # future inputs
    U_past, U_f = block_rows(U, m, 1, n), block_rows(U, m, n + 1, 2 * n + mu + 1)
    U_plan = block_rows(U, m, n + 1, n + mu + 1)
    U_tail = block_rows(U, m, n + mu + 1, 2 * n + mu + 1)
    Y_past, Y_next = block_rows(Y, p, 1, n), block_rows(Y, p, n + 1, n + 1)
    Y_ahead = block_rows(Y, p, n + mu + 1, n + mu + 1)
    Y_tail = block_rows(Y, p, n + mu + 1, 2 * n + mu)
    H_alpha = np.vstack([U_past, U_f, Y_past])
    H_beta = np.vstack([U_past, U_tail, Y_past, Y_tail])
    # "identity" mode takes H_beta^+ alone; future inputs also need the
    # kernel, but only through its projector I - V_r V_r'
    _, Q_tilde, _, V_r, _, left_null_beta = linalg.factor(H_beta, complete=True)
    if q_mode == "identity+future_inputs":
        # beta = H_beta^+ g + N z minimizing |beta|^2 + |U_f beta|^2, for a
        # kernel basis N, is H_beta^+ g - K (I + U_f K)^-1 U_f H_beta^+ g with
        # K = N N' U_f': Woodbury and push-through give one solve of U_f's rows
        K = U_f.T - V_r @ (V_r.T @ U_f.T)
        Q_tilde = Q_tilde - K @ np.linalg.solve(np.eye(U_f.shape[0]) + U_f @ K,
                                                U_f @ Q_tilde)
    _, H_alpha_pinv, _, _, _, left_null_alpha = linalg.factor(H_alpha, complete=True)
    check_steering_map(H_beta, Q_tilde, left_null_beta)
    return Precomputed(
        U=U, n=n, mu=mu, m=m, p=p, H_alpha_pinv=H_alpha_pinv, Q_tilde=Q_tilde,
        left_null_alpha=left_null_alpha, left_null_beta=left_null_beta,
        U_plan=U_plan, U_tail=U_tail, Y_past=Y_past, Y_next=Y_next,
        Y_ahead=Y_ahead, Y_tail=Y_tail,
        steady_index=np.concatenate([np.tile(np.arange(m), n + 1),
                                     m + np.tile(np.arange(p), n)]),
    )


def check_steering_map(H_beta: np.ndarray, Q_tilde: np.ndarray, L: np.ndarray) -> None:
    """Refuse a ``Q_tilde`` whose error on consistent targets exceeds ``STEER_RTOL``.

    ``H_beta Q_tilde`` should be the projector onto range(H_beta), which
    is ``I - L'L`` for ``L = left_null_beta``. The Frobenius norm of the
    difference bounds its spectral norm, so a map that passes gives every
    steering correction ``|H_beta beta - g| <= STEER_RTOL |g| + |L g|``,
    and the per-step check on ``|L g|`` completes the bound. Raises
    ``FeasibilityError``.
    """
    D = H_beta @ Q_tilde + L.T @ L - np.eye(H_beta.shape[0])
    err = float(np.linalg.norm(D))
    if not err <= STEER_RTOL:
        raise FeasibilityError(
            f"steering map misses its targets: |H_beta Q_tilde - (I - L'L)|_F "
            f"= {err:.3e} exceeds {STEER_RTOL:.0e}"
        )


#: offline factors ``(pre, projector)`` of the data records used last,
#: least recently used first (``memoized``)
_FACTORS: OrderedDict = OrderedDict()
#: entries an offline cache keeps; two let a sweep alternate two horizons
#: on one record (``notes/decisions.md``)
_CACHE_KEPT = 2
_CACHE_LOCK = threading.Lock()


def _freeze(obj) -> None:
    """Make every array reachable through tuples and dataclass fields read-only.

    A view keeps its own writeable flag, so each view and its bases are
    frozen one by one.
    """
    if isinstance(obj, np.ndarray):
        while isinstance(obj, np.ndarray):
            obj.flags.writeable = False
            obj = obj.base
    elif isinstance(obj, tuple):
        for item in obj:
            _freeze(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            _freeze(getattr(obj, f.name))


def memoized(cache: OrderedDict, key, build):
    """``cache[key]``, or ``build()`` made read-only and stored under ``key``.

    The one policy of the factor and record caches: the least recently
    used entry is evicted before a build, a build that raises caches
    nothing, and parallel threads take turns (``notes/decisions.md``).
    """
    with _CACHE_LOCK:
        if key in cache:
            cache.move_to_end(key)
            return cache[key]
        while len(cache) >= _CACHE_KEPT:
            cache.popitem(last=False)
        _freeze(value := build())
        cache[key] = value
        return value


def _offline_factors(config: ControllerConfig, data: Trajectory) -> tuple:
    """``(pre, projector)`` of a data record, factored once per record.

    The key is what ``precompute`` and ``build_projector`` read: the data
    bytes, their (N, m) and (N, p) split, ``n``, ``mu`` and ``q_mode``, so
    controllers on an equal record share the factors (``memoized``).
    """
    # looked up at call time for the reason given in ``precompute``
    from .steady_state import build_projector

    key = (data.inputs.shape, data.outputs.shape, data.inputs.tobytes(),
           data.outputs.tobytes(), config.n, config.mu, config.q_mode)
    return memoized(_FACTORS, key, lambda: (
        precompute(data, config.n, config.mu, config.q_mode),
        build_projector(data, config.n)))


@dataclass
class ControllerState:
    """Everything the controller remembers between steps.

    ``u_hist`` and ``y_den_hist`` hold the last n applied inputs and
    denoised outputs (measurement minus noise estimate); together they
    always form a valid trajectory of the plant, which is what keeps the
    coefficient solves feasible. ``u_pred`` is the currently planned input
    window of length mu+1, ``z_s_prev`` the latest steady-state estimate
    and ``coeff_prev`` the previous combined coefficients. ``advance``
    updates the state in place: the two histories shift by one row.
    """

    u_hist: np.ndarray
    y_den_hist: np.ndarray
    u_pred: np.ndarray
    z_s_prev: np.ndarray
    coeff_prev: np.ndarray | None


def initialize(config: ControllerConfig, pre: Precomputed,
               first_measurements: np.ndarray) -> ControllerState:
    """Controller state before the first step.

    Every start follows n steps of zero input, so both modes store a zero
    input history, a zero input plan and a zero steady-state estimate, and
    the first step solves for its coefficients like every later one. Only
    the stored outputs differ. "zero" mode assumes the plant was also at
    rest: they are zero, the all-zero trajectory valid for any linear
    system, and the noise estimates swallow the first n measurements.
    "regularized" mode stores ``Y_past @ alpha0`` for the coefficients of
    ``regularized_init_solution``. The noise estimates, y_meas minus the
    stored outputs, absorb the least-squares residual, so the stored
    history is exactly the trajectory alpha0 encodes; the feasibility
    induction of every later step depends on this.
    """
    n, mu, m, p = pre.n, pre.mu, pre.m, pre.p
    y_meas = np.atleast_2d(np.asarray(first_measurements, dtype=float))
    if y_meas.shape != (n, p):
        raise ValueError(f"need the first n={n} measurements, shape (n, p)")
    if config.init_mode == "zero":
        y_den_hist = np.zeros((n, p))
    else:
        alpha0 = regularized_init_solution(pre, y_meas, config.lambda_init)
        y_den_hist = (pre.Y_past @ alpha0).reshape(n, p)
    return ControllerState(u_hist=np.zeros((n, m)), y_den_hist=y_den_hist,
                           u_pred=np.zeros((mu + 1, m)), z_s_prev=np.zeros(m + p),
                           coeff_prev=None)


def regularized_init_solution(pre: Precomputed, y_meas: np.ndarray,
                              lam: float) -> np.ndarray:
    """Initial coefficients from a joint least-squares fit with the noise estimates.

    Minimizes the output-match residual plus ``lam`` times the squared norm
    of the stacked unknowns (coefficients, noise estimates), subject to
    every input row of the data being zero: the zero warm-up inputs, then
    the zero input plan and zero held steady-state input that every start
    begins from. Larger ``lam`` pulls the solution toward the minimum-norm
    feasible pair. Returns the coefficients ``alpha0``.
    """
    n, p = pre.n, pre.p
    rows, columns = pre.U.shape
    E = np.hstack([pre.U, np.zeros((rows, n * p))])
    M = np.hstack([pre.Y_past, np.eye(n * p)])
    w = linalg.constrained_ridge_lstsq(M, np.asarray(y_meas, dtype=float).ravel(),
                                       E, lam=lam)
    return w[:columns]


def estimate_noise(state: ControllerState, y_meas: np.ndarray,
                   pre: Precomputed) -> np.ndarray:
    """Noise estimate for the latest measurement: measured minus predicted.

    Subtracting this estimate from the measurement reproduces the
    controller's own one-step output prediction, which is what keeps the
    stored history a valid trajectory.
    """
    if state.coeff_prev is None:
        raise RuntimeError("call step() before estimating noise")
    y_meas = np.asarray(y_meas, dtype=float)
    return y_meas - pre.Y_next.dot(state.coeff_prev)


def alpha_rhs(state: ControllerState, pre: Precomputed,
              y_latest: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side of the prediction-coefficient system.

    With ``y_latest`` the output window is the stored one shifted by one
    step with ``y_latest`` appended: the window a step solves with before
    it commits the new output to the state.
    """
    n, m = pre.n, pre.m
    parts = [state.u_hist.ravel(),
             state.u_pred.ravel()[m:],       # shifted plan, first input dropped
             state.z_s_prev[pre.steady_index[:(n + 1) * m]]]
    if y_latest is None:
        parts.append(state.y_den_hist.ravel())
    else:
        parts += [state.y_den_hist[1:].ravel(), y_latest]
    return np.concatenate(parts)


def solve_alpha(state: ControllerState, pre: Precomputed,
                y_latest: np.ndarray | None = None) -> tuple:
    """Minimum-norm coefficients encoding initialization plus planned inputs.

    Any feasible coefficient vector yields the same predicted outputs, so
    the pseudoinverse solution is chosen for numerical stability. A
    residual above tolerance means the state no longer encodes a valid
    trajectory (corrupted state or violated excitation assumptions); the
    stored window is part of the right-hand side, so its distance from the
    record's windows is at most this residual.
    ``y_latest`` is the newest denoised output, not yet in the state (see
    ``alpha_rhs``). Returns ``(alpha, residual)``, where the residual
    ``|L rhs|``, for ``L = left_null_alpha``, is the distance of rhs from
    range(H_alpha).
    """
    rhs = alpha_rhs(state, pre, y_latest)
    alpha = pre.H_alpha_pinv.dot(rhs)
    r = pre.left_null_alpha.dot(rhs)
    # Euclidean norms, as ``np.linalg.norm`` computes them. The bound is
    # taken at every step, since an empty L reads 0 for any rhs: written as
    # "not within", the test fails a NaN residual or bound, which every
    # comparison rejects, and a bound that overflowed to inf passes nothing
    res, rhs_norm = math.sqrt(r.dot(r)), math.sqrt(rhs.dot(rhs))
    if not res <= FEAS_RTOL * (1.0 + rhs_norm) < math.inf:
        raise _infeasible("prediction coefficients", res, "right-hand side", rhs_norm,
                          "controller state is corrupted or the data assumptions fail")
    return alpha, res


def _infeasible(what: str, res: float, operand: str, norm: float,
                cause: str) -> FeasibilityError:
    """The error of a failed feasibility check, built on the error path only.

    An operand whose norm overflowed to inf says so, since a diverging loop
    fails this way, and not ``cause``.
    """
    if math.isinf(norm):
        cause = (f"the {operand} overflowed: the loop diverged, for example "
                 "under a step size gamma above 2/(alpha_z + l_z), or a "
                 "measurement or cost parameter is too large")
    return FeasibilityError(f"{what} infeasible (residual {res:.3e}) for a "
                            f"{operand} of norm {norm:.3e}; {cause}")


def predict_and_descend(state: ControllerState, alpha: np.ndarray,
                        pre: Precomputed, prev_cost: CostFunction | None,
                        t_prev: int, proj: SteadyStateProjector,
                        gamma: float):
    """Mu-step prediction followed by one projected gradient step.

    Returns ``(z_hat, z_s)``: the predicted input-output pair and the new
    steady-state estimate. With no revealed cost yet (first step), the
    gradient term is zero and the step reduces to projecting the
    prediction onto the steady-state set.
    """
    m = proj.m
    z_hat = np.concatenate([state.z_s_prev[:m], pre.Y_ahead.dot(alpha)])
    if prev_cost is None:
        grad = np.zeros_like(z_hat)
    else:
        grad = prev_cost.grad(t_prev, z_hat)
    z_s = proj.P.dot(z_hat - gamma * grad)
    return z_hat, z_s


def solve_beta(alpha: np.ndarray, z_s: np.ndarray, pre: Precomputed) -> tuple:
    """Minimum-seminorm steering correction reaching the new target.

    The correction keeps the initialization untouched (zero blocks), moves
    the terminal input window to the new steady-state input held for n+1
    steps, and pins the last n predicted outputs to the new steady-state
    output. Returns ``(beta, g, g_norm, residual)`` where g is the
    assembled target mismatch, ``g_norm`` its norm, and the residual
    ``|L g|``, for ``L = left_null_beta``, its distance from
    range(H_beta).
    """
    n, m, p = pre.n, pre.m, pre.p
    a, b, c = n * m, (2 * n + 1) * m, (2 * n + 1) * m + n * p
    g = np.zeros(c + n * p)
    target = z_s[pre.steady_index]
    np.subtract(target[:b - a], pre.U_tail.dot(alpha), out=g[a:b])
    np.subtract(target[b - a:], pre.Y_tail.dot(alpha), out=g[c:])
    beta = pre.Q_tilde.dot(g)
    r = pre.left_null_beta.dot(g)
    # the norms and the test as in ``solve_alpha``
    res, g_norm = math.sqrt(r.dot(r)), math.sqrt(g.dot(g))
    if not res <= FEAS_RTOL * (1.0 + g_norm) < math.inf:
        raise _infeasible("steering correction", res, "target mismatch", g_norm,
                          "the prediction horizon may be shorter than the "
                          "controllability index, or the data is corrupted")
    return beta, g, g_norm, res


def advance(state: ControllerState, alpha: np.ndarray, beta: np.ndarray,
            z_s: np.ndarray, pre: Precomputed,
            y_latest: np.ndarray | None = None) -> np.ndarray:
    """Commit the step in place: emit the input and shift the controller memory.

    ``y_latest`` is the denoised output the step consumed (None at the
    first step). Returns the input to apply.
    """
    m, mu = pre.m, pre.mu
    coeff = alpha + beta
    u_plan = pre.U_plan.dot(coeff).reshape(mu + 1, m)
    if y_latest is not None:
        state.y_den_hist[:-1] = state.y_den_hist[1:]
        state.y_den_hist[-1] = y_latest
    state.u_hist[:-1] = state.u_hist[1:]
    state.u_hist[-1] = u_plan[0]
    state.u_pred = u_plan
    state.z_s_prev = z_s.copy()
    state.coeff_prev = coeff
    return u_plan[0].copy()


@dataclass
class StepDiagnostics:
    """What the latest step decided, and why; kept as ``Controller.last``."""

    z_s: np.ndarray
    e_hat: np.ndarray | None      # estimate consumed this step (None at t=0)
    g_norm: float
    alpha_residual: float
    beta_residual: float


class Controller:
    """Stateful wrapper running the per-step pipeline.

    One instance is a single-threaded state machine; create independent
    instances for parallel runs. Construction factors the offline data
    (the expensive part), and refuses a record it cannot trust with
    ``PersistencyError``. A construction on one of the two most recently
    used data records, with the same ``n``, ``mu`` and ``q_mode``, reuses
    its factors, which are read-only and shared (see
    ``notes/decisions.md``); ``start`` installs the initialization and
    ``step`` advances one time instant and returns the input to apply.
    Only the latest step's record is kept, as ``last``; a caller that
    needs the history records it (``harness.run_experiment`` does).

    Args:
        config: tuning knobs.
        data: offline record with noise-free outputs.
    """

    def __init__(self, config: ControllerConfig, data: Trajectory):
        self.config = config
        self.pre, self.projector = _offline_factors(config, data)
        self.state: ControllerState | None = None
        self.t = 0
        self.last: StepDiagnostics | None = None

    def start(self, first_measurements: np.ndarray) -> None:
        """Install the initialization from the n measurements taken under zero input."""
        self.state = initialize(self.config, self.pre, first_measurements)
        self.t = 0
        self.last = None

    def noise_estimate(self, y_meas: np.ndarray) -> np.ndarray:
        """Estimate for the noise on a measurement not yet consumed.

        Pure: calling this does not advance the controller, and the next
        ``step`` with the same measurement recomputes the same value.
        """
        if self.state is None:
            raise RuntimeError("call start() before estimating noise")
        return estimate_noise(self.state, y_meas, self.pre)

    def step(self, y_meas: np.ndarray | None = None,
             prev_cost: CostFunction | None = None) -> np.ndarray:
        """Advance one time instant and return the input to apply.

        Args:
            y_meas: the measurement taken after the previous input was
                applied; must be None at the first step (the
                initialization already consumed the first n measurements)
                and present afterwards.
            prev_cost: the most recently revealed cost function; None at
                the first step, after which its gradient at the current
                prediction drives the steady-state update. The cost is
                always evaluated at the previous time index, never the
                current one.
        """
        if self.state is None:
            raise RuntimeError("call start() before stepping")
        state, pre = self.state, self.pre
        e_hat = y_den = None
        if self.t == 0:
            if y_meas is not None:
                raise ValueError(
                    "the first step consumes no measurement; "
                    "initialization already absorbed the first n"
                )
        else:
            if y_meas is None:
                raise ValueError(f"step {self.t} requires the latest measurement")
            e_hat = estimate_noise(state, y_meas, pre)
            y_den = y_meas - e_hat

        # Nothing below touches the state until ``advance`` commits it, so a
        # step that raises leaves the controller as it was.
        alpha, alpha_res = solve_alpha(state, pre, y_den)
        _, z_s = predict_and_descend(
            state, alpha, pre, prev_cost, self.t - 1,
            self.projector, self.config.gamma)
        beta, _, g_norm, beta_res = solve_beta(alpha, z_s, pre)
        u_t = advance(state, alpha, beta, z_s, pre, y_den)

        self.last = StepDiagnostics(z_s=z_s, e_hat=e_hat, g_norm=g_norm,
                                    alpha_residual=alpha_res, beta_residual=beta_res)
        self.t += 1
        return u_t
