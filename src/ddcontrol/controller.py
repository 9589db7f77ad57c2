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
from .behavioral import (HankelSet, Trajectory, WindowSpan, block_rows,
                         persistency_check)
from .costs import CostFunction
from .errors import FeasibilityError, PersistencyError
from .steady_state import SteadyStateProjector

#: relative residual tolerance for the coefficient solves
FEAS_RTOL = 1e-7


@dataclass
class ControllerConfig:
    """Tuning knobs of the per-step controller.

    gamma: gradient step size (> 0).
    mu: prediction horizon; mu >= n always satisfies the reachability
        requirement since the controllability index never exceeds the
        system order.
    n: upper bound on the system order.
    q_mode: the seminorm the steering correction minimizes, one of ``Q_MODES``.
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
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.q_mode not in Q_MODES:
            raise ValueError(f"unknown q_mode {self.q_mode!r}; options: {Q_MODES}")
        if self.init_mode not in ("zero", "regularized"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.lambda_init < 0:
            raise ValueError("lambda_init must be nonnegative")


def check_step_size(gamma: float, alpha_z: float, l_z: float) -> bool:
    """Warn when the step size exceeds 2/(alpha_z + l_z).

    A large step only voids the tracking guarantee, it does not break the
    per-step algebra, so this is a warning rather than an error.
    """
    limit = 2.0 / (alpha_z + l_z)
    if gamma > limit * (1 + 1e-12):
        warnings.warn(
            f"step size gamma={gamma:.4g} exceeds 2/(alpha_z+l_z)={limit:.4g}; "
            "tracking guarantees no longer apply",
            stacklevel=2,
        )
        return False
    return True


#: the steering-correction weight of each ``q_mode``, from the Hankel set
_Q_WEIGHTS = {
    "identity": lambda h: np.eye(h.columns),
    "identity+future_inputs": lambda h: np.vstack(
        [np.eye(h.columns), block_rows(h.U, h.n + 1, 2 * h.n + h.mu + 1)]),
}
Q_MODES = tuple(_Q_WEIGHTS)


def build_q(hankels: HankelSet, mode: str) -> np.ndarray:
    """Weight matrix for the steering-correction seminorm."""
    if mode not in Q_MODES:
        raise ValueError(f"unknown q_mode {mode!r}; options: {Q_MODES}")
    return _Q_WEIGHTS[mode](hankels)


@dataclass(frozen=True)
class Precomputed(HankelSet):
    """A record's Hankel set plus everything the per-step loop multiplies by.

    ``H_alpha_pinv`` solves the prediction-coefficient system and
    ``Q_tilde`` maps a steering target mismatch to the minimum-seminorm
    correction coefficients. ``E_alpha = H_alpha H_alpha_pinv - I`` and
    ``E_beta = H_beta Q_tilde - I`` map a right-hand side to the residual
    of its solve, so the per-step feasibility checks multiply by these
    small square maps instead of by ``H_alpha`` and ``H_beta``. ``E_beta``
    carries the error of ``Q_tilde`` itself, so a ``Q_tilde`` that misses
    its targets still fails the check. The named row blocks of the data
    Hankel matrices are the ones the loop reads out every step.
    ``steady_index`` gathers a steady state (u_s, y_s) into the terminal
    window's layout: u_s n+1 times, then y_s n times.
    """

    H_alpha_pinv: np.ndarray
    Q_tilde: np.ndarray
    E_alpha: np.ndarray
    E_beta: np.ndarray
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
    then builds the Hankel set and the ``build_q`` weight and factors them.
    """
    # looked up at call time, so a timing wrapper on the module attribute sees it
    from .behavioral import build_hankel_set

    order = 3 * n + mu + 1
    min_N = (data.m + 1) * order - 1
    if data.N < min_N:
        raise ValueError(f"data too short: need N >= {min_N} for excitation "
                         f"order {order}, got {data.N}")
    if not persistency_check(data.inputs, order):
        raise PersistencyError(
            f"data input is not persistently exciting of order 3n+mu+1 = {order}"
        )
    hankels = build_hankel_set(data, n, mu)
    Q = build_q(hankels, q_mode)
    H_beta = hankels.H_beta
    H_beta_pinv = linalg.pinv(H_beta)
    cols = hankels.columns
    kernel_proj = np.eye(cols) - H_beta_pinv @ H_beta
    Q_tilde = (np.eye(cols) - linalg.pinv(Q @ kernel_proj) @ Q) @ H_beta_pinv
    H_alpha = hankels.H_alpha
    H_alpha_pinv = linalg.pinv(H_alpha)
    m, p = hankels.m, hankels.p
    return Precomputed(
        **vars(hankels),
        H_alpha_pinv=H_alpha_pinv,
        Q_tilde=Q_tilde,
        E_alpha=H_alpha @ H_alpha_pinv - np.eye(H_alpha.shape[0]),
        E_beta=H_beta @ Q_tilde - np.eye(H_beta.shape[0]),
        U_plan=block_rows(hankels.U, n + 1, n + mu + 1),
        U_tail=block_rows(hankels.U, n + mu + 1, 2 * n + mu + 1),
        Y_past=block_rows(hankels.Y, 1, n),
        Y_next=block_rows(hankels.Y, n + 1, n + 1),
        Y_ahead=block_rows(hankels.Y, n + mu + 1, n + mu + 1),
        Y_tail=block_rows(hankels.Y, n + mu + 1, 2 * n + mu),
        steady_index=np.concatenate([np.tile(np.arange(m), n + 1),
                                     m + np.tile(np.arange(p), n)]),
    )


#: offline factors ``(pre, projector)`` of the data records used last,
#: least recently used first; two entries let a sweep alternate two
#: horizons on one record (``notes/decisions.md``)
_FACTORS: OrderedDict = OrderedDict()
_FACTORS_KEPT = 2
#: held for a whole lookup or build, so controllers constructed in
#: parallel threads see a consistent cache
_FACTORS_LOCK = threading.Lock()


def _freeze(obj) -> None:
    """Make every array reachable through dataclass fields read-only.

    A view keeps its own writeable flag, so each view and its bases are
    frozen one by one.
    """
    if isinstance(obj, np.ndarray):
        while isinstance(obj, np.ndarray):
            obj.flags.writeable = False
            obj = obj.base
    elif is_dataclass(obj):
        for f in fields(obj):
            _freeze(getattr(obj, f.name))


def _offline_factors(config: ControllerConfig, data: Trajectory) -> tuple:
    """``(pre, projector)`` of a data record, factored once per record.

    The key is what ``precompute`` and ``build_projector`` read: the data
    bytes, their (N, m) and (N, p) split, ``n``, ``mu`` and ``q_mode``, so
    controllers on an equal record share the factors; they are read-only
    for that reason. A miss evicts the least recently used entries before
    it builds, so a build never runs beside a full cache of stale factors,
    and a build that raises caches nothing. Constructions in parallel
    threads take turns.
    """
    # looked up at call time for the reason given in ``precompute``
    from .steady_state import build_projector

    key = (data.inputs.shape, data.outputs.shape, data.inputs.tobytes(),
           data.outputs.tobytes(), config.n, config.mu, config.q_mode)
    with _FACTORS_LOCK:
        factors = _FACTORS.get(key)
        if factors is not None:
            _FACTORS.move_to_end(key)
            return factors
        while len(_FACTORS) >= _FACTORS_KEPT:
            _FACTORS.popitem(last=False)
        pre = precompute(data, config.n, config.mu, config.q_mode)
        projector = build_projector(data, config.n)
        _freeze(pre)
        _freeze(projector)
        _FACTORS[key] = factors = (pre, projector)
        return factors


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
               first_measurements: np.ndarray,
               u_init: np.ndarray | None = None) -> ControllerState:
    """Controller state before the first step.

    In "zero" mode the plant is assumed to have been at rest under zero
    input: the noise estimates swallow the first n measurements entirely,
    so the stored history is the all-zero trajectory, which is valid for
    any linear system. In "regularized" mode the past inputs may be
    nonzero; the initial coefficients and noise estimates are found by a
    least-squares solve that trades the output-match residual against the
    norm of the unknowns with weight ``config.lambda_init``, subject to
    the input rows being matched exactly. Both modes start from a zero
    input plan and a zero steady-state estimate, and the first step solves
    for its coefficients like every later one.
    """
    n, mu, m, p = pre.n, pre.mu, pre.m, pre.p
    y_meas = np.atleast_2d(np.asarray(first_measurements, dtype=float))
    if y_meas.shape != (n, p):
        raise ValueError(f"need the first n={n} measurements, shape (n, p)")
    u_pred = np.zeros((mu + 1, m))
    z_s = np.zeros(m + p)

    if config.init_mode == "zero":
        if u_init is not None and np.any(np.asarray(u_init) != 0):
            raise ValueError("zero-mode initialization requires zero past inputs")
        return ControllerState(
            u_hist=np.zeros((n, m)),
            y_den_hist=np.zeros((n, p)),
            u_pred=u_pred,
            z_s_prev=z_s,
            coeff_prev=None,
        )

    # a copy: the controller shifts its history in place
    u_hist = np.zeros((n, m)) if u_init is None \
        else np.array(u_init, dtype=float).reshape(n, m)
    alpha0, _ = regularized_init_solution(
        pre, y_meas, u_hist, u_pred, z_s[:m], config.lambda_init)
    # Absorb the least-squares residual into the noise estimates, which are
    # y_meas minus the stored outputs, so that the stored history is exactly
    # the trajectory the coefficients encode; the feasibility induction of
    # every later step depends on this.
    return ControllerState(
        u_hist=u_hist,
        y_den_hist=(pre.Y_past @ alpha0).reshape(n, p),
        u_pred=u_pred,
        z_s_prev=z_s,
        coeff_prev=None,
    )


def regularized_init_solution(pre: Precomputed, y_meas: np.ndarray,
                              u_hist: np.ndarray, u_pred: np.ndarray,
                              u_s: np.ndarray, lam: float):
    """Joint least-squares choice of initial coefficients and noise estimates.

    Minimizes the output-match residual plus ``lam`` times the squared norm
    of the stacked unknowns (coefficients, noise estimates), subject to the
    input rows of the data matching the past inputs, the shifted input
    plan, and the held steady-state input exactly. Larger ``lam`` pulls the
    solution toward the minimum-norm feasible pair.

    Returns ``(alpha0, e_hat)`` where e_hat has shape (n, p).
    """
    n, m, p = pre.n, pre.m, pre.p
    cols = pre.columns
    rhs_u = np.concatenate([
        np.asarray(u_hist, dtype=float).ravel(),
        np.asarray(u_pred, dtype=float).ravel()[m:],
        np.tile(np.asarray(u_s, dtype=float), n + 1),
    ])
    U_full = pre.U.entries
    E = np.hstack([U_full, np.zeros((U_full.shape[0], n * p))])
    M = np.hstack([pre.Y_past, np.eye(n * p)])
    w = linalg.constrained_ridge_lstsq(M, np.asarray(y_meas, dtype=float).ravel(),
                                       E, rhs_u, lam=lam)
    return w[:cols], w[cols:].reshape(n, p)


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
    return y_meas - pre.Y_next @ state.coeff_prev


def alpha_rhs(state: ControllerState, pre: Precomputed,
              y_latest: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side of the prediction-coefficient system.

    With ``y_latest`` the output window is the stored one shifted by one
    step with ``y_latest`` appended: the window a step solves with before
    it commits the new output to the state.
    """
    n, mu, m, p = pre.n, pre.mu, pre.m, pre.p
    a, b, c = n * m, (n + mu) * m, (2 * n + mu + 1) * m
    rhs = np.empty(c + n * p)
    rhs[:a] = state.u_hist.ravel()
    rhs[a:b] = state.u_pred.ravel()[m:]      # shifted plan, first input dropped
    rhs[b:c] = state.z_s_prev[pre.steady_index[:c - b]]
    if y_latest is None:
        rhs[c:] = state.y_den_hist.ravel()
    else:
        rhs[c:-p] = state.y_den_hist[1:].ravel()
        rhs[-p:] = y_latest
    return rhs


def solve_alpha(state: ControllerState, pre: Precomputed,
                y_latest: np.ndarray | None = None) -> tuple:
    """Minimum-norm coefficients encoding initialization plus planned inputs.

    Any feasible coefficient vector yields the same predicted outputs, so
    the pseudoinverse solution is chosen for numerical stability. A
    residual above tolerance means the state no longer encodes a valid
    trajectory (corrupted state or violated excitation assumptions).
    ``y_latest`` is the newest denoised output, not yet in the state (see
    ``alpha_rhs``). Returns ``(alpha, residual)``, where the residual
    ``|(H_alpha H_alpha^+ - I) rhs|`` comes from the offline map ``E_alpha``.
    """
    rhs = alpha_rhs(state, pre, y_latest)
    alpha = pre.H_alpha_pinv @ rhs
    r = pre.E_alpha @ rhs
    # Euclidean norms, as ``np.linalg.norm`` computes them; a residual
    # within FEAS_RTOL passes whatever the right-hand side's norm, so that
    # norm is taken only for a residual above it
    res = math.sqrt(r @ r)
    if res > FEAS_RTOL and res > FEAS_RTOL * (1.0 + math.sqrt(rhs @ rhs)):
        raise FeasibilityError(
            f"prediction coefficients infeasible (residual {res:.3e}); "
            "controller state is corrupted or the data assumptions fail"
        )
    return alpha, res


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
    z_hat = np.concatenate([state.z_s_prev[:m], pre.Y_ahead @ alpha])
    if prev_cost is None:
        grad = np.zeros_like(z_hat)
    else:
        grad = prev_cost.grad(t_prev, z_hat)
    z_s = proj.P @ (z_hat - gamma * grad)
    return z_hat, z_s


def solve_beta(alpha: np.ndarray, z_s: np.ndarray, pre: Precomputed) -> tuple:
    """Minimum-seminorm steering correction reaching the new target.

    The correction keeps the initialization untouched (zero blocks), moves
    the terminal input window to the new steady-state input held for n+1
    steps, and pins the last n predicted outputs to the new steady-state
    output. Returns ``(beta, g, residual)`` where g is the assembled target
    mismatch and the residual ``|(H_beta Q_tilde - I) g|`` comes from the
    offline map ``E_beta``.
    """
    n, m, p = pre.n, pre.m, pre.p
    a, b, c = n * m, (2 * n + 1) * m, (2 * n + 1) * m + n * p
    g = np.zeros(c + n * p)
    target = z_s[pre.steady_index]
    np.subtract(target[:b - a], pre.U_tail @ alpha, out=g[a:b])
    np.subtract(target[b - a:], pre.Y_tail @ alpha, out=g[c:])
    beta = pre.Q_tilde @ g
    r = pre.E_beta @ g
    res = math.sqrt(r @ r)          # the norms as in ``solve_alpha``
    if res > FEAS_RTOL and res > FEAS_RTOL * (1.0 + math.sqrt(g @ g)):
        raise FeasibilityError(
            f"steering correction infeasible (residual {res:.3e}); "
            "the prediction horizon may be shorter than the controllability "
            "index, or the data is corrupted"
        )
    return beta, g, res


def advance(state: ControllerState, alpha: np.ndarray, beta: np.ndarray,
            z_s: np.ndarray, pre: Precomputed,
            y_latest: np.ndarray | None = None) -> np.ndarray:
    """Commit the step in place: emit the input and shift the controller memory.

    ``y_latest`` is the denoised output the step consumed (None at the
    first step). Returns the input to apply.
    """
    m, mu = pre.m, pre.mu
    coeff = alpha + beta
    u_plan = (pre.U_plan @ coeff).reshape(mu + 1, m)
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
    identity_violation: float | None = None
    membership: float | None = None


def _step_identities(hankels: HankelSet, alpha: np.ndarray,
                     coeff_prev: np.ndarray, coeff_new: np.ndarray,
                     z_s: np.ndarray) -> float:
    """Max violation of the four cross-step consistency identities.

    Consecutive coefficient vectors must agree on the shifted
    initialization window, on the shifted input plan, on the overlapping
    output predictions, and the committed coefficients must hold the
    terminal window at the new equilibrium. All four are exact identities
    of the algorithm's own linear algebra.
    """
    U, Y, n, mu = hankels.U, hankels.Y, hankels.n, hankels.mu
    m = hankels.m
    same_init = max(
        np.abs(block_rows(U, 1, n) @ alpha
               - block_rows(U, 2, n + 1) @ coeff_prev).max(initial=0.0),
        np.abs(block_rows(Y, 1, n) @ alpha
               - block_rows(Y, 2, n + 1) @ coeff_prev).max(initial=0.0),
    )
    same_input = np.abs(block_rows(U, n + 1, 2 * n + mu) @ alpha
                        - block_rows(U, n + 2, 2 * n + mu + 1) @ coeff_prev).max()
    pred_rec = np.abs(block_rows(Y, n + 1, 2 * n + mu) @ alpha
                      - block_rows(Y, n + 2, 2 * n + mu + 1) @ coeff_prev).max()
    terminal = np.abs(block_rows(Y, n + mu + 1, 2 * n + mu + 1) @ coeff_new
                      - np.tile(z_s[m:], n + 1)).max()
    return float(max(same_init, same_input, pred_rec, terminal))


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
        check_identities: verify the cross-step identities and the
            trajectory validity of the stored history every step
            (diagnostic runs; a checked step of the shipped thermal day
            takes about 2.4 times as long as an unchecked one).
    """

    def __init__(self, config: ControllerConfig, data: Trajectory, *,
                 check_identities: bool = False):
        self.config = config
        self.pre, self.projector = _offline_factors(config, data)
        self.check_identities = check_identities
        # the stored history is tested against the record's depth-n windows
        self._window = WindowSpan(data, config.n) if check_identities else None
        self.state: ControllerState | None = None
        self.t = 0
        self.last: StepDiagnostics | None = None

    def start(self, first_measurements: np.ndarray,
              u_init: np.ndarray | None = None) -> None:
        """Install the initialization from the first n measurements."""
        self.state = initialize(self.config, self.pre, first_measurements,
                                u_init=u_init)
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
        beta, g, beta_res = solve_beta(alpha, z_s, pre)
        violation = membership = None
        if self.check_identities:
            if state.coeff_prev is not None:
                violation = _step_identities(
                    pre, alpha, state.coeff_prev, alpha + beta, z_s)
            # the window this step solved with: inputs and outputs end at t-1
            y_window = state.y_den_hist if y_den is None \
                else np.vstack([state.y_den_hist[1:], y_den])
            hist = Trajectory(state.u_hist, y_window)
            membership = self._window.residual(hist)
            if membership > FEAS_RTOL * (1.0 + float(np.linalg.norm(hist.stacked()))):
                raise FeasibilityError(
                    f"stored history is no longer a valid trajectory "
                    f"(residual {membership:.3e}) at step {self.t}"
                )
        u_t = advance(state, alpha, beta, z_s, pre, y_den)

        self.last = StepDiagnostics(
            z_s=z_s, e_hat=e_hat, g_norm=math.sqrt(g @ g), alpha_residual=alpha_res,
            beta_residual=beta_res, identity_violation=violation,
            membership=membership)
        self.t += 1
        return u_t
