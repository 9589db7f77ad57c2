"""Time-varying cost functions over stacked input-output points z = (u, y).

Costs are revealed to the controller with a one-step delay, so every cost
object is indexed by time. All shipped families are smooth and strongly
convex with known moduli (alpha_z, l_z), and each exposes the array
form the steady-state oracle solves: quadratic terms, or quadratic terms
plus a softplus term.
"""

import bisect
from dataclasses import dataclass, field

import numpy as np


class CostFunction:
    """Base interface: value, gradient, convexity moduli and the oracle's forms.

    Subclasses must set ``alpha_z`` (strong convexity) and ``l_z``
    (smoothness) with 0 < alpha_z <= l_z < inf, and implement ``eval`` and
    ``grad``. The regret oracle reads a cost over a 1-D array of times
    through two array forms, one row per time:

    - ``stacked_terms(times)``: ``(H, g)`` with L_t(z) = 0.5 z'Hz + g'z plus
      a constant at each time, shapes (k, d, d) and (k, d); or
      ``(H, g, a, c)``, shaped as those plus (k, d) and (k,), for that
      quadratic plus c log(1 + exp(a'z)). The constant moves no minimizer,
      so it is not returned. The default, None, says the cost gives
      neither, and the oracle refuses it.
    - ``stacked_eval(times, points)``: ``eval`` at each time and the
      matching row of ``points``; the default loops ``eval``.
    """

    alpha_z: float
    l_z: float

    def eval(self, t: int, z: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, t: int, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stacked_terms(self, times: np.ndarray):
        return None

    def stacked_eval(self, times: np.ndarray, points: np.ndarray) -> np.ndarray:
        return np.array([self.eval(t, z) for t, z in zip(map(int, times), points)],
                        dtype=float)

    def _check_finite(self, *names):
        # NaN fails every comparison, so the moduli checks cannot catch it
        for name in names:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"cost parameter {name} must be finite")

    def _check_moduli(self):
        if not (0.0 < self.alpha_z <= self.l_z < np.inf):
            raise ValueError(
                f"need 0 < alpha_z <= l_z < inf, got alpha_z={self.alpha_z}, l_z={self.l_z}"
            )


@dataclass
class QuadraticTrackingCost(CostFunction):
    """Time-invariant quadratic 0.5 (z - target)' H (z - target).

    ``target`` need not be a steady state of any plant; when it is not,
    the cost is economic in the sense that its unconstrained minimizer is
    infeasible as an equilibrium.
    """

    H: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.target = np.asarray(self.target, dtype=float)
        self._check_finite("H", "target")
        if self.H.shape[0] != self.H.shape[1] or self.H.shape[0] != self.target.size:
            raise ValueError("H must be square and match the target dimension")
        if np.linalg.norm(self.H - self.H.T) > 1e-12 * (1 + np.linalg.norm(self.H)):
            raise ValueError("H must be symmetric")
        w = np.linalg.eigvalsh(self.H)
        self.alpha_z = float(w[0])
        self.l_z = float(w[-1])
        self._check_moduli()

    def eval(self, t: int, z: np.ndarray) -> float:
        d = z - self.target
        return 0.5 * float(d.dot(self.H).dot(d))

    def grad(self, t: int, z: np.ndarray) -> np.ndarray:
        return self.H.dot(z - self.target)

    def stacked_terms(self, times: np.ndarray):
        # np.repeat copies H, so a caller that edits it cannot alter the cost
        k = len(times)
        return (np.repeat(self.H[None], k, axis=0),
                np.repeat((-self.H @ self.target)[None], k, axis=0))


def _logistic(x):
    """1 / (1 + exp(-x)) in the two-branch form that cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass
class QuadraticSoftplusCost(QuadraticTrackingCost):
    """Quadratic plus a softplus term: smooth, strongly convex, not quadratic.

    L(z) = 0.5 (z - target)' H (z - target) + c * log(1 + exp(a'z)).
    Each form extends the tracking cost's; moduli follow from the Hessian
    bounds H <= H + c/4 * a a'.
    """

    a: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        self.a = np.asarray(self.a, dtype=float)
        self._check_finite("a", "c")
        if self.a.shape != self.target.shape:
            raise ValueError("a must match the target dimension")
        if self.c < 0:
            raise ValueError("softplus weight must be nonnegative")
        # |a|^2 can overflow, and the moduli check refuses the inf it gives
        with np.errstate(over="ignore"):
            self.l_z = float(self.l_z + 0.25 * self.c * self.a @ self.a)
        self._check_moduli()

    def eval(self, t: int, z: np.ndarray) -> float:
        return super().eval(t, z) + self.c * float(np.logaddexp(0.0, self.a.dot(z)))

    def grad(self, t: int, z: np.ndarray) -> np.ndarray:
        return super().grad(t, z) + self.c * _logistic(self.a.dot(z)) * self.a

    def stacked_terms(self, times: np.ndarray):
        k = len(times)
        return (*super().stacked_terms(times), np.repeat(self.a[None], k, axis=0),
                np.full(k, self.c))


@dataclass(frozen=True)
class CostSegment:
    """Per-segment parameters of a scheduled quadratic cost."""

    start: int
    output_weight: np.ndarray     # (p, p) positive semidefinite
    input_weight: float           # scalar multiplying the per-step price
    setpoint: np.ndarray          # (p,)


@dataclass
class QuadraticScheduledCost(CostFunction):
    """Piecewise-scheduled quadratic cost with a per-step price series.

    At time t the active segment contributes
    ``0.5 (y - setpoint)' W (y - setpoint) + 0.5 * input_weight * price_t * |u|^2``.
    Segment switches are driven by ``segments`` (breakpoints strictly
    increasing, first at 0); the price multiplies only the input term.
    """

    m: int
    segments: list[CostSegment] = field(default_factory=list)
    price_series: np.ndarray = None

    def __post_init__(self):
        if not self.segments:
            raise ValueError("at least one segment required")
        starts = [s.start for s in self.segments]
        if starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment breakpoints must start at 0 and strictly increase")
        self.price_series = np.asarray(self.price_series, dtype=float)
        if self.price_series.ndim != 1 or self.price_series.size == 0:
            raise ValueError("price series must be a nonempty vector")
        if not np.all(np.isfinite(self.price_series) & (self.price_series > 0)):
            raise ValueError("prices must be positive and finite")
        self._starts = starts
        p = self.segments[0].setpoint.size
        self.p = p
        H_seg, g_seg = [], []    # H without its input block, g
        lo, hi = np.inf, 0.0
        # a positive weight keeps the prices' order, so a segment's extreme
        # weighted prices are its weight times the extreme prices, taken in
        # Python floats: one that overflows is inf, which the moduli check
        # refuses, and gives no numpy warning
        price_lo, price_hi = float(self.price_series.min()), float(self.price_series.max())
        for seg in self.segments:
            if seg.output_weight.shape != (p, p) or seg.setpoint.size != p:
                raise ValueError("segment dimensions disagree")
            # NaN fails no comparison, so the checks below would let it through
            if not (np.isfinite(seg.input_weight)
                    and np.all(np.isfinite(seg.output_weight))
                    and np.all(np.isfinite(seg.setpoint))):
                raise ValueError("segment weights and setpoint must be finite")
            if seg.input_weight <= 0:
                raise ValueError("input weight must be positive")
            w = np.linalg.eigvalsh(seg.output_weight)
            if w[0] < -1e-12:
                raise ValueError("output weight must be positive semidefinite")
            lo = min(lo, float(w[0]), float(seg.input_weight) * price_lo)
            hi = max(hi, float(w[-1]), float(seg.input_weight) * price_hi)
            H = np.zeros((self.m + p, self.m + p))
            H[self.m:, self.m:] = seg.output_weight
            H_seg.append(H)
            g_seg.append(np.concatenate([np.zeros(self.m),
                                         -seg.output_weight @ seg.setpoint]))
        # per segment, stacked, so that fancy indexing hands out copies
        self._H, self._g = np.array(H_seg), np.array(g_seg)
        self._input_weights = np.array([seg.input_weight for seg in self.segments],
                                       dtype=float)
        self._setpoints = np.array([seg.setpoint for seg in self.segments], dtype=float)
        self.alpha_z = lo
        self.l_z = hi
        self._check_moduli()

    @property
    def horizon(self) -> int:
        return self.price_series.size

    def _index(self, t: int) -> int:
        """Index of the segment active at t."""
        if t < 0 or t >= self.horizon:
            raise IndexError(f"time index {t} beyond configured horizon {self.horizon}")
        return bisect.bisect_right(self._starts, t) - 1

    def _indices(self, times: np.ndarray) -> np.ndarray:
        """Index of the segment active at each of 1-D ``times``."""
        outside = (times < 0) | (times >= self.horizon)
        if outside.any():
            raise IndexError(f"time index {times[outside][0]} beyond configured "
                             f"horizon {self.horizon}")
        return np.searchsorted(self._starts, times, side="right") - 1

    def params_at(self, t: int) -> tuple[np.ndarray, float, np.ndarray]:
        """(output weight, effective input weight, setpoint) active at t."""
        seg = self.segments[self._index(t)]
        return seg.output_weight, seg.input_weight * float(self.price_series[t]), seg.setpoint

    def eval(self, t: int, z: np.ndarray) -> float:
        W, iw, sp = self.params_at(t)
        u, y = z[:self.m], z[self.m:]
        d = y - sp
        return 0.5 * float(d.dot(W).dot(d)) + 0.5 * iw * float(u.dot(u))

    def grad(self, t: int, z: np.ndarray) -> np.ndarray:
        W, iw, sp = self.params_at(t)
        u, y = z[:self.m], z[self.m:]
        return np.concatenate([iw * u, W.dot(y - sp)])

    def stacked_eval(self, times: np.ndarray, points: np.ndarray) -> np.ndarray:
        # eval's products in eval's order, one row per time, so a one-input,
        # one-output cost gives eval's values bit for bit
        times = np.asarray(times)
        k = self._indices(times)
        u, d = points[:, :self.m], points[:, self.m:] - self._setpoints[k]
        dW = np.matmul(d[:, None, :], self._H[k, self.m:, self.m:])[:, 0]
        iw = self._input_weights[k] * self.price_series[times]
        return 0.5 * (dW * d).sum(axis=1) + 0.5 * iw * (u * u).sum(axis=1)

    def stacked_terms(self, times: np.ndarray):
        # only the price-scaled input diagonal changes within a segment;
        # indexing the stored terms copies them, so callers cannot alter them
        times = np.asarray(times)
        k = self._indices(times)
        H = self._H[k]
        diag = np.arange(self.m)
        H[:, diag, diag] = (self._input_weights[k] * self.price_series[times])[:, None]
        return H, self._g[k]


def piecewise_linear_profile(knots: list[tuple[float, float]], steps: int,
                             steps_per_hour: float) -> np.ndarray:
    """Sample a piecewise-linear (hour, value) profile on a step grid.

    Values are linearly interpolated between knots and normalized so the
    sampled series has mean exactly 1.
    """
    hours = np.arange(steps) / steps_per_hour
    xs = np.array([k[0] for k in knots], dtype=float)
    ys = np.array([k[1] for k in knots], dtype=float)
    if np.any(np.diff(xs) <= 0):
        raise ValueError("profile knots must have strictly increasing hours")
    vals = np.interp(hours, xs, ys)
    return vals / vals.mean()


#: default day-ahead price shape (hour, relative price): a morning and an
#: evening peak, normalized to mean 1 when sampled. Shipped example values,
#: not measurements; the peaks are kept moderate so the benchmark step size
#: of 0.15 stays within 2/(alpha_z + l_z) for the default weights.
DEFAULT_PRICE_KNOTS = [
    (0.0, 0.82), (5.0, 0.74), (7.0, 1.05), (9.0, 1.22), (12.0, 1.00),
    (15.0, 0.96), (18.0, 1.26), (21.0, 0.96), (24.0, 0.82),
]


def hvac_cost_schedule(
    p: int,
    m: int,
    day_steps: int = 1440,
    comfort_weight: float = 1.0,
    night_weight: float = 0.1,
    night_end_hour: float = 6.0,
    setpoint_low: float = 18.0,
    setpoint_high: float = 21.0,
    switch_hour: float = 9.0,
    outdoor_temp: float = 15.0,
    input_weight: float = 10.0,
    price_knots: list[tuple[float, float]] | None = None,
) -> QuadraticScheduledCost:
    """Daily thermal-comfort schedule over one simulated day.

    The output weight is ``comfort_weight * I`` except during the night
    interval [0, night_end_hour) where it drops to ``night_weight * I`` to
    save energy; the temperature setpoint switches from ``setpoint_low`` to
    ``setpoint_high`` at ``switch_hour``. Setpoints are stored relative to
    the outdoor temperature because the plant state is the indoor-outdoor
    difference. The per-step energy price follows a piecewise-linear
    profile normalized to mean 1.
    """
    steps_per_hour = day_steps / 24.0
    if day_steps < 1:
        raise ValueError("day must contain at least one step")
    price = piecewise_linear_profile(price_knots or DEFAULT_PRICE_KNOTS,
                                     day_steps, steps_per_hour)
    night_end = int(round(night_end_hour * steps_per_hour))
    switch = int(round(switch_hour * steps_per_hour))
    if not (0 < night_end <= switch < day_steps):
        raise ValueError("schedule breakpoints out of order for this day length")
    low = (setpoint_low - outdoor_temp) * np.ones(p)
    high = (setpoint_high - outdoor_temp) * np.ones(p)
    segments = [
        CostSegment(0, night_weight * np.eye(p), input_weight, low),
        CostSegment(night_end, comfort_weight * np.eye(p), input_weight, low),
        CostSegment(switch, comfort_weight * np.eye(p), input_weight, high),
    ]
    return QuadraticScheduledCost(m=m, segments=segments, price_series=price)
