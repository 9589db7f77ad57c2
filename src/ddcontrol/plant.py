"""Ground-truth LTI simulation: the plant the controller never sees.

Provides the discrete-time state-space simulator, seeded noise models,
offline data collection, and a five-zone thermal model builder with exact
zero-order-hold discretization. The controller consumes only recorded
trajectories and per-step measurements; nothing in this module leaks
model matrices across that boundary.
"""

from dataclasses import dataclass, field

import numpy as np

# persistency_check is unused here but stays importable: the benchmark's
# timing spans patch it on this module (perfbench/spans.py)
from .behavioral import Trajectory, persistency_check  # noqa: F401


class PlantModel:
    """Discrete-time LTI system x+ = Ax + Bu, y = Cx + Du.

    Construction verifies finite matrices, Schur stability and full-rank
    controllability and observability matrices.
    """

    def __init__(self, A, B, C, D=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n:
            raise ValueError("B row count must match the state dimension")
        if self.C.shape[1] != n:
            raise ValueError("C column count must match the state dimension")
        if D is None:
            D = np.zeros((self.C.shape[0], self.B.shape[1]))
        self.D = np.atleast_2d(np.asarray(D, dtype=float))
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ValueError("D must be p x m")
        if not all(np.isfinite(M).all() for M in (self.A, self.B, self.C, self.D)):
            raise ValueError("A, B, C and D must be finite")
        if self.spectral_radius() >= 1.0:
            raise ValueError(f"A is not Schur stable (spectral radius "
                             f"{self.spectral_radius():.4f})")
        if np.linalg.matrix_rank(self.controllability_matrix()) < n:
            raise ValueError("(A, B) is not controllable")
        if np.linalg.matrix_rank(self.observability_matrix()) < n:
            raise ValueError("(A, C) is not observable")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.A)).max())

    def controllability_matrix(self) -> np.ndarray:
        blocks, M = [], self.B
        for _ in range(self.n):
            blocks.append(M)
            M = self.A @ M
        return np.hstack(blocks)

    def observability_matrix(self) -> np.ndarray:
        blocks, M = [], self.C
        for _ in range(self.n):
            blocks.append(M)
            M = M @ self.A
        return np.vstack(blocks)


def step(model: PlantModel, x: np.ndarray, u: np.ndarray,
         e: np.ndarray | None = None, q: np.ndarray | None = None):
    """One simulation step.

    Returns ``(x_next, y, y_meas)`` with x+ = Ax + Bu + q, y = Cx + Du,
    and y_meas = y + e. Missing noise terms default to zero.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"state must have shape ({model.n},), got {x.shape}")
    if u.shape != (model.m,):
        raise ValueError(f"input must have shape ({model.m},), got {u.shape}")
    y = model.C.dot(x) + model.D.dot(u)
    y_meas = y if e is None else y + np.asarray(e, dtype=float)
    x_next = model.A.dot(x) + model.B.dot(u)
    if q is not None:
        x_next = x_next + np.asarray(q, dtype=float)
    return x_next, y, y_meas


def simulate(model: PlantModel, x0: np.ndarray, inputs: np.ndarray) -> Trajectory:
    """Roll out a whole input sequence without noise."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    x = np.asarray(x0, dtype=float).copy()
    ys = np.empty((inputs.shape[0], model.p))
    for k, u in enumerate(inputs):
        x, ys[k], _ = step(model, x, u)
    return Trajectory(inputs, ys)


@dataclass
class NoiseModel:
    """Seeded bounded-uniform generators for measurement and process noise.

    ``measurement`` and ``process`` are (low, high) bounds applied
    elementwise, or None for noise-free channels. Streams for the two
    channels are split from one seed so realizations stay paired when a
    configuration toggles either channel.
    """

    seed: int = 0
    measurement: tuple[float, float] | None = None
    process: tuple[float, float] | None = None

    def __post_init__(self):
        for name, bounds in (("measurement", self.measurement), ("process", self.process)):
            if bounds is None:
                continue
            if not np.isfinite(bounds).all():
                raise ValueError(f"{name} bounds must be finite: {bounds}")
            if bounds[0] > bounds[1]:
                raise ValueError(f"{name} bounds reversed: {bounds}")
        ss = np.random.SeedSequence(self.seed)
        children = ss.spawn(2)
        self._rng_e = np.random.default_rng(children[0])
        self._rng_q = np.random.default_rng(children[1])

    def draw_measurement(self, size: int | tuple[int, int]) -> np.ndarray:
        """The next ``size`` draws: one vector, or a block of them as rows."""
        if self.measurement is None:
            return np.zeros(size)
        lo, hi = self.measurement
        return self._rng_e.uniform(lo, hi, size=size)

    def draw_process(self, size: int | tuple[int, int]) -> np.ndarray:
        """Like ``draw_measurement``, from the process stream."""
        if self.process is None:
            return np.zeros(size)
        lo, hi = self.process
        return self._rng_q.uniform(lo, hi, size=size)


def collect_offline_data(model: PlantModel, N: int,
                         input_box: tuple[float, float] = (-1.0, 1.0),
                         seed: int = 0) -> Trajectory:
    """Record a noise-free excitation experiment of length N.

    Inputs are drawn i.i.d. uniform on ``input_box`` per channel from one
    generator seeded with ``seed``, and the model is simulated from rest
    without measurement or process noise. The record is not checked here:
    the order it must be exciting of is its consumer's, and ``precompute``,
    ``build_projector`` and ``membership_residual`` each check their own.
    """
    lo, hi = input_box
    u = np.random.default_rng(seed).uniform(lo, hi, size=(N, model.m))
    return simulate(model, np.zeros(model.n), u)


@dataclass
class ThermalZoneParams:
    """Parameters of the five-zone thermal model, in scaled units.

    ``capacitance[i]`` is the heat capacity of zone i, ``r_outdoor[i]``
    the zone-to-outdoor resistance (``None`` or inf for an interior zone
    with no outdoor surface), and ``r_between`` maps unordered zone pairs
    to inter-zone resistances; its key set defines the adjacency. The
    shipped defaults give time constants of tens of minutes at a one
    minute sample time; they are illustrative engineering values, not
    measurements of any particular building.
    """

    capacitance: np.ndarray = field(
        default_factory=lambda: np.array([2.0, 1.6, 2.4, 1.8, 2.2]))
    r_outdoor: list[float | None] = field(
        default_factory=lambda: [25.0, 30.0, None, 28.0, 22.0])
    r_between: dict[tuple[int, int], float] = field(default_factory=lambda: {
        (0, 1): 45.0, (0, 2): 40.0, (0, 3): 42.0,
        (1, 2): 38.0, (2, 4): 40.0, (3, 4): 45.0,
    })
    sample_time: float = 1.0          # in the model's time unit (minutes)
    sensor_zones: tuple[int, ...] = (0, 3, 4)

    @property
    def zones(self) -> int:
        return len(self.capacitance)


def thermal_coupling_matrices(params: ThermalZoneParams):
    """Continuous-time (A_c, B_c) of the interconnected thermal zones.

    States are zone temperatures relative to outdoors; inputs are per-zone
    heating/cooling powers entering through the zone capacitances.
    """
    nz = params.zones
    cap = np.asarray(params.capacitance, dtype=float)
    if not np.all((cap > 0) & (cap < np.inf)):
        raise ValueError("capacitances must be positive and finite")
    if len(params.r_outdoor) != nz:
        raise ValueError("need one outdoor resistance per zone")
    neighbors: dict[int, set[int]] = {i: set() for i in range(nz)}
    A_c = np.zeros((nz, nz))
    for (i, j), r in params.r_between.items():
        if i == j or not (0 <= i < nz and 0 <= j < nz):
            raise ValueError(f"invalid zone pair {(i, j)}")
        if r <= 0 or not np.isfinite(r):
            raise ValueError(f"inter-zone resistance for {(i, j)} must be positive finite")
        if j in neighbors[i]:
            raise ValueError(f"duplicate zone pair {(i, j)}")
        neighbors[i].add(j)
        neighbors[j].add(i)
        A_c[i, j] += 1.0 / (cap[i] * r)
        A_c[j, i] += 1.0 / (cap[j] * r)
        A_c[i, i] -= 1.0 / (cap[i] * r)
        A_c[j, j] -= 1.0 / (cap[j] * r)
    # connectivity: heat must be able to flow between any two zones
    seen, stack = {0}, [0]
    while stack:
        for k in neighbors[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    if len(seen) != nz:
        raise ValueError("zone adjacency graph is disconnected")
    any_leak = False
    for i, r in enumerate(params.r_outdoor):
        if r is None or r == np.inf:
            continue
        if not r > 0:
            raise ValueError(f"outdoor resistance of zone {i} must be positive")
        A_c[i, i] -= 1.0 / (cap[i] * r)
        any_leak = True
    if not any_leak:
        raise ValueError("at least one zone must couple to outdoors")
    B_c = np.diag(1.0 / cap)
    return A_c, B_c


def build_hvac(params: ThermalZoneParams | None = None) -> PlantModel:
    """Discrete-time five-zone thermal plant with sensors in a zone subset.

    The continuous dynamics are discretized exactly under zero-order hold
    at ``params.sample_time``, in closed form. With C the diagonal of
    capacitances, A_c = C^-1 G for a symmetric conductance matrix G, so
    S = C^1/2 A_c C^-1/2 is symmetric, and with S = V diag(lam) V':
    A = C^-1/2 V diag(exp(lam t_s)) V' C^1/2 and, as B_c = C^-1,
    B = C^-1/2 V diag(expm1(lam t_s) / lam) V' C^-1/2. Every lam is
    negative, because the network is connected and leaks to outdoors
    somewhere, so A is Schur stable for any valid parameters.
    """
    params = params or ThermalZoneParams()
    t_s = params.sample_time
    if not 0 < t_s < np.inf:
        raise ValueError(f"sample_time must be positive and finite, got {t_s}")
    A_c, _ = thermal_coupling_matrices(params)
    c = np.sqrt(np.asarray(params.capacitance, dtype=float))
    lam, V = np.linalg.eigh(c[:, None] * A_c / c)
    W = V / c[:, None]                                  # C^-1/2 V
    A = (W * np.exp(lam * t_s)) @ (V.T * c)
    B = (W * (np.expm1(lam * t_s) / lam)) @ W.T
    nz = params.zones
    C = np.zeros((len(params.sensor_zones), nz))
    for row, zone in enumerate(params.sensor_zones):
        if not 0 <= zone < nz:
            raise ValueError(f"sensor zone {zone} out of range")
        C[row, zone] = 1.0
    return PlantModel(A, B, C)

