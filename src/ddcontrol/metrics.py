"""Post-run performance metrics: regret, path length, noise-estimate error.

All functions here are pure post-processing over an immutable RunRecord;
they never touch the controller or the plant.
"""

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class RunRecord:
    """Complete closed-loop history of one run, one row per step t = 0..T.

    ``u``/``y`` are the applied inputs and true outputs, ``y_meas`` the
    noisy measurements, ``e_hat`` the controller's noise estimates,
    ``z_s`` the controller's steady-state estimates, ``zeta`` the oracle
    optimal steady states, and ``cost``/``opt_cost`` the per-step cost
    evaluated at the closed loop and at the oracle point. ``z_s_init`` is
    the steady-state estimate the run started from (used as the path-length
    base point). ``e_true`` is the injected measurement noise, and
    ``g_norm``, ``alpha_residual`` and ``beta_residual`` are the
    controller's per-step steering-target norm and solve residuals.
    """

    u: np.ndarray
    y: np.ndarray
    y_meas: np.ndarray
    e_hat: np.ndarray
    z_s: np.ndarray
    zeta: np.ndarray
    cost: np.ndarray
    opt_cost: np.ndarray
    z_s_init: np.ndarray
    e_true: np.ndarray
    g_norm: np.ndarray
    alpha_residual: np.ndarray
    beta_residual: np.ndarray

    def __post_init__(self):
        T1 = len(self.u)
        series = [self.y, self.y_meas, self.e_hat, self.z_s, self.zeta,
                  self.cost, self.opt_cost, self.e_true, self.g_norm,
                  self.alpha_residual, self.beta_residual]
        if any(len(s) != T1 for s in series):
            raise ValueError("all per-step series must share the same length")

    @property
    def horizon(self) -> int:
        """T; the record holds T+1 steps."""
        return len(self.u) - 1

    @property
    def z(self) -> np.ndarray:
        """Closed-loop stacked input-output pairs, shape (T+1, m+p)."""
        return np.hstack([self.u, self.y])


def regret(record: RunRecord) -> tuple[float, np.ndarray]:
    """Accumulated closed-loop cost above the optimal steady-state cost.

    Returns ``(total, running)`` where ``running[tau]`` is the partial sum
    through step tau; the series is reported raw (it may be transiently
    negative for economic costs) so time-averaged diagnostics can be formed
    without clamping.
    """
    increments = record.cost - record.opt_cost
    running = np.cumsum(increments)
    return float(running[-1]), running


def path_length(zeta: np.ndarray, z_s_init: np.ndarray) -> float:
    """Total variation of the oracle steady state, seeded at the start point."""
    zeta = np.atleast_2d(np.asarray(zeta, dtype=float))
    if len(zeta) == 0:
        raise ValueError("need at least one oracle point")
    prev = np.vstack([np.asarray(z_s_init, dtype=float)[None, :], zeta[:-1]])
    return float(np.linalg.norm(zeta - prev, axis=1).sum())


def steps_to_converge(record: RunRecord, tol: float = 1e-2) -> int:
    """First step after which the closed loop stays within tol of the oracle.

    Returns -1 when the trailing step is still outside tolerance.
    """
    dist = np.linalg.norm(record.z - record.zeta, axis=1)
    outside = np.nonzero(dist > tol)[0]
    if outside.size == 0:
        return 0
    last_bad = int(outside[-1])
    return -1 if last_bad == record.horizon else last_bad + 1


def summarize(record: RunRecord, seed: int, gamma: float, mu: int) -> dict:
    """One summary row for a run, keyed like the summary CSV columns."""
    total, _ = regret(record)
    noise_err = np.linalg.norm(record.e_hat - record.e_true, axis=1)
    return {
        "seed": seed,
        "gamma": gamma,
        "mu": mu,
        "regret": total,
        "path_length": path_length(record.zeta, record.z_s_init),
        "final_noise_error": float(noise_err[-1]),
        "steps_to_converge": steps_to_converge(record),
    }


SUMMARY_COLUMNS = ["seed", "gamma", "mu", "regret", "path_length",
                   "final_noise_error", "steps_to_converge"]


def write_summary_csv(path, rows: list[dict]) -> None:
    """Write run summaries, one row per run."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in SUMMARY_COLUMNS])


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)
