"""Trajectory algebra from recorded data.

A single sufficiently excited input-output record of a linear system spans
every trajectory the system can produce. This script records one
experiment on a hidden plant, then certifies and rejects candidate
trajectories using nothing but that record.
"""

import numpy as np

from ddcontrol import (PlantModel, Trajectory, build_hankel,
                       collect_offline_data, membership_residual,
                       persistency_check, simulate)

rng = np.random.default_rng(0)

# The "unknown" plant. Everything below uses only recorded data from it.
plant = PlantModel(A=[[0.6, 0.2], [0.0, 0.4]], B=[[1.0], [0.5]],
                   C=[[1.0, 0.0]])

print("== recording one excited experiment ==")
data = collect_offline_data(plant, N=80, seed=1)
print(f"recorded {data.N} steps, {data.m} input / {data.p} output channels")
print(f"input persistently exciting of order 10: "
      f"{persistency_check(data.inputs, 10)}")

H = build_hankel(data.inputs, 4)
print(f"depth-4 input Hankel matrix: {H.shape[0]} x {H.shape[1]}")

print("\n== certifying candidate trajectories ==")
fresh = simulate(plant, rng.normal(size=2), rng.uniform(-1, 1, (6, 1)))
print(f"fresh simulation of the same plant: residual = "
      f"{membership_residual(data, fresh, n=2):.2e}  (a trajectory)")

scaled = Trajectory(3.0 * fresh.inputs, 3.0 * fresh.outputs)
print(f"scaled by 3 (linearity):            residual = "
      f"{membership_residual(data, scaled):.2e}  (still a trajectory)")

tampered = fresh.outputs.copy()
tampered[2, 0] += 1.0
bad = Trajectory(fresh.inputs, tampered)
print(f"one output entry bumped by 1.0:     residual = "
      f"{membership_residual(data, bad):.2e}  (not a trajectory)")
