"""The steady-state set of an unknown system, identified from data alone.

Holding an input-output pair for n+1 consecutive steps is a trajectory
exactly when the pair is an equilibrium. Writing that with the data's
Hankel matrix gives a matrix S whose null space is the steady-state set;
minimizing a cost over that null space finds the best reachable
equilibrium without ever touching the model.
"""

import numpy as np

from ddcontrol import (PlantModel, QuadraticTrackingCost, build_projector,
                       collect_offline_data, optimal_steady_state, project)

# scalar reference plant x+ = 0.5 x + u, y = x: steady states satisfy y = 2u
plant = PlantModel([[0.5]], [[1.0]], [[1.0]])
data = collect_offline_data(plant, N=60, seed=3)

proj = build_projector(data, n=1)
print("S matrix (z is an equilibrium iff S z = 0):")
print(np.round(proj.S, 4))
print("\northogonal projector onto the steady-state set:")
print(np.round(proj.P, 4))
print(f"\nsteady-state set dimension: {proj.dim} (one per input channel)")
print(f"basis direction: {np.round(proj.basis.ravel(), 4)}  "
      "(proportional to (1, 2): outputs double the input)")

z = np.array([1.0, 0.0])
print(f"\nnearest equilibrium to {z}: {np.round(project(proj, z), 4)}")

# economic cost: its unconstrained minimum (u, y) = (0, 1) is NOT an
# equilibrium; the constrained optimum trades tracking against effort
cost = QuadraticTrackingCost(H=np.diag([10.0, 1.0]), target=np.array([0.0, 1.0]))
zeta = optimal_steady_state(proj, cost)
print(f"\ncost: 0.5 (y - 1)^2 + 5 u^2")
print(f"best equilibrium: {np.round(zeta, 6)}  (analytic answer: (1/7, 2/7))")
print(f"residual S zeta: {np.linalg.norm(proj.S @ zeta):.2e}")
