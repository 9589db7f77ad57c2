"""Closed-loop tracking of a shifting optimum under sensor noise.

The controller never sees the plant model or the upcoming cost: each step
it receives the previous measurement and the previous cost, and still
converges to each new optimal equilibrium. A constant sensor offset is
estimated exactly along the way.
"""

import numpy as np

from ddcontrol import (Controller, ControllerConfig, PlantModel,
                       QuadraticTrackingCost, collect_offline_data,
                       optimal_steady_state, step)

plant = PlantModel([[0.5]], [[1.0]], [[1.0]])
data = collect_offline_data(plant, N=60, seed=3)

config = ControllerConfig(gamma=0.3, mu=2, n=1, q_mode="identity")
ctrl = Controller(config, data)

costs = {
    0: QuadraticTrackingCost(H=np.diag([2.0, 1.0]), target=np.array([0.0, 1.0])),
    120: QuadraticTrackingCost(H=np.diag([2.0, 1.0]), target=np.array([0.0, -2.0])),
}

sensor_offset = np.array([0.25])
x = np.array([1.5])                      # plant starts away from rest

# warmup: the controller only listens for the first n steps
meas = np.empty((1, 1))
for k in range(1):
    x, _, meas[k] = step(plant, x, np.zeros(1), e=sensor_offset)
ctrl.start(meas)

active = costs[0]
prev_meas, revealed = None, None
print(" t     u_t      y_t    target   noise-estimate error")
for t in range(241):
    if t in costs:
        active = costs[t]
    u = ctrl.step(y_meas=prev_meas, prev_cost=revealed)
    x, y, y_meas = step(plant, x, u, e=sensor_offset)
    revealed = active
    prev_meas = y_meas
    if t % 30 == 0 or t in (119, 121):
        e_err = abs(ctrl.noise_estimate(y_meas)[0] - sensor_offset[0])
        target = active.target[1]
        print(f"{t:3d}  {u[0]:7.4f}  {y[0]:7.4f}  {target:7.4f}  {e_err:.2e}")

for start, cost in costs.items():
    zeta = optimal_steady_state(ctrl.projector, cost)
    print(f"\noptimal equilibrium from t={start}: "
          f"u = {zeta[0]:.4f}, y = {zeta[1]:.4f}")
print(f"final loop state:               u = {u[0]:.4f}, y = {y[0]:.4f}")
