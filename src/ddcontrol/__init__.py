"""Data-driven online control of unknown linear systems.

A single persistently exciting input-output record of a discrete-time
linear system is enough to parameterize every trajectory the system can
produce. This package uses that fact to control such a system under
noisy output feedback and a priori unknown time-varying convex costs:
per step it predicts forward through the recorded data, takes one
projected gradient step toward the currently optimal equilibrium, and
synthesizes the input that steers there, all without ever identifying a
model.
"""

from .behavioral import (Trajectory, block_rows, build_hankel, build_hankel_set,
                         membership_residual, persistency_check)
from .controller import (Controller, ControllerConfig, ControllerState,
                         Precomputed, advance, estimate_noise, initialize,
                         precompute, predict_and_descend, solve_alpha,
                         solve_beta)
from .costs import (CostFunction, CostSegment, QuadraticScheduledCost,
                    QuadraticSoftplusCost, QuadraticTrackingCost,
                    hvac_cost_schedule)
from .errors import FeasibilityError, NonConvergenceError, PersistencyError
from .harness import (ConfigError, ControllerSpec, CostSpec, ExperimentConfig,
                      NoiseSpec, OfflineSpec, PlantSpec, cli_main,
                      demo_siso_config, run_experiment, shipped_config_path)
from .metrics import (RunRecord, path_length, regret, steps_to_converge,
                      summarize)
from .plant import (NoiseModel, PlantModel, ThermalZoneParams, build_hvac,
                    collect_offline_data, simulate, step)
from .steady_state import (SteadyStateProjector, build_projector,
                           optimal_steady_state, project)

__version__ = "0.1.0"
