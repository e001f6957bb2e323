"""Station-keeping workbench: 3-DOF vessel plant, adaptive RBF backstepping
and PID controllers, environmental disturbance models, and a scenario-driven
simulation harness with CSV trace output."""

# set before the submodules are imported: the trace header reads it
__version__ = "0.1.0"

from dpsim.anfis import AnfisModel, DegenerateFiringError, anfis_forward, anfis_layers
from dpsim.approximators import (AdaptiveWeights, GridCapacityError, RbfNetwork,
                                 build_grid_centers, gaussian_basis, rbf_output)
from dpsim.config import ConfigError, ScenarioConfig, default_scenario, load_scenario
from dpsim.controllers import (BackstepGains, ErrorState, InvalidGainError,
                               LyapunovTrace, PidController, PidGains,
                               SaturationLimits, adapt_weights, backstep_control,
                               compute_alpha1, compute_alpha1_dot, dissipation_params,
                               error_state, lyapunov_eval, saturate, ultimate_bound,
                               weight_derivative, weighted_l2_norm)
from dpsim.disturbance import ConstantDisturbance, MarkovBias
from dpsim.simulate import (RunMetrics, SimulationAbort, compare_runs,
                            metrics_from_trace, run_simulation, simulate_adaptive,
                            simulate_pid)
from dpsim.traces import RunTrace, read_trace_csv, write_trace_csv
from dpsim.vessel import (NonFiniteStateError, SingularInertiaError, VesselParams,
                          plant_derivative, rk4_step, rotation_matrix, ssa, wrap_angle,
                          yaw_rate_skew)

