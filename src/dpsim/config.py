"""Scenario configuration: strict JSON schema, defaults, and the run's builder.

Angles cross the config boundary in degrees (pose yaw, target yaw, initial
yaw rate in deg/s) and are stored in radians.  Unknown keys are rejected so
typos fail loudly.  An empty config yields the full default benchmark
scenario: the supply-vessel plant below, the adaptive backstepping
controller with its benchmark gains, and the constant disturbance.

This module checks the JSON shape and types and the rules of the run as a
whole: the time grid, its step and memory ceilings, finite poses, and an
adaptation gain whose weight leak RK4 can integrate at that step.  Every
other value is checked by the object that uses it: ``parse_scenario`` calls
:func:`build_components`, the same function ``run_simulation`` builds its
run with (keeping no grid network), and reports a constructor's
``ValueError`` as a ``ConfigError`` on the scenario key.  So a scenario that
validates also builds.
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from dpsim.approximators import (DEFAULT_INPUT_RANGES, GRID_NODE_CEILING, RbfNetwork,
                                 grid_nodes)
from dpsim.controllers import (BackstepGains, PidController, PidGains,
                               SaturationLimits)
from dpsim.disturbance import ConstantDisturbance, MarkovBias
from dpsim.traces import TRACE_COLUMNS
from dpsim.vessel import VesselParams

DEFAULT_M = np.diag([5.3122e6, 8.2831e6, 3.7454e9])
DEFAULT_D = np.array([
    [5.0242e4, 0.0, 0.0],
    [0.0, 2.7229e5, -4.3933e6],
    [0.0, -4.3933e6, 4.1894e8],
])

DEFAULT_K1 = np.diag([0.037, 0.063, 0.832])
DEFAULT_K2 = np.diag([5.0e4, 6.0e4, 5.4e4])
DEFAULT_GAMMA = (0.1, 0.1, 0.1)
DEFAULT_SIGMA = (2.13, 2.13, 0.302)

DEFAULT_KP = np.diag([3000.0, 9000.0, 1.0e8])
DEFAULT_KI = np.diag([5.0, 50.0, 30.0])
DEFAULT_KD = np.diag([5.0e4, 7.0e4, 300.0])

DEFAULT_CONSTANT_DELTA = (1000.0, 2000.0, 1500.0)
DEFAULT_TIME_CONSTANTS = (1000.0, 1000.0, 1000.0)
DEFAULT_NOISE_SCALE = (1000.0, 1000.0, 1000.0)
DEFAULT_DISTURBANCE_SEED = 2
DEFAULT_WEIGHT_SEED = 1

# A scenario whose largest buffers would exceed 1 GiB is rejected before
# anything is allocated.  The simulator logs every step as one row of
# len(TRACE_COLUMNS) doubles (144 B) in a single (steps + 1)-row buffer, and
# an adaptive run holds nine doubles per grid node: the weights (3 rows),
# their initial copy (3 rows) and the product of the weight fold (3 rows).
# The stages of the steps between two folds keep only the two factors of
# their basis vectors, p^4 + p^5 values each.  The node ceiling below still
# counts ten doubles per node, which leaves headroom.
MEMORY_BUDGET_BYTES = 2 ** 30
MAX_STEPS = MEMORY_BUDGET_BYTES // (8 * len(TRACE_COLUMNS)) - 1
MAX_NODES = MEMORY_BUDGET_BYTES // (8 * 10)

CONTROLLER_TYPES = ("adaptive-nn", "pid", "nn-fixed")
DISTURBANCE_TYPES = ("constant", "markov")


class ConfigError(ValueError):
    """Scenario file failed to parse or violates an invariant."""


@dataclass
class ScenarioConfig:
    """Fully validated scenario; all angles in radians, all units SI."""

    m_matrix: np.ndarray = field(default_factory=lambda: DEFAULT_M.copy())
    d_matrix: np.ndarray = field(default_factory=lambda: DEFAULT_D.copy())

    controller_type: str = "adaptive-nn"
    k1: np.ndarray = field(default_factory=lambda: DEFAULT_K1.copy())
    k2: np.ndarray = field(default_factory=lambda: DEFAULT_K2.copy())
    gamma: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_GAMMA))
    sigma: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_SIGMA))
    adaptation_law: str = "stable"
    tau_max: np.ndarray | None = None
    kp: np.ndarray = field(default_factory=lambda: DEFAULT_KP.copy())
    ki: np.ndarray = field(default_factory=lambda: DEFAULT_KI.copy())
    kd: np.ndarray = field(default_factory=lambda: DEFAULT_KD.copy())
    pid_frame: str = "body"

    disturbance_type: str = "constant"
    constant_delta: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_CONSTANT_DELTA))
    time_constants: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_TIME_CONSTANTS))
    noise_scale: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_NOISE_SCALE))
    disturbance_seed: int = DEFAULT_DISTURBANCE_SEED
    initial_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    points_per_dim: int = 3
    rbf_ranges: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_INPUT_RANGES))
    rbf_width: float = 1.0
    weight_seed: int = DEFAULT_WEIGHT_SEED
    node_ceiling: int = GRID_NODE_CEILING

    dt: float = 0.1
    duration: float = 400.0
    decimation: int = 1
    initial_pose: np.ndarray = field(
        default_factory=lambda: np.array([10.0, 10.0, math.radians(10.0)]))
    initial_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    target_pose: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def steps(self) -> int:
        return int(round(self.duration / self.dt))

    def meta(self) -> dict:
        """Header metadata embedded in trace files."""
        return {
            "controller": self.controller_type,
            "disturbance": self.disturbance_type,
            "dt": f"{self.dt:.9g}",
            "duration": f"{self.duration:.9g}",
            "decimation": str(self.decimation),
            "weight_seed": str(self.weight_seed),
            "disturbance_seed": str(self.disturbance_seed),
            "adaptation_law": self.adaptation_law,
            "grid_points_per_dim": str(self.points_per_dim),
            # round-trip precision: metrics_from_trace recomputes from this target
            "target_pose_rad": " ".join(f"{v:.17g}" for v in self.target_pose),
        }


def _expect_mapping(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return obj


def _reject_unknown(section: dict, allowed, where):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def _num(value, where, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        v = float(value)
    except OverflowError:       # an integer beyond the double range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite")
    if positive and v <= 0:
        raise ConfigError(f"{where} must be positive")
    return v


def _vec3(value, where):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where} must be a list of 3 numbers")
    return np.array([_num(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _scalar_or_vec3(value, where):
    """A 3-vector, or a scalar broadcast to all three axes."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return np.full(3, _num(value, where))
    return _vec3(value, where)


def _matrix3(value, where):
    """Accept a 3x3 row-major matrix or a 3-entry diagonal shorthand."""
    if isinstance(value, (list, tuple)) and len(value) == 3 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return np.diag(_vec3(value, where))
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where} must be a 3x3 matrix or a 3-entry diagonal")
    return np.stack([_vec3(row, f"{where}[{i}]") for i, row in enumerate(value)])


def _choice(value, where, options):
    if value not in options:
        raise ConfigError(f"{where} must be one of {list(options)}, got {value!r}")
    return value


def _int(value, where, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where} must be <= {maximum}")
    return value


def _pose(value, where):
    """[x, y, yaw] (or their rates) with the yaw in degrees, stored in radians."""
    pose = _vec3(value, where)
    return np.array([pose[0], pose[1], math.radians(pose[2])])


def _ranges(value, where):
    if not isinstance(value, (list, tuple)) or len(value) != 9:
        raise ConfigError(f"{where} must list 9 [lo, hi] pairs")
    parsed = []
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{where}[{i}] must be a [lo, hi] pair")
        parsed.append((_num(pair[0], f"{where}[{i}][0]"), _num(pair[1], f"{where}[{i}][1]")))
    return np.array(parsed)


def _as_is(value, where):
    """A value that only its component can check (a law or frame name)."""
    return value


# section -> key -> (ScenarioConfig field, parser(value, where)); a key is
# parsed in this order when present
_SCHEMA = {
    "plant": {"M": ("m_matrix", _matrix3), "D": ("d_matrix", _matrix3)},
    "controller": {
        "type": ("controller_type", partial(_choice, options=CONTROLLER_TYPES)),
        "K1": ("k1", _matrix3), "K2": ("k2", _matrix3),
        "gamma": ("gamma", _scalar_or_vec3), "sigma": ("sigma", _vec3),
        "adaptation_law": ("adaptation_law", _as_is),
        "tau_max": ("tau_max", lambda v, where: None if v is None
                    else _scalar_or_vec3(v, where)),
        "Kp": ("kp", _matrix3), "Ki": ("ki", _matrix3), "Kd": ("kd", _matrix3),
        "error_frame": ("pid_frame", _as_is),
    },
    "disturbance": {
        "type": ("disturbance_type", partial(_choice, options=DISTURBANCE_TYPES)),
        "delta": ("constant_delta", _vec3), "time_constants": ("time_constants", _vec3),
        "noise_scale": ("noise_scale", _vec3), "seed": ("disturbance_seed", _int),
        "initial_bias": ("initial_bias", _vec3),
    },
    "rbf": {
        "points_per_dim": ("points_per_dim", _int), "ranges": ("rbf_ranges", _ranges),
        "width": ("rbf_width", _num),
        "weight_seed": ("weight_seed", partial(_int, minimum=0)),
        "node_ceiling": ("node_ceiling", partial(_int, minimum=1, maximum=MAX_NODES)),
    },
    "simulation": {
        "dt": ("dt", partial(_num, positive=True)),
        "duration": ("duration", partial(_num, positive=True)),
        "decimation": ("decimation", partial(_int, minimum=1)),
        "initial_pose": ("initial_pose", _pose),
        "initial_velocity": ("initial_velocity", _pose),
        "target_pose": ("target_pose", _pose),
    },
}


def parse_scenario(raw: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON object."""
    raw = _expect_mapping(raw, "scenario")
    _reject_unknown(raw, _SCHEMA, "scenario")
    cfg = ScenarioConfig()
    for name, keys in _SCHEMA.items():
        section = _expect_mapping(raw.get(name, {}), name)
        _reject_unknown(section, keys, name)
        for key, (attr, parse) in keys.items():
            if key in section:
                setattr(cfg, attr, parse(section[key], f"{name}.{key}"))
    _validate(cfg)
    _check_weight_leak(cfg, build_components(cfg, network=False).gains)
    return cfg


def _validate(cfg: ScenarioConfig):
    """The rules of the run as a whole; each component checks its own values."""
    if cfg.duration < cfg.dt:
        raise ConfigError("simulation.duration must be at least one dt")
    steps = cfg.duration / cfg.dt
    if steps > MAX_STEPS:
        raise ConfigError(
            f"simulation.duration / simulation.dt = {steps:.6g} steps exceeds the "
            f"{MAX_STEPS} steps whose trace rows fit in {MEMORY_BUDGET_BYTES} bytes")
    if abs(steps - round(steps)) > 1e-6:
        raise ConfigError("simulation.duration must be an integer number of dt steps")
    if int(round(steps)) % cfg.decimation != 0:
        raise ConfigError("simulation.decimation must divide the step count")
    for name, arr in (("initial_pose", cfg.initial_pose),
                      ("initial_velocity", cfg.initial_velocity),
                      ("target_pose", cfg.target_pose)):
        if not np.isfinite(arr).all():
            raise ConfigError(f"simulation.{name} must be finite")


def _check_weight_leak(cfg: ScenarioConfig, gains: BackstepGains):
    """A rule of the run as a whole: RK4 at dt must damp the stable law's leak.

    Beyond the limit the weights grow every step and the run aborts after
    seconds of run time.  A config changed after parsing runs as given.
    """
    if cfg.controller_type != "adaptive-nn" or gains.law != "stable":
        return
    damped = gains.rk4_damps_leak(cfg.dt)
    if not damped.all():
        axis = ("surge", "sway", "yaw")[int(np.argmin(damped))]
        raise ConfigError(
            f"controller.gamma: gamma * sigma * simulation.dt reaches the RK4 limit of "
            f"about 2.785 in {axis}, where the stable law's weight leak grows each step; "
            f"lower gamma or simulation.dt")


@dataclass(frozen=True)
class Components:
    """The objects one run is built from; ``network`` is None for PID."""

    plant: VesselParams
    disturbance: ConstantDisturbance | MarkovBias
    limits: SaturationLimits | None
    pid: PidController
    gains: BackstepGains
    network: RbfNetwork | None


@contextmanager
def _section(name):
    """Report a constructor's ValueError, which names the key, under its section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def build_components(cfg: ScenarioConfig, network: bool = True) -> Components:
    """Construct the run's plant, controllers, limits, disturbance and network.

    The plant, both controllers, the limits and the Markov bias are built for
    every scenario, so their values are always checked; only the backstepping
    controllers warn about a weak K2.  The grid network is built for
    ``adaptive-nn`` and ``nn-fixed`` if ``network``; otherwise (validation,
    which leaves the grid to the run) the rbf section is only checked, by the
    grid's two parts ``grid_nodes`` and ``RbfNetwork``.  PID uses no grid, so
    its section is checked on at most 2 points per dimension with no ceiling.
    """
    uses_grid = cfg.controller_type != "pid"
    with _section("plant"):
        plant = VesselParams(cfg.m_matrix, cfg.d_matrix)
    # only for PID: leaving catch_warnings resets the once-per-location record
    with _section("controller"), nullcontext() if uses_grid else warnings.catch_warnings():
        if not uses_grid:
            warnings.simplefilter("ignore")
        gains = BackstepGains(cfg.k1, cfg.k2, cfg.gamma, cfg.sigma, law=cfg.adaptation_law)
        limits = None if cfg.tau_max is None else SaturationLimits(cfg.tau_max)
        pid = PidController(PidGains(cfg.kp, cfg.ki, cfg.kd), cfg.pid_frame)
    with _section("disturbance"):
        markov = MarkovBias(cfg.time_constants, cfg.noise_scale, cfg.disturbance_seed,
                            cfg.initial_bias)
        disturbance = (markov if cfg.disturbance_type == "markov"
                       else ConstantDisturbance(cfg.constant_delta))
    with _section("rbf"):
        points, ceiling = ((cfg.points_per_dim, cfg.node_ceiling) if uses_grid
                           else (min(cfg.points_per_dim, 2), math.inf))
        if uses_grid and network:
            net = RbfNetwork.grid(cfg.rbf_ranges, points, cfg.rbf_width, ceiling)
        else:
            net = None
            RbfNetwork(grid_nodes(cfg.rbf_ranges, points, ceiling), cfg.rbf_width)
    return Components(plant, disturbance, limits, pid, gains, net)


def read_scenario(path):
    """The parsed JSON object of a scenario file, not yet validated; blank is {}."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    if not text.strip():
        return {}
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:     # an integer too long, nesting too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a JSON scenario file."""
    return parse_scenario(read_scenario(path))


def default_scenario() -> ScenarioConfig:
    return parse_scenario({})
