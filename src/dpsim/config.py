"""Scenario configuration: strict JSON schema, defaults, validation.

Angles cross the config boundary in degrees (pose yaw, target yaw, initial
yaw rate in deg/s) and are stored in radians.  Unknown keys are rejected so
typos fail loudly.  An empty config yields the full default benchmark
scenario: the supply-vessel plant below, the adaptive backstepping
controller with its benchmark gains, and the constant disturbance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from dpsim.approximators import DEFAULT_INPUT_RANGES, GRID_NODE_CEILING
from dpsim.traces import TRACE_COLUMNS

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

DEFAULT_INITIAL_POSE_DEG = (10.0, 10.0, 10.0)
DEFAULT_TARGET_POSE_DEG = (0.0, 0.0, 0.0)

# The simulator logs every step as one row of len(TRACE_COLUMNS) doubles
# (144 B) in a single (steps + 1)-row buffer; a scenario whose buffer would
# exceed 1 GiB is rejected before anything is allocated.
MAX_ROW_BUFFER_BYTES = 2 ** 30
MAX_STEPS = MAX_ROW_BUFFER_BYTES // (8 * len(TRACE_COLUMNS)) - 1

CONTROLLER_TYPES = ("adaptive-nn", "pid", "nn-fixed")
DISTURBANCE_TYPES = ("constant", "markov")
ADAPTATION_LAW_NAMES = ("stable", "unstable")
PID_FRAMES = ("body", "earth")


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


def _num(value, where, positive=False, nonneg=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite")
    if positive and v <= 0:
        raise ConfigError(f"{where} must be positive")
    if nonneg and v < 0:
        raise ConfigError(f"{where} must be non-negative")
    return v


def _vec3(value, where, scale=None):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where} must be a list of 3 numbers")
    out = np.array([_num(v, f"{where}[{i}]") for i, v in enumerate(value)])
    if scale is not None:
        out = out * scale
    return out


def _matrix3(value, where):
    """Accept a 3x3 row-major matrix or a 3-entry diagonal shorthand."""
    if isinstance(value, (list, tuple)) and len(value) == 3 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return np.diag(_vec3(value, where))
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where} must be a 3x3 matrix or a 3-entry diagonal")
    rows = []
    for i, row in enumerate(value):
        rows.append(_vec3(row, f"{where}[{i}]"))
    return np.stack(rows)


def _choice(value, options, where):
    if value not in options:
        raise ConfigError(f"{where} must be one of {list(options)}, got {value!r}")
    return value


def _int(value, where, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return value


def parse_scenario(raw: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON object."""
    raw = _expect_mapping(raw, "scenario")
    _reject_unknown(raw, ("plant", "controller", "disturbance", "simulation", "rbf"),
                    "scenario")
    cfg = ScenarioConfig()

    plant = _expect_mapping(raw.get("plant", {}), "plant")
    _reject_unknown(plant, ("M", "D"), "plant")
    if "M" in plant:
        cfg.m_matrix = _matrix3(plant["M"], "plant.M")
    if "D" in plant:
        cfg.d_matrix = _matrix3(plant["D"], "plant.D")

    ctrl = _expect_mapping(raw.get("controller", {}), "controller")
    _reject_unknown(ctrl, ("type", "K1", "K2", "gamma", "sigma", "adaptation_law",
                           "tau_max", "Kp", "Ki", "Kd", "error_frame"), "controller")
    if "type" in ctrl:
        cfg.controller_type = _choice(ctrl["type"], CONTROLLER_TYPES, "controller.type")
    if "K1" in ctrl:
        cfg.k1 = _matrix3(ctrl["K1"], "controller.K1")
    if "K2" in ctrl:
        cfg.k2 = _matrix3(ctrl["K2"], "controller.K2")
    if "gamma" in ctrl:
        g = ctrl["gamma"]
        if isinstance(g, (int, float)) and not isinstance(g, bool):
            cfg.gamma = np.full(3, _num(g, "controller.gamma", positive=True))
        else:
            cfg.gamma = _vec3(g, "controller.gamma")
        if not (cfg.gamma > 0).all():
            raise ConfigError("controller.gamma entries must be positive")
    if "sigma" in ctrl:
        cfg.sigma = _vec3(ctrl["sigma"], "controller.sigma")
        if not (cfg.sigma > 0).all():
            raise ConfigError("controller.sigma entries must be positive")
    if "adaptation_law" in ctrl:
        cfg.adaptation_law = _choice(ctrl["adaptation_law"], ADAPTATION_LAW_NAMES,
                                     "controller.adaptation_law")
    if "tau_max" in ctrl:
        if ctrl["tau_max"] is None:
            cfg.tau_max = None
        else:
            t = ctrl["tau_max"]
            if isinstance(t, (int, float)) and not isinstance(t, bool):
                cfg.tau_max = np.full(3, _num(t, "controller.tau_max", positive=True))
            else:
                cfg.tau_max = _vec3(t, "controller.tau_max")
                if not (cfg.tau_max > 0).all():
                    raise ConfigError("controller.tau_max entries must be positive")
    if "Kp" in ctrl:
        cfg.kp = _matrix3(ctrl["Kp"], "controller.Kp")
    if "Ki" in ctrl:
        cfg.ki = _matrix3(ctrl["Ki"], "controller.Ki")
    if "Kd" in ctrl:
        cfg.kd = _matrix3(ctrl["Kd"], "controller.Kd")
    if "error_frame" in ctrl:
        cfg.pid_frame = _choice(ctrl["error_frame"], PID_FRAMES, "controller.error_frame")

    dist = _expect_mapping(raw.get("disturbance", {}), "disturbance")
    _reject_unknown(dist, ("type", "delta", "time_constants", "noise_scale", "seed",
                           "initial_bias"), "disturbance")
    if "type" in dist:
        cfg.disturbance_type = _choice(dist["type"], DISTURBANCE_TYPES, "disturbance.type")
    if "delta" in dist:
        cfg.constant_delta = _vec3(dist["delta"], "disturbance.delta")
    if "time_constants" in dist:
        cfg.time_constants = _vec3(dist["time_constants"], "disturbance.time_constants")
        if not (cfg.time_constants > 0).all():
            raise ConfigError("disturbance.time_constants must be positive")
    if "noise_scale" in dist:
        cfg.noise_scale = _vec3(dist["noise_scale"], "disturbance.noise_scale")
        if not (cfg.noise_scale >= 0).all():
            raise ConfigError("disturbance.noise_scale must be non-negative")
    if "seed" in dist:
        cfg.disturbance_seed = _int(dist["seed"], "disturbance.seed", minimum=0)
    if "initial_bias" in dist:
        cfg.initial_bias = _vec3(dist["initial_bias"], "disturbance.initial_bias")

    rbf = _expect_mapping(raw.get("rbf", {}), "rbf")
    _reject_unknown(rbf, ("points_per_dim", "ranges", "width", "weight_seed",
                          "node_ceiling"), "rbf")
    if "points_per_dim" in rbf:
        cfg.points_per_dim = _int(rbf["points_per_dim"], "rbf.points_per_dim", minimum=2)
    if "ranges" in rbf:
        ranges = rbf["ranges"]
        if not isinstance(ranges, (list, tuple)) or len(ranges) != 9:
            raise ConfigError("rbf.ranges must list 9 [lo, hi] pairs")
        parsed = []
        for i, pair in enumerate(ranges):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"rbf.ranges[{i}] must be a [lo, hi] pair")
            lo = _num(pair[0], f"rbf.ranges[{i}][0]")
            hi = _num(pair[1], f"rbf.ranges[{i}][1]")
            if not lo < hi:
                raise ConfigError(f"rbf.ranges[{i}] must have lo < hi")
            parsed.append((lo, hi))
        cfg.rbf_ranges = np.array(parsed)
    if "width" in rbf:
        cfg.rbf_width = _num(rbf["width"], "rbf.width", positive=True)
    if "weight_seed" in rbf:
        cfg.weight_seed = _int(rbf["weight_seed"], "rbf.weight_seed", minimum=0)
    if "node_ceiling" in rbf:
        cfg.node_ceiling = _int(rbf["node_ceiling"], "rbf.node_ceiling", minimum=1)

    sim = _expect_mapping(raw.get("simulation", {}), "simulation")
    _reject_unknown(sim, ("dt", "duration", "decimation", "initial_pose",
                          "initial_velocity", "target_pose"), "simulation")
    if "dt" in sim:
        cfg.dt = _num(sim["dt"], "simulation.dt", positive=True)
    if "duration" in sim:
        cfg.duration = _num(sim["duration"], "simulation.duration", positive=True)
    if "decimation" in sim:
        cfg.decimation = _int(sim["decimation"], "simulation.decimation", minimum=1)
    if "initial_pose" in sim:
        pose = _vec3(sim["initial_pose"], "simulation.initial_pose")
        cfg.initial_pose = np.array([pose[0], pose[1], math.radians(pose[2])])
    if "initial_velocity" in sim:
        vel = _vec3(sim["initial_velocity"], "simulation.initial_velocity")
        cfg.initial_velocity = np.array([vel[0], vel[1], math.radians(vel[2])])
    if "target_pose" in sim:
        pose = _vec3(sim["target_pose"], "simulation.target_pose")
        cfg.target_pose = np.array([pose[0], pose[1], math.radians(pose[2])])

    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig):
    from dpsim.vessel import SingularInertiaError, VesselParams

    try:
        VesselParams(cfg.m_matrix, cfg.d_matrix)
    except (ValueError, SingularInertiaError) as exc:
        raise ConfigError(f"plant: {exc}") from exc
    if cfg.duration < cfg.dt:
        raise ConfigError("simulation.duration must be at least one dt")
    steps = cfg.duration / cfg.dt
    if steps > MAX_STEPS:
        raise ConfigError(
            f"simulation.duration / simulation.dt = {steps:.6g} steps exceeds the "
            f"{MAX_STEPS} steps whose trace rows fit in {MAX_ROW_BUFFER_BYTES} bytes")
    if abs(steps - round(steps)) > 1e-6:
        raise ConfigError("simulation.duration must be an integer number of dt steps")
    if int(round(steps)) % cfg.decimation != 0:
        raise ConfigError("simulation.decimation must divide the step count")
    for name, arr in (("initial_pose", cfg.initial_pose),
                      ("initial_velocity", cfg.initial_velocity),
                      ("target_pose", cfg.target_pose)):
        if not np.isfinite(arr).all():
            raise ConfigError(f"simulation.{name} must be finite")
    if cfg.controller_type in ("adaptive-nn", "nn-fixed"):
        count = cfg.points_per_dim ** len(cfg.rbf_ranges)
        if count > cfg.node_ceiling:
            raise ConfigError(
                f"rbf grid {cfg.points_per_dim}^{len(cfg.rbf_ranges)} = {count} "
                f"exceeds node ceiling {cfg.node_ceiling}")
        for name, mat in (("K1", cfg.k1), ("K2", cfg.k2)):
            if not np.allclose(mat, mat.T, rtol=1e-12, atol=1e-9):
                raise ConfigError(f"controller.{name} must be symmetric")
            if np.linalg.eigvalsh(mat).min() <= 0:
                raise ConfigError(f"controller.{name} must be positive definite")


def read_scenario(path):
    """The parsed JSON object of a scenario file, not yet validated; blank is {}."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    if not text.strip():
        raw = {}
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    return raw


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a JSON scenario file."""
    return parse_scenario(read_scenario(path))


def default_scenario() -> ScenarioConfig:
    return parse_scenario({})
