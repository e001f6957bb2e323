"""3-DOF vessel plant: rotation kinematics, rigid-body dynamics, RK4 stepping.

Conventions: earth-frame pose ``eta = [x, y, psi]`` (m, m, rad) and body-frame
velocity ``nu = [u, v, r]`` (surge m/s, sway m/s, yaw rate rad/s).  Yaw is kept
unwrapped so error dynamics stay continuous; :func:`wrap_angle` maps to
(-pi, pi] for reporting and :func:`ssa` the laws' heading error.  All SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SingularInertiaError(ValueError):
    """Inertia matrix is not invertible (malformed plant parameters)."""


class NonFiniteStateError(FloatingPointError):
    """An integration step produced NaN/Inf state (simulation blow-up)."""


def wrap_angle(psi):
    """Map an angle (scalar or array) to (-pi, pi]."""
    return -((-np.asarray(psi) + np.pi) % (2.0 * np.pi) - np.pi)


def ssa(angle: float) -> float:
    """Smallest signed angle (Fossen 2011): ``angle`` in (-pi, pi], unchanged if inside."""
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = -((math.pi - angle) % (2.0 * math.pi) - math.pi)
    return math.pi if wrapped == -math.pi else wrapped   # the remainder may round to 2 pi


@dataclass(frozen=True)
class Pose:
    """Earth-frame position and heading; ``psi`` stored unwrapped, radians."""

    x: float
    y: float
    psi: float

    def __post_init__(self):
        if not np.isfinite([self.x, self.y, self.psi]).all():
            raise ValueError("pose fields must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi])

    def wrapped_yaw(self) -> float:
        return float(wrap_angle(self.psi))


@dataclass(frozen=True)
class BodyVelocity:
    """Body-frame velocity: surge u (m/s), sway v (m/s), yaw rate r (rad/s)."""

    u: float
    v: float
    r: float

    def __post_init__(self):
        if not np.isfinite([self.u, self.v, self.r]).all():
            raise ValueError("velocity fields must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.r])


def _check_structural_zeros(mat, name):
    # surge is decoupled from sway/yaw in both the inertia and damping matrices
    for i, j in ((0, 1), (0, 2), (1, 0), (2, 0)):
        if mat[i, j] != 0.0:
            raise ValueError(f"{name}[{i}][{j}] must be 0 (surge decouples from sway/yaw)")


@dataclass(frozen=True)
class VesselParams:
    """Inertia (incl. added mass) and linear damping matrices, both 3x3."""

    M: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        M = np.array(self.M, dtype=float)
        D = np.array(self.D, dtype=float)
        if M.shape != (3, 3) or D.shape != (3, 3):
            raise ValueError("M and D must be 3x3")
        if not (np.isfinite(M).all() and np.isfinite(D).all()):
            raise ValueError("M and D must be finite")
        _check_structural_zeros(M, "M")
        _check_structural_zeros(D, "D")
        try:
            M_inv = np.linalg.inv(M)
        except np.linalg.LinAlgError as exc:
            raise SingularInertiaError("M is singular") from exc
        if not np.isfinite(M_inv).all():
            raise SingularInertiaError("M is numerically singular")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "M_inv", M_inv)


def yaw_cos_sin(psi: float):
    """``(cos psi, sin psi)`` as floats; nan for a non-finite yaw, as ``np.cos`` gives."""
    try:
        return math.cos(psi), math.sin(psi)
    except ValueError:  # math.cos raises for +-inf
        return math.nan, math.nan


def rotation_matrix(psi: float) -> np.ndarray:
    """Body-to-earth rotation about the vertical axis; orthogonal, det = 1."""
    c, s = yaw_cos_sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def yaw_rate_skew(r: float) -> np.ndarray:
    """Angular-rate generator S(r) with d/dt R(psi) = R(psi) S(r)."""
    return np.array([[0.0, -r, 0.0], [r, 0.0, 0.0], [0.0, 0.0, 0.0]])


def rotation_rate_matrix(psi: float, r: float) -> np.ndarray:
    """Time derivative of the rotation matrix along yaw rate r."""
    return rotation_matrix(psi) @ yaw_rate_skew(r)


def plant_derivative(eta, nu, params: VesselParams, tau, delta):
    """Continuous-time plant: eta_dot = R(psi) nu, nu_dot = M^-1 (tau + delta - D nu).

    ``delta`` is the body-frame environmental load. Returns (eta_dot, nu_dot).
    """
    R = rotation_matrix(eta[2])
    eta_dot = R @ nu
    nu_dot = params.M_inv @ (tau + delta - params.D @ nu)
    return eta_dot, nu_dot


def rk4_step(y: np.ndarray, dt: float, deriv) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step on a flat state array.

    ``deriv(y) -> dy/dt`` must be evaluable at the intermediate states; any
    exogenous inputs (control, disturbance) are held constant across the
    sub-stages by the caller.  Raises :class:`NonFiniteStateError` if the
    update produces NaN/Inf.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = deriv(y)
    k2 = deriv(y + 0.5 * dt * k1)
    k3 = deriv(y + 0.5 * dt * k2)
    k4 = deriv(y + dt * k3)
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise NonFiniteStateError("RK4 step produced a non-finite state")
    return out
