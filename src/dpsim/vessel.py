"""3-DOF vessel plant: parameters, rotation, angles; ``simulate`` integrates it.

Conventions: earth-frame pose ``eta = [x, y, psi]`` (m, m, rad) and body-frame
velocity ``nu = [u, v, r]`` (surge m/s, sway m/s, yaw rate rad/s).  Yaw is kept
unwrapped so error dynamics stay continuous; :func:`wrap_angle` maps to
(-pi, pi] for reporting and :func:`ssa` the laws' heading error
(:func:`ssa_array` for a trace's column of them).  All SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SingularInertiaError(ValueError):
    """Inertia matrix is not invertible (malformed plant parameters)."""


def wrap_angle(psi):
    """Map an angle (scalar or array) to (-pi, pi]."""
    return -((-np.asarray(psi) + np.pi) % (2.0 * np.pi) - np.pi)


def ssa(angle: float) -> float:
    """Smallest signed angle (Fossen 2011): ``angle`` in (-pi, pi], unchanged if inside."""
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = -((math.pi - angle) % (2.0 * math.pi) - math.pi)
    return math.pi if wrapped == -math.pi else wrapped   # the remainder may round to 2 pi


def ssa_array(angle: np.ndarray) -> np.ndarray:
    """:func:`ssa` of each element, bit for bit; writes over ``angle`` and returns it.

    Elements inside (-pi, pi] are left as they are.  The others take the
    scalar's operations in its order; numpy's float remainder, like
    Python's, takes the sign of the divisor, so the two round alike.
    """
    outside = ~((-math.pi < angle) & (angle <= math.pi))
    if outside.any():
        with np.errstate(invalid="ignore"):     # +-inf % 2 pi is nan, as for floats
            wrapped = -((math.pi - angle[outside]) % (2.0 * math.pi) - math.pi)
        wrapped[wrapped == -math.pi] = math.pi
        angle[outside] = wrapped
    return angle


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
