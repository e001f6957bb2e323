"""Station-keeping controllers and stability diagnostics.

Two controller families:

* :class:`PidController` -- baseline PID on the body-frame pose error
  (earth-frame variant selectable), trapezoidal integral, derivative from
  measured velocity; evaluated in floats with one stacked-gain product.
* adaptive backstepping with a radial-basis network -- virtual velocity
  command ``alpha1 = -R^T K1 z1``, control law
  ``tau = -R^T z1 - K2 z2 + theta_hat . g(Z)``, and a leaky gradient update
  of the per-axis weights; :func:`backstep_law` is the same law in floats.
Both laws take the heading error as the smallest signed angle, ``ssa``, and
both clamp their output through :func:`saturate`, a float clamp.

The weight update default (``law="stable"``) is
``theta_dot_i = -Gamma_i (g z2_i + sigma_i theta_i)``, the unique sign
combination whose weight-error cross term cancels in the dissipation
analysis (see the ultimate-bound diagnostics below).  ``law="unstable"``
flips the overall sign, which turns the leak into exponential weight growth;
it is kept selectable for side-by-side demonstration of why the sign matters.
``dpsim.simulate.simulate_adaptive`` is the update's only integrator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from dpsim.approximators import AdaptiveWeights
from dpsim.vessel import rotation_matrix, ssa, yaw_cos_sin, yaw_rate_skew

ADAPTATION_LAWS = ("stable", "unstable")
PID_FRAMES = ("body", "earth")


class InvalidGainError(ValueError):
    """Gain set violates a precondition of the requested computation."""


def as_gain_matrix(value, name: str = "gain") -> np.ndarray:
    """Normalize a scalar, 3-vector (diagonal), or 3x3 array to a 3x3 matrix."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.eye(3) * float(arr)
    elif arr.shape == (3,):
        arr = np.diag(arr)
    if arr.shape != (3, 3) or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be a finite scalar, 3-vector, or 3x3 matrix")
    return arr


def _require_spd(mat, name):
    if not np.allclose(mat, mat.T, rtol=1e-12, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(mat).min() <= 0:
        raise ValueError(f"{name} must be positive definite")


@dataclass
class PidGains:
    Kp: np.ndarray
    Ki: np.ndarray
    Kd: np.ndarray

    def __post_init__(self):
        self.Kp = as_gain_matrix(self.Kp, "Kp")
        self.Ki = as_gain_matrix(self.Ki, "Ki")
        self.Kd = as_gain_matrix(self.Kd, "Kd")


class PidController:
    """PID on the pose error, with trapezoidal integral accumulation.

    ``frame="body"`` (default) rotates the position error into the body frame
    and takes the yaw error directly, since thrust acts along body axes; the
    derivative term then uses -nu.  ``frame="earth"`` works on eta_d - eta
    with derivative -R nu.  ``frame`` is the scenario's ``error_frame``.
    ``reset``, which the run calls at its start, zeroes ``integral`` (three
    floats) and stacks the gains as ``[Kp Ki Kd]`` for one product per call.
    ``control`` unpacks eta, nu and eta_d, any sequences of three numbers, in
    floats; the gain product stays one numpy product, whose sums round
    differently from a float loop's.
    """

    def __init__(self, gains: PidGains, frame: str = "body"):
        if frame not in PID_FRAMES:
            raise ValueError(f"error_frame must be one of {list(PID_FRAMES)}, got {frame!r}")
        self.gains = gains
        self.frame = frame
        self.reset()

    def reset(self):
        self.integral = (0.0, 0.0, 0.0)
        self._prev_error = None
        self._stacked = np.hstack([self.gains.Kp, self.gains.Ki, self.gains.Kd])

    def _error(self, eta, eta_d):
        """The pose error as three floats, and the yaw's (cos, sin)."""
        (x, y, psi), (xd, yd, psid) = eta, eta_d
        dx, dy = xd - x, yd - y
        c, s = yaw_cos_sin(psi)
        dpsi = ssa(psid - psi)
        if self.frame == "earth":
            return (dx, dy, dpsi), c, s
        return (c * dx + s * dy, c * dy - s * dx, dpsi), c, s

    def error(self, eta, eta_d) -> np.ndarray:
        return np.array(self._error(eta, eta_d)[0])

    def control(self, eta, nu, eta_d, dt: float) -> np.ndarray:
        """Control force/moment for the current sample; advances the integral."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        err, c, s = self._error(eta, eta_d)
        if self._prev_error is not None:
            (i0, i1, i2), (p0, p1, p2), (e0, e1, e2) = self.integral, self._prev_error, err
            half = 0.5 * dt
            self.integral = (i0 + half * (p0 + e0), i1 + half * (p1 + e1),
                             i2 + half * (p2 + e2))
        self._prev_error = err
        u, v, r = nu
        if self.frame == "earth":
            rate = (-(c * u - s * v), -(s * u + c * v), -r)
        else:
            rate = (-u, -v, -r)
        return self._stacked @ np.array((*err, *self.integral, *rate))


@dataclass
class BackstepGains:
    """Gains of the adaptive backstepping controller.

    ``gamma`` holds the per-axis adaptation gains as a 3-vector (a scalar
    broadcasts): axis i adapts with ``Gamma_i = gamma_i * I``.  ``sigma`` are
    the per-axis leak rates, all positive.  ``law`` is the scenario's
    ``adaptation_law``.  ``node_count`` records the network size the
    gains are meant for; the gains themselves do not depend on it.  K1 and K2
    must be symmetric positive definite; K2 > I/2 is required by the
    dissipation analysis and is warned about if violated.
    """

    K1: np.ndarray
    K2: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    law: str = "stable"
    node_count: int = field(default=1)

    def __post_init__(self):
        self.K1 = as_gain_matrix(self.K1, "K1")
        self.K2 = as_gain_matrix(self.K2, "K2")
        _require_spd(self.K1, "K1")
        _require_spd(self.K2, "K2")
        self.sigma = np.asarray(self.sigma, dtype=float) * np.ones(3)
        if not (self.sigma > 0).all():
            raise ValueError("sigma entries must be positive")
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.shape not in ((), (3,)):
            raise ValueError("gamma must be a scalar or a per-axis 3-vector")
        if not (gamma > 0).all():
            raise ValueError("gamma entries must be positive")
        self.gamma = gamma * np.ones(3)
        if self.law not in ADAPTATION_LAWS:
            raise ValueError(f"adaptation_law must be one of {list(ADAPTATION_LAWS)}, "
                             f"got {self.law!r}")
        if np.linalg.eigvalsh(self.K2).min() <= 0.5:
            # stacklevel 3 skips the dataclass __init__ to name the caller
            warnings.warn("K2 <= I/2: the closed-loop dissipation bound does not apply",
                          stacklevel=3)

    @property
    def law_sign(self) -> float:
        """Sign of both the drive and the leak of the weight update: -1 for the stable law."""
        return -1.0 if self.law == "stable" else 1.0

    def rk4_damps_leak(self, dt) -> np.ndarray:
        """Per axis, whether classical RK4 at step ``dt`` damps the stable law's leak.

        With ``z = -gamma sigma dt`` one step multiplies leak-only weights by
        ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``, which is positive for real z.
        So ``|R(z)| < 1`` iff ``(R(z) - 1) / z = 1 + z/2 + z^2/6 + z^3/24 > 0``,
        that is iff ``gamma sigma dt`` is below about 2.785.
        """
        z = -self.gamma * self.sigma * dt
        return 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0 > 0.0


@dataclass(frozen=True)
class SaturationLimits:
    """Componentwise actuator bounds; +inf disables an axis."""

    tau_max: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tau_max, dtype=float) * np.ones(3)
        if not (t > 0).all():
            raise ValueError("tau_max entries must be positive (or +inf)")
        object.__setattr__(self, "tau_max", t)


def saturate(tau, limits: SaturationLimits | None) -> tuple:
    """Three floats clamped componentwise to [-tau_max, tau_max]; unchanged when disabled.

    A nan passes through, since ``max(nan, -m)`` is nan.
    """
    if limits is None:
        return tuple(tau)
    (t0, t1, t2), (m0, m1, m2) = tau, limits.tau_max.tolist()
    return min(max(t0, -m0), m0), min(max(t1, -m1), m1), min(max(t2, -m2), m2)


def compute_alpha1(k1, psi: float, z1) -> np.ndarray:
    """Virtual velocity command -R(psi)^T K1 z1."""
    return -(rotation_matrix(psi).T @ (np.asarray(k1) @ np.asarray(z1, dtype=float)))


def compute_alpha1_dot(k1, psi: float, r: float, z1, nu) -> np.ndarray:
    """Analytic time derivative of the virtual command for a fixed target.

    Uses d/dt R = R S(r) and z1_dot = R nu.
    """
    R = rotation_matrix(psi)
    k1 = np.asarray(k1)
    term_rot = -(R @ yaw_rate_skew(r)).T @ (k1 @ np.asarray(z1, dtype=float))
    term_vel = -R.T @ (k1 @ (R @ np.asarray(nu, dtype=float)))
    return term_rot + term_vel


@dataclass(frozen=True)
class ErrorState:
    """Backstepping error coordinates at one instant."""

    z1: np.ndarray
    z2: np.ndarray
    alpha1: np.ndarray
    alpha1_dot: np.ndarray


def pose_error(eta, eta_d) -> np.ndarray:
    """z1 = eta - eta_d with the heading error taken as the smallest signed angle."""
    z1 = np.asarray(eta, dtype=float) - np.asarray(eta_d, dtype=float)
    z1[2] = ssa(float(z1[2]))
    return z1


def error_state(eta, nu, eta_d, k1) -> ErrorState:
    eta = np.asarray(eta, dtype=float)
    nu = np.asarray(nu, dtype=float)
    z1 = pose_error(eta, eta_d)
    alpha1 = compute_alpha1(k1, eta[2], z1)
    z2 = nu - alpha1
    alpha1_dot = compute_alpha1_dot(k1, eta[2], nu[2], z1, nu)
    return ErrorState(z1, z2, alpha1, alpha1_dot)


def backstep_control(gains: BackstepGains, psi: float, z1, z2, basis_vec,
                     weights: AdaptiveWeights) -> np.ndarray:
    """Control law -R^T z1 - K2 z2 + network output."""
    basis_vec = np.asarray(basis_vec, dtype=float)
    if weights.theta.shape[1] != basis_vec.shape[0]:
        raise ValueError(
            f"basis has {basis_vec.shape[0]} nodes, weights have {weights.theta.shape[1]}")
    nn = weights.theta @ basis_vec
    return -(rotation_matrix(psi).T @ np.asarray(z1, dtype=float)) \
        - gains.K2 @ np.asarray(z2, dtype=float) + nn


def backstep_law(gains: BackstepGains, eta_d, limits: SaturationLimits | None):
    """The law in floats, gains unpacked once: ``errors(state, c, s)`` and ``torque``.

    ``errors`` reads pose and velocity from ``state[:6]`` and the yaw's cosine
    and sine and returns the triples z1, alpha1 and z2; ``torque(z1, z2, nn,
    c, s)`` returns ``-R^T z1 - K2 z2 + nn`` clamped by :func:`saturate`:
    :func:`compute_alpha1` and :func:`backstep_control` written out product by
    product.
    """
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = gains.K1.tolist()
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = gains.K2.tolist()
    xd, yd, psid = np.asarray(eta_d, dtype=float).tolist()

    def errors(state, c, s):
        x, y, psi, u, v, r = state[:6]
        e0, e1, e2 = x - xd, y - yd, ssa(psi - psid)
        w0 = k00 * e0 + k01 * e1 + k02 * e2
        w1 = k10 * e0 + k11 * e1 + k12 * e2
        w2 = k20 * e0 + k21 * e1 + k22 * e2
        a0, a1, a2 = -(c * w0 + s * w1), -(c * w1 - s * w0), -w2
        return (e0, e1, e2), (a0, a1, a2), (u - a0, v - a1, r - a2)

    def torque(z1, z2, nn, c, s):
        (e0, e1, e2), (q0, q1, q2) = z1, z2
        return saturate((-(c * e0 + s * e1) - (q00 * q0 + q01 * q1 + q02 * q2) + nn[0],
                         -(c * e1 - s * e0) - (q10 * q0 + q11 * q1 + q12 * q2) + nn[1],
                         -e2 - (q20 * q0 + q21 * q1 + q22 * q2) + nn[2]), limits)

    return errors, torque


@dataclass(frozen=True)
class LyapunovTrace:
    """Energy-style diagnostics; ``partial`` marks a missing weight-error term."""

    v1: float
    v2a: float
    partial: bool


def lyapunov_eval(eta, nu, eta_d, params, k1=None, weights: AdaptiveWeights | None = None,
                  gamma=None, theta_star=None) -> LyapunovTrace:
    """Evaluate 0.5 z1'z1 and its velocity/weight extensions.

    With ``k1`` the velocity error is taken against the virtual command;
    otherwise z2 = nu.  The weight-error term needs a reference ``theta_star``
    (a (3, l) array) and the adaptation gains ``gamma``, a scalar or per-axis
    3-vector like ``BackstepGains.gamma``; without one the result is flagged
    partial.
    """
    eta = np.asarray(eta, dtype=float)
    nu = np.asarray(nu, dtype=float)
    z1 = pose_error(eta, eta_d)
    alpha1 = compute_alpha1(k1, eta[2], z1) if k1 is not None else np.zeros(3)
    z2 = nu - alpha1
    v1 = 0.5 * float(z1 @ z1)
    v2 = v1 + 0.5 * float(z2 @ (params.M @ z2))
    if theta_star is not None and weights is not None and gamma is not None:
        err = weights.theta - np.asarray(theta_star, dtype=float)
        gamma = np.asarray(gamma, dtype=float).reshape(-1, 1) * np.ones_like(err)
        v2a = v2 + 0.5 * float((err * err / gamma).sum())
        return LyapunovTrace(v1, v2a, partial=False)
    return LyapunovTrace(v1, v2, partial=True)


def dissipation_params(k1, k2, m, sigma, approx_error_bound, weight_norm_bound,
                       beta: float = np.inf):
    """Decay rate and offset (phi, c) of the closed-loop dissipation bound.

    phi = min(2 lambda_min(K1), 2 lambda_min((K2 - I/2) M^-1), beta) with the
    matrix-pencil eigenvalue taken in the M metric; beta is the caller's
    assumed floor from the weight-error term (+inf leaves it inactive).
    c = 0.5 |E*|^2 + sum_i sigma_i theta_max_i^2 / 2 from the user-supplied
    approximation-error and ideal-weight-norm bounds.
    """
    k1 = as_gain_matrix(k1, "K1")
    k2 = as_gain_matrix(k2, "K2")
    m = np.asarray(m, dtype=float)
    shifted = k2 - 0.5 * np.eye(3)
    if np.linalg.eigvalsh(0.5 * (shifted + shifted.T)).min() <= 0:
        raise InvalidGainError("K2 - I/2 must be positive definite for the bound to hold")
    lam_k1 = 2.0 * np.linalg.eigvalsh(0.5 * (k1 + k1.T)).min()
    # pencil (A, M) reduced with M = L L^T: same eigenvalues as L^-1 A L^-T
    chol = np.linalg.cholesky(m)
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, 0.5 * (shifted + shifted.T)).T)
    lam_k2 = 2.0 * np.linalg.eigvalsh(reduced).min()
    phi = min(lam_k1, lam_k2, float(beta))
    e_star = np.atleast_1d(np.asarray(approx_error_bound, dtype=float))
    theta_max = np.asarray(weight_norm_bound, dtype=float) * np.ones(3)
    sigma = np.asarray(sigma, dtype=float) * np.ones(3)
    c = 0.5 * float(e_star @ e_star) + float((sigma * theta_max ** 2).sum()) / 2.0
    return phi, c


def ultimate_bound(k1, k2, m, sigma, approx_error_bound, weight_norm_bound,
                   v2a0: float, t, beta: float = np.inf):
    """Transient bound sqrt(2c/phi + 2 (V(0) - c/phi) e^(-phi t)) on |z1|."""
    phi, c = dissipation_params(k1, k2, m, sigma, approx_error_bound,
                                weight_norm_bound, beta)
    t = np.asarray(t, dtype=float)
    inner = 2.0 * c / phi + 2.0 * (v2a0 - c / phi) * np.exp(-phi * t)
    return np.sqrt(np.maximum(inner, 0.0))


def weighted_l2_norm(samples, decay: float, horizon: float) -> float:
    """Exponentially discounted L2 norm of a uniformly sampled signal.

    ``samples`` covers [0, horizon] with shape (n,) or (n, k); computes
    sqrt(integral of e^(-decay (horizon - s)) |x(s)|^2 ds) by the trapezoid
    rule.  decay = 0 reduces to the plain L2 norm over the window.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample series")
    if x.ndim == 1:
        sq = x * x
    else:
        sq = (x * x).sum(axis=1)
    if sq.shape[0] < 2:
        raise ValueError("need at least two samples to integrate")
    if decay < 0:
        raise ValueError("decay must be non-negative")
    tgrid = np.linspace(0.0, float(horizon), sq.shape[0])
    weights = np.exp(-decay * (horizon - tgrid))
    return float(np.sqrt(np.trapezoid(weights * sq, tgrid)))
