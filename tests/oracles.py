"""Reference formulas in numpy: the law, the plant, classical RK4, the network's
factors and output, and the dense joint-RK4 runs.

The engine (``dpsim.simulate._closed_loop`` with ``controllers.backstep_law``)
writes the same law and plant out in floats; these are its independent
references, and no run calls them.
"""

import numpy as np

from dpsim import kernels
from dpsim.approximators import gaussian_basis
from dpsim.vessel import rotation_matrix, ssa


def yaw_rate_skew(r: float) -> np.ndarray:
    """Angular-rate generator S(r) with d/dt R(psi) = R(psi) S(r)."""
    return np.array([[0.0, -r, 0.0], [r, 0.0, 0.0], [0.0, 0.0, 0.0]])


def pose_error(eta, eta_d) -> np.ndarray:
    """z1 = eta - eta_d with the heading error taken as the smallest signed angle."""
    z1 = np.asarray(eta, dtype=float) - np.asarray(eta_d, dtype=float)
    z1[2] = ssa(float(z1[2]))
    return z1


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


def backstep_control(gains, psi: float, z1, z2, basis_vec, theta) -> np.ndarray:
    """Control law -R^T z1 - K2 z2 + theta g, with ``theta`` the (3, l) weights."""
    nn = np.asarray(theta, dtype=float) @ np.asarray(basis_vec, dtype=float)
    return -(rotation_matrix(psi).T @ np.asarray(z1, dtype=float)) \
        - gains.K2 @ np.asarray(z2, dtype=float) + nn


def plant_derivative(eta, nu, params, tau, delta):
    """Continuous-time plant: eta_dot = R(psi) nu, nu_dot = M^-1 (tau + delta - D nu).

    ``delta`` is the body-frame environmental load. Returns (eta_dot, nu_dot).
    """
    eta_dot = rotation_matrix(eta[2]) @ nu
    nu_dot = params.M_inv @ (tau + delta - params.D @ nu)
    return eta_dot, nu_dot


def rk4_step(y: np.ndarray, dt: float, deriv) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of ``y' = deriv(y)``."""
    k1 = deriv(y)
    k2 = deriv(y + 0.5 * dt * k1)
    k3 = deriv(y + 0.5 * dt * k2)
    k4 = deriv(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def basis_factors(net, z) -> np.ndarray:
    """Both factors of the basis at ``z``, ``left`` then ``right``, by allocating numpy calls.

    ``kernels.Workspace.factors`` must give these bits: it runs the same
    operations into its own buffers.
    """
    nodes, h = net.nodes, net.width
    values = np.empty(nodes.size + 2)
    values[-2] = 1.0 / (np.sqrt(2.0 * np.pi) * h)
    values[-1] = 1.0
    np.exp(-np.square(np.asarray(z, dtype=float)[:, None] - nodes) * (1.0 / (2.0 * h ** 2)),
           out=values[:-2].reshape(nodes.shape))
    return np.multiply.reduce(values.take(kernels.factor_index(nodes)), axis=0)


def factored_output(net, theta, f) -> np.ndarray:
    """``left . (Theta_i right)`` for the three rows of ``theta`` and the factors ``f``.

    ``kernels.adaptive_core`` must give these bits.
    """
    m, p = net.nodes.shape
    left = p ** (m // 2)
    return (theta.reshape(-1, f.shape[0] - left) @ f[left:]).reshape(3, left) @ f[:left]


def weight_derivative(gains, basis_vec, z2, theta) -> np.ndarray:
    """Weight update ``gamma_i (s z2_i g + s sigma_i theta_i)``, ``s = gains.law_sign``.

    The engine integrates this law on a 3 x 5 coefficient state; the oracles
    integrate all 3 l weights with it as ordinary RK4 state.
    """
    sign = gains.law_sign
    basis_vec = np.asarray(basis_vec, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    return gains.gamma[:, None] * (sign * (z2[:, None] * basis_vec[None, :])
                                   + sign * (gains.sigma[:, None] * theta))


def joint_rk4_states(plant, gains, network, weights0, load, *, eta0, nu0, eta_d, dt, steps,
                     adapt=True):
    """The (steps + 1, 6 + 3 l) states of the adaptive loop with all weights as RK4 state.

    ``load`` is read through ``body_load(cos psi, sin psi)`` at the start of
    each step, held over its stages and advanced by ``step(dt)`` after it.
    ``adapt=False`` gives the weights a zero derivative: the frozen-weight loop.
    """
    n = network.node_count

    def deriv(y, delta):
        eta, nu, theta = y[:3], y[3:6], y[6:].reshape(3, n)
        z1 = pose_error(eta, eta_d)
        alpha1 = compute_alpha1(gains.K1, eta[2], z1)
        z2 = nu - alpha1
        g = gaussian_basis(network, np.concatenate([eta, nu, alpha1]))
        tau = backstep_control(gains, eta[2], z1, z2, g, theta)
        eta_dot, nu_dot = plant_derivative(eta, nu, plant, tau, delta)
        theta_dot = weight_derivative(gains, g, z2, theta) if adapt else np.zeros_like(theta)
        return np.concatenate([eta_dot, nu_dot, theta_dot.ravel()])

    states = [np.concatenate([eta0, nu0, weights0.theta.ravel()])]
    for _ in range(steps):
        y = states[-1]
        delta = np.array(load.body_load(np.cos(y[2]), np.sin(y[2])))
        states.append(rk4_step(y, dt, lambda v: deriv(v, delta)))
        load.step(dt)
    return np.array(states)
