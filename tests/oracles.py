"""Reference right-hand sides for the dense joint-RK4 oracle tests."""

import numpy as np

from dpsim.approximators import AdaptiveWeights, gaussian_basis
from dpsim.controllers import backstep_control, compute_alpha1
from dpsim.vessel import plant_derivative, rk4_step


def weight_derivative(gains, basis_vec, z2, theta) -> np.ndarray:
    """Weight update ``gamma_i (drive z2_i g + leak sigma_i theta_i)`` of the gains' law.

    The engine integrates this law on a 3 x 5 coefficient state; the oracles
    integrate all 3 l weights with it as ordinary RK4 state.
    """
    drive, leak = gains.law_signs
    basis_vec = np.asarray(basis_vec, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    return gains.gamma[:, None] * (drive * (z2[:, None] * basis_vec[None, :])
                                   + leak * (gains.sigma[:, None] * theta))


def joint_rk4_states(plant, gains, network, weights0, load, *, eta0, nu0, eta_d, dt, steps):
    """The (steps + 1, 6 + 3 l) states of the adaptive loop with all weights as RK4 state."""
    n = network.node_count

    def deriv(y):
        eta, nu, theta = y[:3], y[3:6], y[6:].reshape(3, n)
        z1 = eta - eta_d
        alpha1 = compute_alpha1(gains.K1, eta[2], z1)
        z2 = nu - alpha1
        g = gaussian_basis(network, np.concatenate([eta, nu, alpha1]))
        tau = backstep_control(gains, eta[2], z1, z2, g, AdaptiveWeights(theta))
        eta_dot, nu_dot = plant_derivative(eta, nu, plant, tau, load)
        return np.concatenate([eta_dot, nu_dot, weight_derivative(gains, g, z2, theta).ravel()])

    states = [np.concatenate([eta0, nu0, weights0.theta.ravel()])]
    for _ in range(steps):
        states.append(rk4_step(states[-1], dt, deriv))
    return np.array(states)
