"""Reference formulas: the network's factors and output, and the dense joint-RK4 runs."""

import numpy as np

from dpsim import kernels
from dpsim.approximators import AdaptiveWeights, gaussian_basis
from dpsim.controllers import backstep_control, compute_alpha1
from dpsim.vessel import plant_derivative, rk4_step


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
