"""Reference right-hand sides for the dense joint-RK4 oracle tests."""

import numpy as np


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
