"""Hot-path numerics of the Gaussian basis on a Cartesian grid.

Evaluating the basis (thousands of nodes, four times per integration step)
dominates simulation runtime.  The grid shares one width, so the basis
factorises over the input dimensions:
``g(Z) = c * e_1 (x) e_2 (x) ... (x) e_m`` with
``e_d = exp(-(z_d - a_d)^2 / (2 h^2))`` over the p nodes ``a_d`` of axis d.
That takes m*p ``exp`` calls instead of p^m, and the outer products keep the
lexicographic node order of the grid (first dimension slowest).
"""

from __future__ import annotations

import numpy as np


def basis_into(nodes, inv_two_h2, coef, z, out):
    """Gaussian basis values for one input point, written into ``out``.

    ``nodes`` is the (m, p) array of per-dimension grid coordinates and
    ``out`` a contiguous vector of p^m values.  The outer products run from
    the last axis inward, so each one sweeps the long vector contiguously.
    """
    factors = np.exp(-np.square(z[:, None] - nodes) * inv_two_h2)
    tail = np.ones(1)
    for e in factors[:0:-1]:
        tail = np.multiply.outer(e, tail).ravel()
    np.multiply.outer(factors[0] * coef, tail, out=out.reshape(-1, tail.shape[0]))
    return out


def adaptive_core(nodes, inv_two_h2, coef, z, theta, z2, gamma, sigma,
                  drive, leak, g_out, theta_dot_out):
    """Fused basis + per-axis network output + weight derivative.

    Returns the 3-vector of per-axis network outputs ``theta_i . g``; fills
    ``g_out`` with the basis vector and, unless ``theta_dot_out`` is None,
    ``theta_dot_out`` with ``gamma * (drive * g * z2_i + leak * sigma_i * theta_i)``
    per axis.
    """
    basis_into(nodes, inv_two_h2, coef, z, g_out)
    nn = theta @ g_out
    if theta_dot_out is not None:
        # in place, with the rounding of gamma * (drive * (z2 g) + leak * (sigma theta))
        np.multiply(sigma[:, None], theta, out=theta_dot_out)
        theta_dot_out *= leak
        drive_term = np.multiply.outer(z2, g_out)
        drive_term *= drive
        theta_dot_out += drive_term
        theta_dot_out *= gamma
    return nn
