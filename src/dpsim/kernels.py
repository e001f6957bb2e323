"""Hot-path numerics of the Gaussian basis on a Cartesian grid.

Evaluating the basis (thousands of nodes, four times per integration step)
dominates simulation runtime.  The grid shares one width, so the basis
factorises over the input dimensions:
``g(Z) = c * e_1 (x) e_2 (x) ... (x) e_m`` with
``e_d = exp(-(z_d - a_d)^2 / (2 h^2))`` over the p nodes ``a_d`` of axis d.
That takes m*p ``exp`` calls instead of p^m, and the outer products keep the
lexicographic node order of the grid (first dimension slowest).

The weight update is not computed here: the simulator integrates it in the
span of the weights and the step's basis vectors (see ``dpsim.simulate``).
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


def adaptive_core(nodes, inv_two_h2, coef, z, theta, g_out):
    """Fused basis + per-axis network output.

    Fills ``g_out`` with the basis vector at ``z`` and returns the 3-vector
    of per-axis outputs ``theta_i . g``.
    """
    basis_into(nodes, inv_two_h2, coef, z, g_out)
    return theta @ g_out
