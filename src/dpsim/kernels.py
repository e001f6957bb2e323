"""Hot-path numerics of the Gaussian basis on a Cartesian grid.

Evaluating the network (thousands of nodes, four times per integration step)
dominates simulation runtime.  The grid shares one width, so the basis
factorises over the input dimensions:
``g(Z) = c * e_1 (x) e_2 (x) ... (x) e_m`` with
``e_d = exp(-(z_d - a_d)^2 / (2 h^2))`` over the p nodes ``a_d`` of axis d.
That takes m*p ``exp`` calls instead of p^m.

The basis is a Kronecker product of two factors, split between the first
``m // 2`` axes (``left``, L = p^(m//2) values, with ``c`` folded in) and the
rest (``right``, R = p^(m - m//2) values): ``g = outer(left, right).ravel()``
in the grid's lexicographic node order (first dimension slowest).  A network
kernel keeps the two factors of a basis in one (L + R)-vector and never forms
the l = L R basis values: with ``theta`` viewed as (3L, R),
``theta_i . g = left . (Theta_i right)``, and the dot product of two bases is
``(left_j . left_s) (right_j . right_s)``.

The weight update is integrated in the span of the weights and the basis
vectors of the steps since the weights were last formed (see
``dpsim.simulate``); :func:`fold` forms the weights from those coordinates
every few steps.
"""

from __future__ import annotations

import numpy as np


def left_size(nodes) -> int:
    """L, the number of values of the left factor of the (m, p) grid ``nodes``."""
    return nodes.shape[1] ** (nodes.shape[0] // 2)


def factor_index(nodes) -> np.ndarray:
    """Gather index of both factors: an (m//2 + 1, L + R) array of positions.

    Entry d*p + k of the gathered vector is the value of node k on axis d;
    entry m*p is the coefficient c and entry m*p + 1 is 1.  Column j < L
    lists the entries whose product is ``left[j]`` (its m//2 axis values,
    then c), column L + j those of ``right[j]`` (padded with the 1 when m is
    even).
    """
    m, p = nodes.shape
    half = m // 2

    def block(axes, pad):
        n = len(axes)
        rows = np.full((half + 1, p ** n), pad)
        rows[:n] = axes[:, None] * p + np.indices((p,) * n).reshape(n, p ** n)
        return rows

    return np.hstack([block(np.arange(half), m * p), block(np.arange(half, m), m * p + 1)])


def factors_into(nodes, inv_two_h2, coef, index, z, out):
    """Both factors of the basis at ``z`` written into ``out`` (``left``, then ``right``)."""
    values = np.empty(nodes.size + 2)
    values[-2] = coef
    values[-1] = 1.0
    np.exp(-np.square(z[:, None] - nodes) * inv_two_h2, out=values[:-2].reshape(nodes.shape))
    return np.multiply.reduce(values.take(index), axis=0, out=out)


def basis_from_factors(nodes, factors, out):
    """The p^m basis values ``outer(left, right)`` written into the contiguous ``out``."""
    left = left_size(nodes)
    np.multiply.outer(factors[:left], factors[left:], out=out.reshape(left, -1))
    return out


def adaptive_core(nodes, inv_two_h2, coef, index, z, theta, out):
    """Per-axis network outputs ``theta_i . g`` at ``z``, with no basis vector.

    Fills ``out`` with the factors of the basis at ``z`` and returns
    ``left . (Theta_i right)`` for the three rows of the (3, l) ``theta``.
    """
    factors_into(nodes, inv_two_h2, coef, index, z, out)
    left = left_size(nodes)
    return (theta.reshape(-1, out.shape[0] - left) @ out[left:]).reshape(3, left) @ out[:left]


def gram_row(nodes, factors, f):
    """Dot products ``g_j . g`` of the bases with factor rows ``factors`` and factors ``f``."""
    left = left_size(nodes)
    return (factors[:, :left] @ f[:left]) * (factors[:, left:] @ f[left:])


def fold(nodes, theta, x, factors, out):
    """``theta_i <- x_i0 theta_i + sum_s x_is g_s`` in place, for the bases of ``factors``.

    ``x`` is (3, 1 + n) for the n factor rows.  The sum is one (3L x n) @ (n x R)
    product, written into ``out`` (shaped like ``theta``) and then added.
    """
    left = left_size(nodes)
    theta *= x[:, :1]
    scaled = (factors[:, :left].T * x[:, None, 1:]).reshape(-1, factors.shape[0])
    np.matmul(scaled, factors[:, left:], out=out.reshape(scaled.shape[0], -1))
    theta += out
    return theta
