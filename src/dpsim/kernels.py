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

A run's stages share one :class:`Workspace`: the input column, the
exponent, gather and product buffers, and the (3L, R) view of the weights,
which are read in place.  So :func:`adaptive_core` allocates only its three
outputs.

The weight update is integrated in the span of the weights and the basis
vectors of the steps since the weights were last formed (see
``dpsim.simulate``); :func:`fold` forms the weights from those coordinates
every few steps.
"""

from __future__ import annotations

import numpy as np


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


class Workspace:
    """The basis layout of a grid network, and one run's buffers for it.

    The layout is built here, once, from the (m, p) ``nodes`` and the width:
    the gather ``index`` (:func:`factor_index`), ``c``, the exponent scale
    ``-1/(2 h^2)``, ``left`` = L and ``size`` = L + R, the length of a
    factor vector.  The buffers let a stage allocate only its result.  The
    caller writes the network input into ``z``, a view of the (m, 1) column
    the exponents are taken against.  ``values`` holds the m*p axis values
    followed by ``c`` and 1, which are set once; ``gathered`` is the
    (m//2 + 1, L + R) gather of ``values`` by ``index``.  ``theta``, when
    given, is the (3, l) weight array, read in place; the workspace keeps its
    (3L, R) view and the 3L-vector its products go to.  :func:`fold` writes
    ``theta`` in place, so it must then be C-contiguous.
    """

    def __init__(self, nodes, width, theta=None):
        m, p = nodes.shape
        self.nodes = nodes
        self.index = factor_index(nodes)
        self.left = p ** (m // 2)
        self.size = self.index.shape[1]
        self.column = np.empty((m, 1))
        self.z = self.column[:, 0]
        self.exponent_scale = -(1.0 / (2.0 * width ** 2))
        self.exponent = np.empty((m, p))
        self.values = np.empty(m * p + 2)
        self.values[-2] = 1.0 / (np.sqrt(2.0 * np.pi) * width)     # c
        self.values[-1] = 1.0
        self.axis_values = self.values[:-2].reshape(m, p)
        self.gathered = np.empty(self.index.shape)
        self.theta = theta
        if theta is not None:
            self.theta_rows = theta.reshape(-1, self.size - self.left)
            self.product = np.empty(self.theta_rows.shape[0])
            self.product_rows = self.product.reshape(3, self.left)

    def factors(self, f):
        """Both factors of the basis at ``z`` written into ``f`` (``left``, then ``right``)."""
        e = self.exponent
        np.subtract(self.column, self.nodes, out=e)
        np.square(e, out=e)
        np.multiply(e, self.exponent_scale, out=e)     # the bits of -(square * 1/(2 h^2))
        np.exp(e, out=self.axis_values)
        self.values.take(self.index, out=self.gathered)
        return np.multiply.reduce(self.gathered, axis=0, out=f)

    def basis(self, f):
        """The p^m basis values ``outer(left, right).ravel()`` of the factors ``f``."""
        return np.multiply.outer(f[:self.left], f[self.left:]).ravel()


def adaptive_core(work, f):
    """Per-axis network outputs ``theta_i . g`` at ``work.z``, with no basis vector.

    Fills ``f`` with the factors of the basis and returns ``left . (Theta_i
    right)`` for the three rows of the workspace's ``theta``.
    """
    work.factors(f)
    left = work.left
    np.matmul(work.theta_rows, f[left:], out=work.product)
    return work.product_rows @ f[:left]


def gram_row(work, factors, f):
    """Dot products ``g_j . g`` of the bases with factor rows ``factors`` and factors ``f``."""
    left = work.left
    return (factors[:, :left] @ f[:left]) * (factors[:, left:] @ f[left:])


def fold(work, x, factors, out):
    """``theta_i <- x_i0 theta_i + sum_s x_is g_s`` in place, for the bases of ``factors``.

    ``theta`` is the workspace's and ``x`` is (3, 1 + n) for the n factor
    rows.  The sum is one (3L x n) @ (n x R) product, written into ``out``
    (shaped like ``theta``) and then added.
    """
    left, theta = work.left, work.theta
    theta *= x[:, :1]
    scaled = (factors[:, :left].T * x[:, None, 1:]).reshape(-1, factors.shape[0])
    np.matmul(scaled, factors[:, left:], out=out.reshape(scaled.shape[0], -1))
    theta += out
    return theta
