"""Gaussian radial-basis network with grid-placed centers.

The network input is the 9-vector ``Z = [eta, nu, alpha1]`` (pose, body
velocity, virtual velocity command).  Basis functions are normalized
Gaussians ``g_j(Z) = exp(-|Z - k_j|^2 / (2 h^2)) / (sqrt(2 pi) h)`` with one
width h shared by all nodes; the leading 1/(sqrt(2 pi) h) factor is an
invertible rescaling absorbed by the weights and is kept for fidelity with
the normalized-Gaussian form.  One basis vector is shared by the three
controlled axes; each axis has its own weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpsim import kernels, traces
from dpsim.disturbance import check_seed

GRID_NODE_CEILING = 1_000_000

# Default grid ranges for the 9 network inputs, laid out as
# [x, y, psi, u, v, r, alpha1_u, alpha1_v, alpha1_r].  The last slot (the
# yaw-rate channel of the virtual control) has no benchmark-sourced range;
# [-0.2, 0.2] covers the commanded yaw rates seen in the default scenarios.
DEFAULT_INPUT_RANGES = (
    (-2.0, 10.0),
    (0.0, 10.0),
    (-0.05, 0.2),
    (-0.35, 0.05),
    (-0.012, 0.004),
    (-0.5, 0.2),
    (-0.7, 0.0),
    (-0.14, 0.04),
    (-0.2, 0.2),
)


class GridCapacityError(ValueError):
    """Requested grid would exceed the configured node ceiling."""


def grid_nodes(ranges, points_per_dim: int, ceiling: int = GRID_NODE_CEILING) -> np.ndarray:
    """Equally spaced points per dimension, endpoints included, as an (m, p) array."""
    ranges = np.asarray(ranges, dtype=float)
    if ranges.ndim != 2 or ranges.shape[1] != 2:
        raise ValueError("ranges must be a sequence of (lo, hi) pairs")
    if points_per_dim < 2:
        raise ValueError("points_per_dim must be at least 2")
    for i, (lo, hi) in enumerate(ranges):
        if not lo < hi:
            raise ValueError(f"ranges[{i}] = [{lo}, {hi}] must have lo < hi")
        if not np.isfinite(float(hi) - float(lo)):
            raise ValueError(f"ranges[{i}] = [{lo}, {hi}] must span a finite width")
    n_dims = len(ranges)
    if points_per_dim > ceiling:
        # over it in any dimension; its power may be too long to print
        raise GridCapacityError(f"points_per_dim is over the node ceiling {ceiling}")
    count = points_per_dim ** n_dims
    if count > ceiling:
        raise GridCapacityError(
            f"points_per_dim gives {points_per_dim}^{n_dims} = {count} nodes, "
            f"over the node ceiling {ceiling}")
    return np.linspace(ranges[:, 0], ranges[:, 1], points_per_dim, axis=1)


@dataclass(frozen=True)
class RbfNetwork:
    """Immutable basis on a Cartesian grid: per-dimension nodes (m, p), one width.

    The centers are the p^m grid points, rows ordered lexicographically
    (first dimension slowest), which fixes the node-to-weight-index mapping;
    they are derived on demand, not stored.  The layout of the basis's two
    factors belongs to ``kernels.Workspace`` (see :meth:`workspace`).
    """

    nodes: np.ndarray
    width: float

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.size == 0:
            raise ValueError("nodes must be a non-empty (m, p) matrix")
        if not np.isfinite(nodes).all():
            raise ValueError("nodes must be finite")
        if np.ndim(self.width) != 0 or not 0 < float(self.width) < np.inf:
            raise ValueError("width must be a positive finite scalar")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "width", float(self.width))

    @property
    def node_count(self) -> int:
        return self.nodes.shape[1] ** self.nodes.shape[0]

    @property
    def input_dim(self) -> int:
        return self.nodes.shape[0]

    @property
    def centers(self) -> np.ndarray:
        """The (l, m) grid points, one row per node."""
        mesh = np.meshgrid(*self.nodes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(self.node_count, self.input_dim)

    @classmethod
    def grid(cls, ranges=DEFAULT_INPUT_RANGES, points_per_dim: int = 3,
             width: float = 1.0, ceiling: int = GRID_NODE_CEILING) -> "RbfNetwork":
        return cls(grid_nodes(ranges, points_per_dim, ceiling), width)

    def workspace(self, theta=None) -> kernels.Workspace:
        """The basis layout and buffers for evaluating its factors (and ``theta . g``)."""
        return kernels.Workspace(self.nodes, self.width, theta)


def gaussian_basis(net: RbfNetwork, z) -> np.ndarray:
    """Basis vector g(Z); strictly positive, bounded by 1/(sqrt(2 pi) h)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (net.input_dim,):
        raise ValueError(f"input must have dimension {net.input_dim}, got {z.shape}")
    work = net.workspace()
    work.z[:] = z
    return work.basis(work.factors(np.empty(work.size)))


def row_norms(theta) -> np.ndarray:
    """Euclidean norm of each row of ``theta``; ``einsum`` takes no temporary and no BLAS call."""
    return np.sqrt(np.einsum("ij,ij->i", theta, theta))


class AdaptiveWeights:
    """Three per-axis weight vectors, stored as a (3, l) array."""

    def __init__(self, theta):
        theta = np.ascontiguousarray(theta, dtype=float)
        if theta.ndim != 2 or theta.shape[0] != 3:
            raise ValueError("theta must have shape (3, l)")
        if not np.isfinite(theta).all():
            raise ValueError("weights must be finite")
        self.theta = theta

    @classmethod
    def random_init(cls, node_count: int, seed) -> "AdaptiveWeights":
        """Uniform [0, 1) initialization from ``np.random.default_rng(seed)``.

        ``seed`` must pass ``disturbance.check_seed``: ``None`` would draw fresh
        entropy, so the same scenario would not give the same weights twice.
        """
        return cls(np.random.default_rng(check_seed(seed)).random((3, node_count)))

    @classmethod
    def zeros(cls, node_count: int) -> "AdaptiveWeights":
        return cls(np.zeros((3, node_count)))

    @property
    def node_count(self) -> int:
        return self.theta.shape[1]


def write_weight_csv(path, theta: np.ndarray) -> None:
    """Snapshot the (3, l) weights as CSV rows (node_index, theta1, theta2, theta3).

    The bytes are those of ``csv.writer`` writing each weight as ``f"{v:.9g}"``.
    """
    with open(path, "w", newline="") as fh:
        fh.write("node_index,theta1,theta2,theta3\r\n")
        traces.write_rows(fh, "%d,%.9g,%.9g,%.9g\r\n",
                          np.column_stack((np.arange(theta.shape[1]), theta.T)))
