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

import csv
from dataclasses import dataclass

import numpy as np

from dpsim import kernels

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
    count = points_per_dim ** n_dims
    if count > ceiling:
        raise GridCapacityError(
            f"points_per_dim gives {points_per_dim}^{n_dims} = {count} nodes, "
            f"over the node ceiling {ceiling}")
    return np.array([np.linspace(lo, hi, points_per_dim) for lo, hi in ranges])


def _cartesian(nodes: np.ndarray) -> np.ndarray:
    n_dims, points = nodes.shape
    mesh = np.meshgrid(*nodes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(points ** n_dims, n_dims)


def build_grid_centers(ranges, points_per_dim: int, ceiling: int = GRID_NODE_CEILING) -> np.ndarray:
    """Cartesian product of equally spaced points per dimension, endpoints included.

    Rows are ordered lexicographically (first dimension slowest), which fixes
    the node-to-weight-index mapping across runs.
    """
    return _cartesian(grid_nodes(ranges, points_per_dim, ceiling))


@dataclass(frozen=True)
class RbfNetwork:
    """Immutable basis on a Cartesian grid: per-dimension nodes (m, p), one width.

    The centers are the p^m grid points in the lexicographic order of
    :func:`build_grid_centers`; they are derived on demand, not stored.  The
    kernels' gather index of the basis's two factors (see ``dpsim.kernels``)
    is computed once here.
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
        width = float(self.width)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "_inv_two_h2", 1.0 / (2.0 * width ** 2))
        object.__setattr__(self, "_coef", 1.0 / (np.sqrt(2.0 * np.pi) * width))
        object.__setattr__(self, "_index", kernels.factor_index(nodes))

    @property
    def node_count(self) -> int:
        return self.nodes.shape[1] ** self.nodes.shape[0]

    @property
    def input_dim(self) -> int:
        return self.nodes.shape[0]

    @property
    def centers(self) -> np.ndarray:
        """The (l, m) grid points, one row per node."""
        return _cartesian(self.nodes)

    @classmethod
    def grid(cls, ranges=DEFAULT_INPUT_RANGES, points_per_dim: int = 3,
             width: float = 1.0, ceiling: int = GRID_NODE_CEILING) -> "RbfNetwork":
        return cls(grid_nodes(ranges, points_per_dim, ceiling), width)


def gaussian_basis(net: RbfNetwork, z, out=None) -> np.ndarray:
    """Basis vector g(Z); strictly positive, bounded by 1/(sqrt(2 pi) h)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (net.input_dim,):
        raise ValueError(f"input must have dimension {net.input_dim}, got {z.shape}")
    if out is None:
        out = np.empty(net.node_count)
    elif out.shape != (net.node_count,) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a contiguous vector of {net.node_count} values")
    return kernels.basis_into(net.nodes, net._inv_two_h2, net._coef, net._index, z, out)


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
        """Uniform [0, 1) initialization from a seeded generator."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return cls(rng.random((3, node_count)))

    @classmethod
    def zeros(cls, node_count: int) -> "AdaptiveWeights":
        return cls(np.zeros((3, node_count)))

    @property
    def node_count(self) -> int:
        return self.theta.shape[1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.theta, axis=1)

    def copy(self) -> "AdaptiveWeights":
        return AdaptiveWeights(self.theta.copy())


def rbf_output(net: RbfNetwork, weights: AdaptiveWeights, z) -> np.ndarray:
    """Per-axis network output [theta_1.g, theta_2.g, theta_3.g]."""
    if weights.node_count != net.node_count:
        raise ValueError(
            f"weights have {weights.node_count} nodes, network has {net.node_count}")
    g = gaussian_basis(net, z)
    return weights.theta @ g


def write_weight_csv(path, weights: AdaptiveWeights) -> None:
    """Snapshot the weights as CSV rows (node_index, theta1, theta2, theta3)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index", "theta1", "theta2", "theta3"])
        for j in range(weights.node_count):
            writer.writerow([j] + [f"{weights.theta[i, j]:.9g}" for i in range(3)])
