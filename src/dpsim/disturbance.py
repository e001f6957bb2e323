"""Environmental load generators: constant load and first-order Markov bias.

The Markov bias is an Ornstein-Uhlenbeck force/moment vector in the earth
frame, rotated into the body frame at query time.  Euler-Maruyama stepping
with sqrt(dt) noise scaling keeps the stationary variance step-size
invariant at ``noise_scale_i^2 * time_constant_i / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpsim.vessel import rotation_matrix


@dataclass(frozen=True)
class ConstantDisturbance:
    """Fixed body-frame load [N, N, N*m]."""

    delta: np.ndarray

    def __post_init__(self):
        d = np.array(self.delta, dtype=float)
        if d.shape != (3,) or not np.isfinite(d).all():
            raise ValueError("delta must be a finite 3-vector")
        object.__setattr__(self, "delta", d)

    def sample(self, t: float) -> np.ndarray:
        return self.delta.copy()


@dataclass(frozen=True)
class DisturbanceBound:
    """Componentwise bound on the load magnitude; diagnostics only."""

    delta_bar: np.ndarray

    def __post_init__(self):
        b = np.array(self.delta_bar, dtype=float)
        if b.shape != (3,) or not (b > 0).all():
            raise ValueError("delta_bar entries must be positive")
        object.__setattr__(self, "delta_bar", b)


class MarkovBias:
    """Slowly varying earth-frame bias b: db = -b/T dt + Psi sqrt(dt) n.

    ``n`` is a standard Gaussian 3-vector from the seeded generator, so a
    trajectory is fully determined by (seed, call count).  ``body_delta``
    returns R(psi)^T b, the load felt in the body frame.
    """

    def __init__(self, time_constants, noise_scale, seed: int, b0=None):
        T = np.asarray(time_constants, dtype=float) * np.ones(3)
        psi = np.asarray(noise_scale, dtype=float) * np.ones(3)
        if not (T > 0).all():
            raise ValueError("time_constants must be positive")
        if not (psi >= 0).all():
            raise ValueError("noise_scale entries must be non-negative")
        self.time_constants = T
        self.noise_scale = psi
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.b = np.zeros(3) if b0 is None else np.array(b0, dtype=float)
        if self.b.shape != (3,) or not np.isfinite(self.b).all():
            raise ValueError("initial_bias must be a finite 3-vector")
        self._rng = np.random.default_rng(self.seed)

    def step(self, dt: float) -> np.ndarray:
        """Advance the bias by one Euler-Maruyama step; returns the new bias."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        noise = self._rng.standard_normal(3)
        self.b = self.b + dt * (-self.b / self.time_constants) \
            + self.noise_scale * np.sqrt(dt) * noise
        return self.b

    def body_delta(self, psi_angle: float) -> np.ndarray:
        return rotation_matrix(psi_angle).T @ self.b

