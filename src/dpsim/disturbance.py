"""Environmental load generators: constant load and first-order Markov bias.

Both expose the two calls the simulation engine makes: ``body_load(c, s)``,
the body-frame load as three floats at a heading with cosine ``c`` and sine
``s``, and ``step(dt)``, which advances the load by one step.
The constant load ignores both the heading and the step.  The Markov bias
is an Ornstein-Uhlenbeck force/moment vector in the earth frame, rotated
into the body frame at query time.  Euler-Maruyama stepping with sqrt(dt)
noise scaling keeps the stationary variance step-size invariant at
``noise_scale_i^2 * time_constant_i / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConstantDisturbance:
    """Fixed body-frame load [N, N, N*m], the same at every heading."""

    delta: np.ndarray

    def __post_init__(self):
        d = np.array(self.delta, dtype=float)
        if d.shape != (3,) or not np.isfinite(d).all():
            raise ValueError("delta must be a finite 3-vector")
        object.__setattr__(self, "delta", d)

    def body_load(self, c: float, s: float) -> list:
        return self.delta.tolist()

    def step(self, dt: float) -> None:
        """Nothing to advance: the load is constant."""


class MarkovBias:
    """Slowly varying earth-frame bias b: db = -b/T dt + Psi sqrt(dt) n.

    ``n`` is a standard Gaussian 3-vector from the seeded generator, so a
    trajectory is fully determined by (seed, call count).  ``b`` holds the
    bias as three floats.  ``body_load(cos psi, sin psi)`` returns R(psi)^T b,
    the load felt in the body frame.
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
        b = np.zeros(3) if b0 is None else np.array(b0, dtype=float)
        if b.shape != (3,) or not np.isfinite(b).all():
            raise ValueError("initial_bias must be a finite 3-vector")
        self.b = tuple(b.tolist())
        self._T, self._psi = T.tolist(), psi.tolist()
        self._rng = np.random.default_rng(self.seed)

    def step(self, dt: float) -> tuple:
        """Advance the bias by one Euler-Maruyama step; returns the new bias."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        n0, n1, n2 = self._rng.standard_normal(3).tolist()
        (b0, b1, b2), (T0, T1, T2), (p0, p1, p2) = self.b, self._T, self._psi
        root = math.sqrt(dt)
        self.b = (b0 + dt * (-b0 / T0) + p0 * root * n0,
                  b1 + dt * (-b1 / T1) + p1 * root * n1,
                  b2 + dt * (-b2 / T2) + p2 * root * n2)
        return self.b

    def body_load(self, c: float, s: float) -> tuple:
        b0, b1, b2 = self.b
        return c * b0 + s * b1, c * b1 - s * b0, b2
