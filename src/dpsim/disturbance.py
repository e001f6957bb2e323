"""Environmental load generators: constant load and first-order Markov bias.

Both expose what the engine uses: ``body_load(c, s)``, the body-frame
load as three floats at a heading with cosine ``c`` and sine ``s``, and
``stepper(dt)``, bound once per run, whose calls each advance it by ``dt``.
The constant load ignores both the heading and the step.  The Markov bias
is an Ornstein-Uhlenbeck force/moment vector in the earth frame, rotated
into the body frame at query time; its ``stepper`` starts each run from
the initial bias and the seed's first draw, so every run is the same.
Euler-Maruyama stepping with sqrt(dt) noise scaling keeps the stationary
variance step-size invariant at ``noise_scale_i^2 * time_constant_i / 2``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Steps of noise drawn per call to the generator.  The generator's stream is
# the same in blocks as in one draw per step, so the bias is too, bit for bit.
NOISE_BLOCK = 256


def check_seed(seed) -> int:
    """``seed`` as an int; it must be an integer >= 0 and not a bool.

    ``True`` would seed as 1, ``None`` with fresh entropy on every call, and
    ``int()`` would truncate 3.7 and parse '5', so each is rejected.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


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

    def stepper(self, dt: float):
        """Nothing to advance: the load is constant."""
        return lambda: None

    def step(self, dt: float) -> None:
        """Nothing to advance: the load is constant."""


class MarkovBias:
    """Slowly varying earth-frame bias b: db = -b/T dt + Psi sqrt(dt) n.

    ``n`` is a standard Gaussian 3-vector from the seeded generator, so a
    trajectory is fully determined by (seed, steps since ``stepper``).  ``b``,
    three floats, starts at ``initial_bias``; ``body_load(cos psi, sin psi)``
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
        self.seed = check_seed(seed)
        b = np.zeros(3) if b0 is None else np.array(b0, dtype=float)
        if b.shape != (3,) or not np.isfinite(b).all():
            raise ValueError("initial_bias must be a finite 3-vector")
        self.initial_bias = self.b = tuple(b.tolist())
        self._T, self._psi = T.tolist(), psi.tolist()
        self._rng = None        # default_rng(seed), started at the first draw
        self._noise = []        # the block's unused draws, next one last

    def _advancer(self, dt: float):
        """``advance()``: one step of ``dt`` from the current state; ``dt`` is checked once."""
        if not 0.0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        root = math.sqrt(dt)
        (T0, T1, T2), (s0, s1, s2) = self._T, [p * root for p in self._psi]     # (p root) n

        def advance():
            if not self._noise:
                if self._rng is None:
                    self._rng = np.random.default_rng(self.seed)
                self._noise = self._rng.standard_normal((NOISE_BLOCK, 3)).tolist()[::-1]
            n0, n1, n2 = self._noise.pop()
            b0, b1, b2 = self.b
            self.b = (b0 + dt * (-b0 / T0) + s0 * n0,
                      b1 + dt * (-b1 / T1) + s1 * n1,
                      b2 + dt * (-b2 / T2) + s2 * n2)
            return self.b

        return advance

    def stepper(self, dt: float):
        """Start a run: ``advance()`` takes one step of ``dt`` and returns the new bias.

        ``dt`` is checked first; only then do the bias and the noise stream
        go back to their start, so every run of this instance is the same.
        """
        advance = self._advancer(dt)
        self.b, self._rng, self._noise = self.initial_bias, None, []
        return advance

    def step(self, dt: float) -> tuple:
        """Advance the bias by one Euler-Maruyama step, on from the current state."""
        return self._advancer(dt)()

    def body_load(self, c: float, s: float) -> tuple:
        b0, b1, b2 = self.b
        return c * b0 + s * b1, c * b1 - s * b0, b2
