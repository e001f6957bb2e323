"""Host speed references for scaling measured times.

The shared 2-core host this benchmark was defined on changes speed by up to
2x over periods of tens of seconds, which no amount of work within one run
averages out.  So each timed interval (a request, a set-up process) is
bracketed by a fixed reference computation timed just before and just after
it, and reported as ``measured_s * REFERENCE_S / reference_time_s``: host
seconds at the speed at which the reference takes its ``REFERENCE_S``.

Slow periods do not slow all code alike, so there are two references, and
each workload is scaled by the one its time is spent like: small-array
Python loops (the PID loop, trace I/O, imports) or whole-array kernels over a
19683 x 9 grid (the Gaussian basis).  Neither calls dpsim code, so a change
to dpsim moves scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_CENTERS = _rng.random((19683, 9))
_THETA = _rng.random((3, 19683))
_G = np.empty(19683)


def python_work() -> float:
    acc = 0.0
    v = np.array([1.0, 2.0, 3.0])
    rows = []
    for i in range(900):
        c, s = np.cos(i * 0.01), np.sin(i * 0.01)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        v = rot.T @ v + 0.001
        acc += float(v @ v)
        rows.append(",".join(f"{x:.9g}" for x in v))
    return acc + len("".join(rows))


def array_work() -> float:
    acc = 0.0
    for i in range(12):
        diff = _CENTERS - 0.1 * i
        np.exp(-0.5 * np.einsum("ij,ij->i", diff, diff), out=_G)
        acc += float((_THETA @ _G).sum())
        acc += float((0.1 * (_G[None, :] + 2.13 * _THETA)).sum())
    return acc


# Median time of each reference on the host the benchmark was defined on
# (2 cores, Python 3.11, numpy 2.4).  Any fixed value would do: it only sets
# the unit, and both sides of a comparison use the same one.
REFERENCES = {"python": (python_work, 0.0110), "array": (array_work, 0.0100)}


def scale(reference: str) -> float:
    """Reference seconds per host second, measured now with the named reference."""
    work, reference_s = REFERENCES[reference]
    start = time.perf_counter()
    work()
    return reference_s / (time.perf_counter() - start)
