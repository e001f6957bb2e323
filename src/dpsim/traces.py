"""Trace CSV format: RFC-4180 rows after '#'-prefixed header metadata.

Floats are written with 9 significant digits; identical runs therefore
produce byte-identical files.  Yaw is reported wrapped to (-pi, pi).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

TRACE_COLUMNS = (
    "t", "x", "y", "psi", "u", "v", "r",
    "tau1", "tau2", "tau3",
    "delta1", "delta2", "delta3",
    "theta1_norm", "theta2_norm", "theta3_norm",
    "V1", "V2a_partial",
)

FORMAT_NAME = "dpsim-trace"
FORMAT_VERSION = "1"


@dataclass
class RunTrace:
    """Uniformly sampled (possibly decimated) log of one simulation run."""

    t: np.ndarray
    pose: np.ndarray          # (n, 3) x, y, wrapped psi
    velocity: np.ndarray      # (n, 3) u, v, r
    tau: np.ndarray           # (n, 3)
    delta: np.ndarray         # (n, 3) body-frame load applied
    theta_norms: np.ndarray   # (n, 3); zeros for controllers without weights
    v1: np.ndarray            # (n,)
    v2a_partial: np.ndarray   # (n,)
    meta: dict = field(default_factory=dict)
    final_theta: np.ndarray | None = None

    def __len__(self):
        return self.t.shape[0]

    @classmethod
    def from_columns(cls, data, meta=None) -> "RunTrace":
        """Trace holding copies of the columns of an (n, 18) array in TRACE_COLUMNS order."""
        return cls(t=data[:, 0].copy(), pose=data[:, 1:4].copy(),
                   velocity=data[:, 4:7].copy(), tau=data[:, 7:10].copy(),
                   delta=data[:, 10:13].copy(), theta_norms=data[:, 13:16].copy(),
                   v1=data[:, 16].copy(), v2a_partial=data[:, 17].copy(),
                   meta=dict(meta or {}))

    def columns(self) -> np.ndarray:
        """All logged columns as one (n, 18) array in TRACE_COLUMNS order."""
        return np.column_stack([
            self.t, self.pose, self.velocity, self.tau, self.delta,
            self.theta_norms, self.v1, self.v2a_partial,
        ])


# one data row: what csv.writer writes for the 9-digit values, which need no quoting
_ROW_FORMAT = ",".join(["%.9g"] * len(TRACE_COLUMNS)) + "\r\n"
# rows formatted per write: one write per block keeps the text of a long
# trace from being held in memory all at once
_ROWS_PER_WRITE = 256


def write_trace_csv(path, trace: RunTrace) -> None:
    data = trace.columns()
    with open(path, "w", newline="") as fh:
        fh.write(f"# {FORMAT_NAME} {FORMAT_VERSION}\r\n")
        for key, value in trace.meta.items():
            fh.write(f"# {key}: {value}\r\n")
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for start in range(0, len(data), _ROWS_PER_WRITE):
            block = data[start:start + _ROWS_PER_WRITE].tolist()
            fh.write("".join([_ROW_FORMAT % tuple(row) for row in block]))


def read_trace_csv(path) -> RunTrace:
    meta = {}
    rows = []
    with open(path, newline="") as fh:
        header_seen = False
        for record in csv.reader(line for line in fh):
            if not record:
                continue
            if record[0].startswith("#"):
                comment = ",".join(record).lstrip("#").strip()
                if ":" in comment:
                    key, value = comment.split(":", 1)
                    meta[key.strip()] = value.strip()
                continue
            if not header_seen:
                if tuple(record) != TRACE_COLUMNS:
                    raise ValueError(f"{path}: unexpected trace header {record!r}")
                header_seen = True
                continue
            rows.append([float(v) for v in record])
    if not header_seen or not rows:
        raise ValueError(f"{path}: no trace data found")
    return RunTrace.from_columns(np.array(rows), meta)
