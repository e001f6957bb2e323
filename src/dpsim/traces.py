"""Trace CSV format: RFC-4180 rows after '#'-prefixed header metadata.

Floats are written with 9 significant digits; identical runs therefore
produce byte-identical files.  Yaw is reported wrapped to (-pi, pi).
A :class:`RunTrace` holds the rows as one (n, 18) array in ``TRACE_COLUMNS``
order; this module is the one place that knows that layout.
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


def _column(start, stop=None, doc=None):
    """A view of column ``start`` (or columns ``start:stop``) of ``RunTrace.data``."""
    key = start if stop is None else slice(start, stop)
    return property(lambda self: self.data[:, key], doc=doc)


@dataclass
class RunTrace:
    """Uniformly sampled (possibly decimated) log of one simulation run.

    ``data`` is the (n, 18) array of rows in ``TRACE_COLUMNS`` order; the
    named columns below are views of it, so writing to one writes ``data``.
    """

    data: np.ndarray
    meta: dict = field(default_factory=dict)
    final_theta: np.ndarray | None = None

    t = _column(0)
    pose = _column(1, 4, "(n, 3) x, y, wrapped psi")
    velocity = _column(4, 7, "(n, 3) u, v, r")
    tau = _column(7, 10, "(n, 3) applied control")
    delta = _column(10, 13, "(n, 3) body-frame load applied")
    theta_norms = _column(13, 16, "(n, 3); zeros for controllers without weights")
    v1 = _column(16)
    v2a_partial = _column(17)

    def __len__(self):
        return self.data.shape[0]


def target_pose(text) -> np.ndarray:
    """The pose of a ``target_pose_rad`` header value: three numbers."""
    values = text.split()
    if len(values) != 3:
        raise ValueError(f"target_pose_rad must be three numbers, got {text!r}")
    return np.array([float(v) for v in values])


# one data row: what csv.writer writes for the 9-digit values, which need no quoting
_ROW_FORMAT = ",".join(["%.9g"] * len(TRACE_COLUMNS)) + "\r\n"
# rows formatted per write: one write per block keeps the text of a long
# trace from being held in memory all at once
_ROWS_PER_WRITE = 256


def write_rows(fh, row_format, data, numbered=False) -> None:
    """Write each row of a 2-D array through one %-format, a block of rows per
    write; ``numbered`` puts each row's index before its values."""
    for start in range(0, len(data), _ROWS_PER_WRITE):
        block = data[start:start + _ROWS_PER_WRITE].tolist()
        if numbered:
            block = [(j, *row) for j, row in enumerate(block, start)]
        fh.write("".join([row_format % tuple(row) for row in block]))


def write_trace_csv(path, trace: RunTrace) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {FORMAT_NAME} {FORMAT_VERSION}\r\n")
        for key, value in trace.meta.items():
            fh.write(f"# {key}: {value}\r\n")
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        write_rows(fh, _ROW_FORMAT, trace.data)


def read_trace_csv(path) -> RunTrace:
    """Read a trace CSV; a malformed file raises ValueError naming the path and line."""
    meta = {}
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header_seen = False
        try:
            for record in reader:
                if not record:
                    continue
                if record[0].startswith("#"):
                    comment = ",".join(record).lstrip("#").strip()
                    if ":" in comment:
                        key, value = (part.strip() for part in comment.split(":", 1))
                        meta[key] = value
                        if key == "target_pose_rad":
                            target_pose(value)
                    continue
                if not header_seen:
                    if tuple(record) != TRACE_COLUMNS:
                        raise ValueError(f"unexpected trace header {record!r}")
                    header_seen = True
                    continue
                if len(record) != len(TRACE_COLUMNS):
                    raise ValueError(f"{len(record)} fields, expected {len(TRACE_COLUMNS)}")
                rows.append([float(v) for v in record])
        except ValueError as exc:   # UnicodeDecodeError included
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if not header_seen or not rows:
        raise ValueError(f"{path}: no trace data found")
    return RunTrace(np.array(rows), meta)
