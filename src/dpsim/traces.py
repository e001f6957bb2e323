"""Trace CSV format: '#'-prefixed header metadata, the column header, then rows.

Floats are written with 9 significant digits; identical runs therefore
produce byte-identical files.  Yaw is reported wrapped to (-pi, pi).
A :class:`RunTrace` holds the rows as one (n, 18) array in ``TRACE_COLUMNS``
order; this module is the one place that knows that layout.
"""

from __future__ import annotations

import warnings
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


_HEADER = ",".join(TRACE_COLUMNS)


def _loadtxt(lines, dtype=float) -> np.ndarray:
    """The rows of ``lines`` (a text file or a list of lines), parsed by np.loadtxt."""
    with warnings.catch_warnings():
        # a block of only blank and comment lines parses to no rows, and says so
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, delimiter=",", dtype=dtype, ndmin=2)


def _check_row(line) -> None:
    """Raise ValueError if ``line`` has not 18 fields or np.loadtxt rejects it alone."""
    fields = _loadtxt([line], dtype=str)
    if len(fields) and fields.shape[1] != len(TRACE_COLUMNS):
        raise ValueError(f"{fields.shape[1]} fields, expected {len(TRACE_COLUMNS)}")
    try:
        _loadtxt([line])
    except ValueError as exc:
        # numpy names the row within its one-line input; the caller names the line
        raise ValueError(str(exc).replace(" at row 0,", " in")) from None


def read_trace_csv(path) -> RunTrace:
    """Read a trace CSV; a malformed file raises ValueError naming the path and line.

    The '#' lines before the column header are ``key: value`` metadata, read
    verbatim.  np.loadtxt parses the rows after it and skips blank lines and
    '#' comments there.  Only when it fails are the rows walked again, to
    name the first one that has not 18 fields or that it rejects alone.
    """
    meta = {}
    data = np.empty((0, len(TRACE_COLUMNS)))
    number = 0      # of the line read last
    with open(path) as fh:
        try:
            for line in iter(fh.readline, ""):
                number += 1
                if line.startswith("#"):
                    key, colon, value = (part.strip() for part in
                                         line.lstrip("#").partition(":"))
                    if colon:
                        meta[key] = value
                        if key == "target_pose_rad":
                            target_pose(value)
                    continue
                if line == "\n":
                    continue
                if line.rstrip("\n") != _HEADER:
                    raise ValueError(f"unexpected trace header {line.rstrip()!r}")
                try:
                    data = _loadtxt(fh)
                    bad = len(data) and data.shape[1] != len(TRACE_COLUMNS)
                except ValueError:
                    bad = True
                if bad:
                    header_lines = number
                    fh.seek(0)
                    for number, line in enumerate(fh, 1):
                        if number > header_lines:
                            _check_row(line)
                    raise ValueError("np.loadtxt rejects the rows, but none alone")
                break
        except ValueError as exc:   # UnicodeDecodeError included
            raise ValueError(f"{path}, line {number}: {exc}") from None
    if not len(data):
        raise ValueError(f"{path}: no trace data found")
    return RunTrace(data, meta)
