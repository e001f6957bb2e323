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


def write_rows(fh, row_format, data) -> None:
    """Write each row of a 2-D array through one %-format, a block of rows per write."""
    for start in range(0, len(data), _ROWS_PER_WRITE):
        block = data[start:start + _ROWS_PER_WRITE].tolist()
        fh.write("".join([row_format % tuple(row) for row in block]))


def write_trace_csv(path, trace: RunTrace) -> None:
    """Write ``trace``; a meta entry that would not read back is a ValueError, before writing."""
    header = [f"# {FORMAT_NAME} {FORMAT_VERSION}"]
    for key, value in trace.meta.items():
        key, value = str(key), str(value)
        text = key + value
        problem = ("a line break in the key or value" if "\r" in text or "\n" in text
                   else "a ':' in the key" if ":" in key
                   else "whitespace around the key or value"
                   if key != key.strip() or value != value.strip() else None)
        if problem:
            raise ValueError(f"trace header {key!r}: {problem}")
        header.append(f"# {key}: {value}")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([*header, ",".join(TRACE_COLUMNS)]) + "\r\n")
        write_rows(fh, _ROW_FORMAT, trace.data)


_HEADER = ",".join(TRACE_COLUMNS)


def _rows(lines) -> np.ndarray:
    """The rows of ``lines`` (a text file or a list of lines), parsed by np.loadtxt;
    rows that are not 18 fields wide are a ValueError."""
    with warnings.catch_warnings():
        # a block of only blank and comment lines parses to no rows, and says so
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2)
    if len(data) and data.shape[1] != len(TRACE_COLUMNS):
        raise ValueError(f"{data.shape[1]} fields, expected {len(TRACE_COLUMNS)}")
    return data


def _bad_line(path, encoding, header_lines):
    """``(number, error)`` of the first line of ``path`` (split as in text mode) that does not
    decode, else of the first row after line ``header_lines`` that _rows rejects."""
    with open(path, "rb") as fh:
        raw = fh.read().splitlines()
    lines = []
    for number, line in enumerate(raw, 1):
        try:
            lines.append(line.decode(encoding))
        except UnicodeDecodeError as exc:
            return number, exc
    # the rows before ``lo`` pass; the first one _rows rejects is before ``hi``
    lo, hi = header_lines, len(lines)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            _rows(lines[lo:mid])
            lo = mid
        except ValueError as exc:
            if mid - lo == 1:   # numpy names the row in its one-line input, ``mid`` the line
                return mid, ValueError(str(exc).replace(" at row 0,", " in"))
            hi = mid


def read_trace_csv(path) -> RunTrace:
    """Read a trace CSV; a malformed file raises ValueError naming the path and line.

    The '#' lines before the column header are ``key: value`` metadata, read
    verbatim.  np.loadtxt parses the rows after it in one call and skips
    blank lines and '#' comments there.  Only when a line fails to decode or
    a row is rejected is the file read again, once, to name the line.
    """
    meta, data = {}, np.empty((0, len(TRACE_COLUMNS)))
    number = header_lines = 0       # the line read last; the lines up to the column header
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
                header_lines = number
                data = _rows(fh)
                break
        except ValueError as exc:   # UnicodeDecodeError included
            # text decodes in chunks ahead of the line read; np.loadtxt names no line
            if header_lines or isinstance(exc, UnicodeDecodeError):
                number, exc = _bad_line(path, fh.encoding, header_lines) or (number, exc)
            raise ValueError(f"{path}, line {number}: {exc}") from None
    if not len(data):
        raise ValueError(f"{path}: no trace data found")
    return RunTrace(data, meta)
