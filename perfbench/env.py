"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before numpy is imported: it limits the BLAS thread
pools to the cores this process may use and puts the checkout's ``src`` on
the import path, ahead of any installed copy of dpsim.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> int:
    """Set the BLAS thread limit and import path; returns the thread limit."""
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(limit)
    for path in (str(HERE), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    return limit


def import_dpsim():
    """Import dpsim from the checkout's ``src``; raise ImportError if it is not there."""
    import dpsim

    if Path(dpsim.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"dpsim was imported from {dpsim.__file__}, not from {SRC}")
    return dpsim
