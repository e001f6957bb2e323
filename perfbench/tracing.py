"""Span tracing for the traced benchmark run.

The traced run swaps timing wrappers into the attributes the program calls
through (module functions, methods, classmethods) and restores them after
each request.  Every wrapped call records one span: name, start, end and the
index of its parent span.  A span's self time is its duration minus the time
its child spans cover.  Nothing under ``src/`` is modified: when a later
change deletes a traced function, its layer reports zero calls and its cost
moves into the caller's self time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _kernel_counts(args, result):
    # Computed from the argument sizes, not measured: every array argument is
    # read or written once per call, and the basis takes one exp per node.
    arrays = [a for a in args if hasattr(a, "nbytes")]
    return {"computed_bytes": sum(a.nbytes for a in arrays),
            "computed_exp": arrays[0].shape[0] if arrays else 0}


def _write_counts(args, result):
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


def _read_counts(args, result):
    return {"rows": len(result), "bytes": os.path.getsize(args[0])}


@dataclass(frozen=True)
class Layer:
    """One traced boundary: ``attr`` is ``func`` or ``Class.method`` in ``dpsim.<module>``.

    ``count(args, result)`` returns the values of ``counters`` for one call.
    """

    module: str
    attr: str
    counters: tuple = ()
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS = (
    Layer("kernels", "adaptive_core", ("computed_bytes", "computed_exp"), _kernel_counts),
    Layer("kernels", "basis_into"),
    Layer("approximators", "gaussian_basis"),
    Layer("approximators", "RbfNetwork.grid"),
    Layer("approximators", "AdaptiveWeights.random_init"),
    Layer("simulate", "run_simulation"),
    Layer("vessel", "rotation_matrix"),
    Layer("controllers", "PidController.control"),
    Layer("controllers", "saturate"),
    Layer("disturbance", "MarkovBias.step"),
    Layer("disturbance", "MarkovBias.body_delta"),
    Layer("disturbance", "ConstantDisturbance.sample"),
    Layer("traces", "write_trace_csv", ("rows", "bytes"), _write_counts),
    Layer("traces", "read_trace_csv", ("rows", "bytes"), _read_counts),
    Layer("simulate", "metrics_from_trace"),
    Layer("simulate", "compare_runs"),
    Layer("config", "load_scenario"),
)

REQUEST_SPAN = "bench.request"


class Tracer:
    """Collects the spans of one request in memory; ``reset`` starts the next."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}     # (layer name, counter) -> total
        self._stack = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped so that each call records a span named ``name``."""
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    counts[name, key] = counts.get((name, key), 0) + value
            return result

        return traced

    def summary(self):
        """Per-name call count and self time over the recorded spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s = {}, {}
        for (name, start, end, _), child in zip(self.spans, covered):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child
        return calls, self_s


def _dpsim_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "dpsim" or key.startswith("dpsim."))]


@contextmanager
def installed(tracer: Tracer):
    """Swap span wrappers into every layer that exists; restore them on exit.

    A module function is replaced in every loaded ``dpsim`` module that holds
    it by name, so ``from dpsim.vessel import rotation_matrix`` call sites are
    traced too.  A layer whose module, class or function is gone is skipped.
    """
    undo = []
    try:
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"dpsim.{layer.module}")
            except ImportError:
                continue
            owner_name, _, fn_name = layer.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(fn_name) if isinstance(owner, type) else None
                if isinstance(raw, classmethod):
                    patched = classmethod(tracer.wrap(layer.name, raw.__func__, layer.count))
                elif callable(raw):
                    patched = tracer.wrap(layer.name, raw, layer.count)
                else:
                    continue
                setattr(owner, fn_name, patched)
                undo.append((owner, fn_name, raw))
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                continue
            patched = tracer.wrap(layer.name, original, layer.count)
            for mod in _dpsim_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, patched)
                        undo.append((mod, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
