#!/usr/bin/env python3
"""dpsim benchmark: one workload as a closed loop from a single process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The process sends one request at a time (no threads) until ``--seconds``
have elapsed, after one warm-up request, and checks every request's output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced requests and reports the per-layer metrics of the traced
ones.  Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 2 means dpsim could not be imported from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import env

# The benchmark modules that import numpy or dpsim (speed, tracing,
# workloads) are imported inside functions, after env.prepare() has set the
# BLAS thread limit and the import path.

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
MAX_REPORTED_PROBLEMS = 5


@dataclass
class Sample:
    """One successful request: raw wall time, host speed factor, outputs, spans."""

    wall_s: float
    scale: float            # reference seconds per host second around the request
    result: object
    summary: tuple | None = None   # (calls, self_s, counts) of a traced request

    @property
    def scaled_wall_s(self):
        return self.wall_s * self.scale


class Session:
    """Sends requests for one workload and seed; counts and checks each one."""

    def __init__(self, workload, seed, workdir: Path, references):
        self.workload = workload
        self.seed = seed
        self.references = references
        self.scenario_path = workdir / "scenario.json"
        self.trace_path = workdir / "trace.csv"
        self.scenario_path.write_text(json.dumps(workload.scenario_for(seed)))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first_digest = None
        self._scale = None   # speed measured after the previous request

    def _speed(self):
        import speed

        return speed.scale(self.workload.speed_reference)

    def send(self, tracer=None):
        """One request; returns its Sample, or None if it failed."""
        import tracing
        import workloads

        before = self._scale if self._scale is not None else self._speed()
        self.attempted += 1
        args = (self.workload, self.scenario_path, self.trace_path)
        try:
            if tracer is None:
                start = time.perf_counter()
                result = workloads.request(*args)
                wall = time.perf_counter() - start
            else:
                tracer.reset()
                with tracing.installed(tracer):
                    call = tracer.wrap(tracing.REQUEST_SPAN, workloads.request)
                    start = time.perf_counter()
                    result = call(*args)
                    wall = time.perf_counter() - start
            result.digest = workloads.trace_digest(self.trace_path)
            problems = workloads.check(self.workload, self.seed, result,
                                       self.references, self._first_digest)
        except Exception as exc:  # any raise, SimulationAbort included, is a failed request
            problems = [f"{type(exc).__name__}: {exc}"]
        self._scale = self._speed()
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_REPORTED_PROBLEMS - len(self.problems)])
            return None
        if self._first_digest is None:
            self._first_digest = result.digest
        summary = None if tracer is None else (*tracer.summary(), dict(tracer.counts))
        return Sample(wall, 0.5 * (before + self._scale), result, summary)


def closed_loop(session: Session, seconds: float, traced_every_other=False):
    """Warm up once, then send requests until ``seconds`` have elapsed.

    Returns the Samples of the successful requests after the warm-up.
    """
    import tracing

    tracer = tracing.Tracer() if traced_every_other else None
    session.send()
    samples = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        use = tracer if (traced_every_other and i % 2 == 1) else None
        i += 1
        sample = session.send(use)
        if sample is not None:
            samples.append(sample)
    return samples


def setup_seconds(scenario_path: Path) -> list:
    """(raw seconds, speed factor) of the set-up of SETUP_PROBES fresh processes."""
    import speed

    probes = []
    for _ in range(SETUP_PROBES):
        before = speed.scale("python")
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(scenario_path)],
                             capture_output=True, text=True, timeout=120, check=True)
        scale = 0.5 * (before + speed.scale("python"))
        probes.append((float(out.stdout.strip().splitlines()[-1]), scale))
    return probes


def median_of(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    if len(values) < 2:
        return median_of(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def failed_note(session):
    return (f"failed_frac: {session.failed / session.attempted:.6g} ratio "
            f"({session.failed} failed of {session.attempted} attempted)")


def end_to_end_metrics(session, samples, setup):
    """Times are in reference seconds (see speed.py); the notes give the raw medians."""
    walls = [s.scaled_wall_s for s in samples]
    rates = [s.result.steps / (s.result.sim_s * s.scale) for s in samples]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": (median_of(walls), "s"),
              "wall_s_p90": (percentile(walls, 90), "s"),
              "steps_per_s": (median_of(rates), "1/s"),
              "setup_s": (median_of([raw * scale for raw, scale in setup]), "s"),
              "peak_rss_mb": (peak_rss_mb, "MB")}
    beyond = len(walls) - int(0.9 * len(walls))
    notes = [f"timed requests: {len(walls)} ({beyond} beyond p90)",
             f"raw host medians: wall_s {median_of([s.wall_s for s in samples]):.6g} s, "
             f"setup_s {median_of([raw for raw, _ in setup]):.6g} s over {len(setup)} "
             f"fresh processes; host speed factor {median_of([s.scale for s in samples]):.4g}",
             failed_note(session)]
    return values, notes


def per_layer_metrics(session, samples):
    import tracing

    traced = [s for s in samples if s.summary is not None]
    plain = [s.scaled_wall_s for s in samples if s.summary is None]
    values = {}
    names = [layer.name for layer in tracing.LAYERS] + [tracing.REQUEST_SPAN]
    for name in names:
        calls = [s.summary[0].get(name, 0) for s in traced]
        self_s = [s.summary[1].get(name, 0.0) * s.scale for s in traced]
        total_calls = sum(calls)
        values[f"{name}.calls"] = (median_of(calls), "count")
        values[f"{name}.self_s"] = (median_of(self_s), "s")
        if name != tracing.REQUEST_SPAN:
            values[f"{name}.us_per_call"] = (
                sum(self_s) / total_calls * 1e6 if total_calls else 0.0, "us")
    for layer in tracing.LAYERS:
        total_calls = sum(s.summary[0].get(layer.name, 0) for s in traced)
        for counter in layer.counters:
            total = sum(s.summary[2].get((layer.name, counter), 0) for s in traced)
            unit = "bytes" if "bytes" in counter else "count"
            values[f"{layer.name}.{counter}"] = (
                total / total_calls if total_calls else 0.0, unit)
    traced_walls = [s.scaled_wall_s for s in traced]
    values["simulate.run_simulation.steps"] = (
        median_of([s.result.steps for s in traced]), "count")
    values["trace.request_s"] = (median_of(traced_walls), "s")
    values["trace.overhead_frac"] = (
        median_of(traced_walls) / median_of(plain) - 1.0 if plain and traced else 0.0,
        "ratio")
    notes = [f"traced requests: {len(traced)}, untraced requests: {len(plain)}",
             failed_note(session)]
    return values, notes


def host_record(blas_threads):
    import numpy

    try:
        from dpsim.kernels import active_backend
        backend = active_backend()
    except ImportError:  # the backend switch is gone: numpy is the only path
        backend = "numpy"
    return (f"host: nproc={env.nproc()} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas_threads={blas_threads} "
            f"backend={backend}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = env.prepare()
    try:
        env.import_dpsim()
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import dpsim from {env.SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        session = Session(workload, args.seed, workdir, workloads.load_references())
        if args.trace:
            samples = closed_loop(session, args.seconds, traced_every_other=True)
            values, notes = per_layer_metrics(session, samples)
        else:
            setup = setup_seconds(session.scenario_path)
            samples = closed_loop(session, args.seconds)
            values, notes = end_to_end_metrics(session, samples, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload: {workload.name}  seed: {args.seed}  trace: {args.trace}")
    print(host_record(blas_threads))
    for note in notes:
        print(note)
    for problem in session.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in values.items():
        print(f"{name:<56} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
