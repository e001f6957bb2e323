"""Benchmark workloads, the request they send, and the output check.

A request is what one ``dpsim run --config scenario.json --out trace.csv``
does: load the scenario, run the closed loop, write the trace CSV.  On
``pid-markov-io`` it also reads the trace back and recomputes and compares
its metrics, as ``dpsim compare`` does.  See README.md for why each workload
was chosen.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dpsim import config, simulate, traces

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json"

# Workload seeds map onto this many scenario seeds, whose metrics were
# recorded on the seed commit in references.json.
REFERENCE_SEEDS = 64

# ROADMAP item 2: metrics may drift by at most this relative error.
REFERENCE_RTOL = 1e-9
# Trace values are written with 9 significant digits, so metrics recomputed
# from a read-back trace agree with the in-memory ones only to about 1e-9.
READBACK_RTOL = 1e-7

METRIC_FIELDS = ("convergence_time", "steady_rms_pos", "steady_rms_psi",
                 "peak_tau", "weight_sup")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict
    read_back: bool = False
    speed_reference: str = "array"   # the speed.REFERENCES entry its time is spent like

    def scenario_for(self, seed: int) -> dict:
        """The workload's scenario with the seeds set the way ``dpsim run --seed`` sets them."""
        s = seed % REFERENCE_SEEDS
        raw = copy.deepcopy(self.scenario)
        raw.setdefault("rbf", {})["weight_seed"] = s
        raw.setdefault("disturbance", {})["seed"] = s + 1
        return raw


WORKLOADS = {w.name: w for w in (
    # The paper's headline run (adaptive-nn, constant load, 3^9 nodes,
    # dt 0.1 s) over a 4 s horizon: the basis/kernel layer does the work.
    Workload("adaptive-constant", {"simulation": {"duration": 4.0}}),
    # Frozen weights under the OU bias, 3^9 nodes: same kernel, zero weight
    # derivative, plus the Markov layer.
    Workload("nn-fixed-markov", {"controller": {"type": "nn-fixed"},
                                 "disturbance": {"type": "markov"},
                                 "simulation": {"duration": 4.0}}),
    # PID under the OU bias over a long horizon with trace read-back: no
    # network, per-step Python overhead and trace I/O dominate.
    Workload("pid-markov-io", {"controller": {"type": "pid"},
                               "disturbance": {"type": "markov"},
                               "simulation": {"duration": 100.0}},
             read_back=True, speed_reference="python"),
)}


@dataclass
class Result:
    steps: int
    sim_s: float            # host time inside run_simulation
    metrics: object         # RunMetrics of the run
    digest: str             # sha256 of the trace CSV bytes
    readback_metrics: object = None
    memory_metrics: object = None
    report: object = None


def request(workload: Workload, scenario_path, trace_path) -> Result:
    """One closed-loop request; every dpsim call goes through a module attribute."""
    cfg = config.load_scenario(scenario_path)
    start = time.perf_counter()
    trace, metrics = simulate.run_simulation(cfg)
    sim_s = time.perf_counter() - start
    traces.write_trace_csv(trace_path, trace)
    result = Result(cfg.steps(), sim_s, metrics, "")
    if workload.read_back:
        back = traces.read_trace_csv(trace_path)
        result.readback_metrics = simulate.metrics_from_trace(back)
        result.memory_metrics = simulate.metrics_from_trace(trace)
        # compare_runs needs identical time grids, which the 9-digit CSV
        # times and the in-memory k*dt times are not; compare the read-back
        # trace against itself, as `dpsim compare a.csv a.csv` would.
        result.report = simulate.compare_runs([back, back])
    return result


def trace_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def metrics_dict(metrics) -> dict:
    return {"convergence_time": float(metrics.convergence_time),
            "steady_rms_pos": float(metrics.steady_rms_pos),
            "steady_rms_psi": float(metrics.steady_rms_psi),
            "peak_tau": [float(v) for v in metrics.peak_tau],
            "weight_sup": float(metrics.weight_sup)}


def _close(a, b, rtol) -> bool:
    # math.isclose treats inf == inf as equal and nan as unequal.
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def metric_mismatches(got, want, rtol) -> list:
    """Names of metric fields that differ beyond ``rtol``; both are metrics_dict form."""
    bad = []
    for key in METRIC_FIELDS:
        a, b = np.atleast_1d(got[key]), np.atleast_1d(want[key])
        if a.shape != b.shape or not all(_close(x, y, rtol) for x, y in zip(a, b)):
            bad.append(key)
    return bad


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def check(workload: Workload, seed: int, result: Result, references: dict,
          first_digest: str | None) -> list:
    """Problems with one request's outputs; empty when they are correct."""
    problems = []
    want = references.get(workload.name, {}).get(str(seed % REFERENCE_SEEDS))
    got = metrics_dict(result.metrics)
    if want is None:
        problems.append("no reference metrics for this workload and seed")
    else:
        problems += [f"{k} differs from the reference"
                     for k in metric_mismatches(got, want, REFERENCE_RTOL)]
    if first_digest is not None and result.digest != first_digest:
        problems.append("trace CSV bytes differ from the first request's")
    if workload.read_back:
        memory = metrics_dict(result.memory_metrics)
        problems += [f"{k} from the in-memory trace differs from the run's"
                     for k in metric_mismatches(memory, got, REFERENCE_RTOL)]
        back = metrics_dict(result.readback_metrics)
        problems += [f"{k} from the read-back trace differs from the run's"
                     for k in metric_mismatches(back, got, READBACK_RTOL)]
        report = result.report
        if not (np.all(report.rms_pos_ratio == 1.0)
                and metrics_dict(report.metrics[0]) == back):
            problems.append("compare_runs disagrees with metrics_from_trace")
    return problems
