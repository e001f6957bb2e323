"""Tests of the benchmark's own code: span accounting, failure counting,
kernel call counts, output checks and the metric names in BENCHMARK.json.

Run with: python -m pytest perfbench/tests
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import env
import run
import tracing
import workloads

BENCHMARK_JSON = env.HERE.parent / "BENCHMARK.json"

SMALL_GRID = {"rbf": {"points_per_dim": 2}, "simulation": {"duration": 1.0}}


def _scenario_file(tmp_path, workload, seed=0):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(workload.scenario_for(seed)))
    return path


def _traced_request(tmp_path, workload):
    tracer = tracing.Tracer()
    scenario = _scenario_file(tmp_path, workload)
    with tracing.installed(tracer):
        call = tracer.wrap(tracing.REQUEST_SPAN, workloads.request)
        start = time.perf_counter()
        result = call(workload, scenario, tmp_path / "trace.csv")
        wall = time.perf_counter() - start
    return tracer, result, wall


class TestSpanAccounting:
    def test_self_times_exclude_nested_children(self):
        ticks = itertools.count()
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

        def leaf():
            pass

        traced_leaf = tracer.wrap("leaf", leaf)

        def middle():
            traced_leaf()
            traced_leaf()

        traced_middle = tracer.wrap("middle", middle)
        tracer.wrap("root", lambda: (traced_middle(), traced_leaf()))()

        calls, self_s = tracer.summary()
        assert calls == {"root": 1, "middle": 1, "leaf": 3}
        # Every span reads the clock once on entry and once on exit, so each
        # leaf lasts one tick and each parent adds one tick per boundary it
        # shares with a child.
        assert self_s == {"leaf": 3.0, "middle": 3.0, "root": 3.0}
        root_start, root_end = tracer.spans[0][1:3]
        assert sum(self_s.values()) == root_end - root_start

    def test_recursive_spans_are_not_counted_twice(self):
        ticks = itertools.count()
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        holder = {}

        def recurse(depth):
            if depth:
                holder["fn"](depth - 1)

        holder["fn"] = tracer.wrap("recurse", recurse)
        holder["fn"](3)
        calls, self_s = tracer.summary()
        assert calls == {"recurse": 4}
        root_start, root_end = tracer.spans[0][1:3]
        assert self_s["recurse"] == root_end - root_start

    def test_self_times_sum_to_traced_wall_time(self, tmp_path):
        workload = workloads.Workload("small", {**SMALL_GRID, "disturbance": {"type": "markov"}})
        tracer, _, wall = _traced_request(tmp_path, workload)
        _, self_s = tracer.summary()
        total = sum(self_s.values())
        root_start, root_end = tracer.spans[0][1:3]
        assert total == pytest.approx(root_end - root_start, rel=1e-9)
        # The only time outside the root span is one wrapper's entry and exit.
        assert 0.0 < wall - total < 0.01 * wall + 1e-3

    def test_wrappers_are_removed_after_the_request(self, tmp_path):
        from dpsim import controllers, disturbance, kernels, simulate, vessel

        before = (kernels.adaptive_core, simulate.rotation_matrix, controllers.rotation_matrix,
                  vessel.rotation_matrix, vars(disturbance.MarkovBias)["step"])
        _traced_request(tmp_path, workloads.Workload("small", SMALL_GRID))
        after = (kernels.adaptive_core, simulate.rotation_matrix, controllers.rotation_matrix,
                 vessel.rotation_matrix, vars(disturbance.MarkovBias)["step"])
        assert after == before


@pytest.mark.parametrize("controller", ["adaptive-nn", "nn-fixed"])
def test_kernel_calls_are_four_per_step_plus_one(tmp_path, controller):
    if not hasattr(__import__("dpsim.kernels").kernels, "adaptive_core"):
        pytest.skip("dpsim.kernels.adaptive_core no longer exists")
    workload = workloads.Workload("small", {**SMALL_GRID, "controller": {"type": controller}})
    tracer, result, _ = _traced_request(tmp_path, workload)
    calls, _ = tracer.summary()
    assert result.steps == 10
    assert calls["kernels.adaptive_core"] == 4 * result.steps + 1
    assert calls["approximators.RbfNetwork.grid"] == 1


def test_diverging_request_counts_as_failed(tmp_path):
    # The unstable law turns the weight leak into exponential growth; a large
    # adaptation gain makes it overflow within a few simulated seconds.
    diverging = workloads.Workload("diverge", {
        "controller": {"adaptation_law": "unstable", "gamma": 100.0},
        "rbf": {"points_per_dim": 2}, "simulation": {"duration": 20.0}})
    session = run.Session(diverging, 0, tmp_path, {"diverge": {}})
    samples = run.closed_loop(session, 0.2)
    assert samples == []
    assert session.attempted >= 2
    assert session.failed == session.attempted
    assert session.problems[0].startswith("SimulationAbort")


class TestOutputCheck:
    def _result(self, tmp_path):
        workload = workloads.WORKLOADS["pid-markov-io"]
        scenario = _scenario_file(tmp_path, workload, seed=5)
        result = workloads.request(workload, scenario, tmp_path / "trace.csv")
        result.digest = workloads.trace_digest(tmp_path / "trace.csv")
        return workload, result

    def test_reference_run_passes(self, tmp_path):
        workload, result = self._result(tmp_path)
        refs = workloads.load_references()
        assert workloads.check(workload, 5, result, refs, result.digest) == []
        assert workloads.check(workload, 5 + workloads.REFERENCE_SEEDS, result, refs, None) == []

    def test_drift_beyond_tolerance_and_changed_bytes_fail(self, tmp_path):
        workload, result = self._result(tmp_path)
        refs = json.loads(json.dumps(workloads.load_references()))
        ref = refs[workload.name]["5"]
        ref["steady_rms_pos"] *= 1 + 1e-8
        problems = workloads.check(workload, 5, result, refs, "0" * 64)
        assert problems == ["steady_rms_pos differs from the reference",
                            "trace CSV bytes differ from the first request's"]

    def test_infinities_compare_equal(self):
        got = {"convergence_time": math.inf, "steady_rms_pos": 1.0, "steady_rms_psi": 2.0,
               "peak_tau": [1.0, 2.0, 3.0], "weight_sup": 0.0}
        assert workloads.metric_mismatches(got, dict(got), 1e-9) == []
        assert workloads.metric_mismatches(got, {**got, "convergence_time": 40.0}, 1e-9) \
            == ["convergence_time"]


def test_reported_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads(BENCHMARK_JSON.read_text())
    session = run.Session(workloads.WORKLOADS["pid-markov-io"], 1, tmp_path,
                          workloads.load_references())
    samples = run.closed_loop(session, 1.0, traced_every_other=True)
    assert session.failed == 0 and len(samples) >= 2
    layer_values, _ = run.per_layer_metrics(session, samples)
    e2e_values, _ = run.end_to_end_metrics(session, samples, [(0.5, 1.0)])
    for values, entries in ((layer_values, spec["per_layer"]), (e2e_values, spec["end_to_end"])):
        assert {name: unit for name, (_, unit) in values.items()} \
            == {m["name"]: m["unit"] for m in entries}
    assert layer_values["kernels.adaptive_core.calls"][0] == 0
    assert set(spec["workloads"][i]["name"] for i in range(3)) == set(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(env.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pid-markov-io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "cannot import dpsim" in proc.stderr
