import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import dpsim
from dpsim import kernels, simulate
from dpsim.approximators import AdaptiveWeights, RbfNetwork, gaussian_basis, row_norms
from dpsim.cli import main as cli_main
from dpsim.config import build_components, default_scenario, parse_scenario
from dpsim.controllers import BackstepGains, PidController, PidGains
from dpsim.disturbance import ConstantDisturbance, MarkovBias
from dpsim.simulate import (FOLD_STEPS, SimulationAbort, compare_runs, metrics_from_trace,
                            run_simulation, simulate_adaptive, simulate_pid)
from dpsim.traces import TRACE_COLUMNS, RunTrace, read_trace_csv, write_trace_csv
from dpsim.vessel import VesselParams, rotation_matrix, ssa, wrap_angle, yaw_cos_sin

from oracles import (compute_alpha1, joint_rk4_states, plant_derivative, pose_error,
                     rk4_step)

CONTROLLERS = ("pid", "adaptive-nn", "nn-fixed")


def small_cfg(**overrides):
    """512-node grid, short horizon; fast enough for per-test runs."""
    return replace(default_scenario(), **{"points_per_dim": 2, "duration": 40.0, **overrides})


class TestRunSimulation:
    def test_equilibrium_run_stays_put(self):
        cfg = small_cfg(controller_type="pid",
                        constant_delta=np.zeros(3),
                        initial_pose=np.zeros(3))
        trace, metrics = run_simulation(cfg)
        assert metrics.convergence_time == 0.0
        np.testing.assert_allclose(trace.pose, np.zeros_like(trace.pose), atol=1e-9)
        np.testing.assert_allclose(trace.tau, np.zeros_like(trace.tau), atol=1e-9)

    def test_trace_shape_and_grid(self):
        cfg = small_cfg(decimation=10)
        trace, _ = run_simulation(cfg)
        assert len(trace) == 40 / (0.1 * 10) + 1
        assert (np.diff(trace.t) > 0).all()
        np.testing.assert_allclose(np.diff(trace.t), 1.0, rtol=1e-12)

    def test_determinism_in_memory_and_on_disk(self, tmp_path):
        results = []
        for _ in range(2):
            cfg = small_cfg(disturbance_type="markov")
            results.append(run_simulation(cfg))
        (trace_a, _), (trace_b, _) = results
        np.testing.assert_array_equal(trace_a.data, trace_b.data)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(pa, trace_a)
        write_trace_csv(pb, trace_b)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_decimation_leaves_metrics_unchanged(self, controller):
        _, m_full = run_simulation(small_cfg(controller_type=controller, decimation=1))
        _, m_dec = run_simulation(small_cfg(controller_type=controller, decimation=10))
        assert m_full.convergence_time == m_dec.convergence_time
        assert m_full.steady_rms_pos == m_dec.steady_rms_pos
        assert m_full.steady_rms_psi == m_dec.steady_rms_psi
        np.testing.assert_array_equal(m_full.peak_tau, m_dec.peak_tau)
        assert m_full.weight_sup == m_dec.weight_sup

    @pytest.mark.parametrize("overrides", [
        pytest.param(dict(controller_type="pid"), id="pid"),
        pytest.param(dict(controller_type="adaptive-nn"), id="adaptive-nn"),
        pytest.param(dict(controller_type="pid", pid_frame="earth",
                          target_pose=np.array([3.0, -2.0, math.radians(-100.0)])),
                     id="pid-earth-nonzero-target"),
    ])
    def test_metrics_from_trace_matches_run(self, overrides):
        # an undecimated trace holds exactly what the run's metrics were
        # computed from, the target included
        trace, metrics = run_simulation(small_cfg(**overrides))
        recomputed = metrics_from_trace(trace)
        assert recomputed.convergence_time == metrics.convergence_time
        assert recomputed.steady_rms_pos == metrics.steady_rms_pos
        assert recomputed.steady_rms_psi == metrics.steady_rms_psi
        np.testing.assert_array_equal(recomputed.peak_tau, metrics.peak_tau)
        assert recomputed.weight_sup == metrics.weight_sup

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_blowup_aborts_with_last_finite_sample(self, controller):
        # dt far beyond the RK4 stability limit of the stiff yaw axis
        cfg = small_cfg(controller_type=controller, dt=50.0, duration=20000.0)
        with pytest.raises(SimulationAbort) as excinfo:
            run_simulation(cfg)
        abort = excinfo.value
        assert abort.t_failed == pytest.approx(abort.t_last + cfg.dt)
        assert np.isfinite(abort.pose).all()
        assert np.isfinite(abort.velocity).all()
        assert "last finite sample" in str(abort)

    def test_pid_blowup_aborts_at_the_same_step(self):
        # the abort step is that of an engine that called the held law at every
        # RK4 stage; the pose and velocity of this diverging run rest on the
        # last bit of the law's sum order, which the divergence amplifies
        cfg = small_cfg(controller_type="pid", dt=50.0, duration=20000.0)
        with pytest.raises(SimulationAbort) as excinfo:
            run_simulation(cfg)
        abort = excinfo.value
        assert abort.t_failed == 10200.0
        assert abort.t_last == 10150.0
        np.testing.assert_allclose(
            abort.pose, [-3.704539711737139e+300, -1.0704325803278611e+300,
                         -5.861145628233066e+299], rtol=1e-12)
        np.testing.assert_allclose(
            abort.velocity, [-4.0192227493137324e+297, -4.240728127350392e+299,
                             7.006579599113839e+298], rtol=1e-12)

    def test_state_whose_sum_overflows_runs_on(self):
        # six finite floats whose sum overflows: the engine's one-sum finite
        # test falls through to the float-by-float test, and the run goes on;
        # zero gains and a zero load from rest keep every state where it began,
        # which is the target, so that no error term overflows either
        zero, start = np.zeros((3, 3)), [1e308, 1e308, 0.0, 0.0, 0.0, 0.0]
        cfg, states = small_cfg(), []
        simulate_pid(VesselParams(cfg.m_matrix, cfg.d_matrix),
                     PidController(PidGains(zero, zero, zero)),
                     ConstantDisturbance(np.zeros(3)), eta0=start[:3], nu0=start[3:],
                     eta_d=start[:3], dt=0.1, duration=2.0,
                     probe=lambda t, info: states.append([*info["eta"], *info["nu"]]))
        assert len(states) == 21 and math.isinf(sum(start))
        assert np.array(states).tobytes() == np.array([start] * 21).tobytes()

    @pytest.mark.parametrize("controller", ["pid", "nn-fixed"])
    def test_stage_yaw_that_overflows_aborts(self, controller):
        # stage 1's yaw is psi + (dt / 2) r = 5 * 1.7e308 = +inf, whose cosine
        # and sine are nan: the run aborts at the end of its first step
        cfg = small_cfg(controller_type=controller, dt=10.0, duration=40.0,
                        initial_velocity=np.array([0.0, 0.0, 1.7e308]))
        with pytest.raises(SimulationAbort) as excinfo:
            run_simulation(cfg)
        assert excinfo.value.t_failed == cfg.dt and excinfo.value.t_last == 0.0

    def test_overflowing_weights_abort_at_the_same_step(self):
        # gamma 100 under the unstable law multiplies the weights by about 1e4
        # per step until they overflow; the values are those of integrating
        # all 3 l weights as RK4 state, which aborted at the same step (the
        # heading passes pi, so they are those of the law with its heading
        # error wrapped)
        cfg = parse_scenario({"controller": {"adaptation_law": "unstable", "gamma": 100.0},
                              "rbf": {"points_per_dim": 2},
                              "simulation": {"duration": 20.0}})
        with pytest.raises(SimulationAbort) as excinfo:
            run_simulation(cfg)
        abort = excinfo.value
        assert abort.t_failed == 7.7
        assert abort.t_last == 76 * 0.1
        np.testing.assert_allclose(
            abort.pose, [-279.9132717299111, 949.4268320604897, 3.9339613641945905],
            rtol=1e-12)
        np.testing.assert_allclose(
            abort.velocity, [204.56862046081278, 128.88224194077802, 0.8504333944467191],
            rtol=1e-12)

    @pytest.mark.parametrize("law", ["stable", "unstable"])
    def test_adaptive_run_matches_dense_joint_rk4(self, law):
        # oracle: all 3 l weights integrated as ordinary RK4 state with the plant
        cfg = small_cfg(duration=5.0)
        steps = cfg.steps()
        plant = VesselParams(cfg.m_matrix, cfg.d_matrix)
        network = RbfNetwork.grid(cfg.rbf_ranges, cfg.points_per_dim, cfg.rbf_width)
        weights0 = AdaptiveWeights.random_init(network.node_count, cfg.weight_seed)
        gains = BackstepGains(cfg.k1, cfg.k2, (0.5, 2.0, 6.0), cfg.sigma, law=law)
        n = network.node_count
        y = joint_rk4_states(plant, gains, network, weights0,
                             ConstantDisturbance(cfg.constant_delta),
                             eta0=cfg.initial_pose, nu0=cfg.initial_velocity,
                             eta_d=cfg.target_pose, dt=cfg.dt, steps=steps)[-1]
        trace, _ = simulate_adaptive(
            plant, gains, network, weights0, ConstantDisturbance(cfg.constant_delta),
            eta0=cfg.initial_pose, nu0=cfg.initial_velocity, eta_d=cfg.target_pose,
            dt=cfg.dt, duration=cfg.duration)
        assert len(trace) == steps + 1
        np.testing.assert_allclose(trace.pose[-1], y[:3], rtol=1e-12)
        np.testing.assert_allclose(trace.velocity[-1], y[3:6], rtol=1e-12)
        np.testing.assert_allclose(trace.final_theta, y[6:].reshape(3, n), rtol=1e-12)
        # the weights moved well beyond rounding on every axis
        change = np.linalg.norm(trace.final_theta - weights0.theta, axis=1)
        assert (change > 1e-3 * row_norms(weights0.theta)).all()

    @pytest.mark.parametrize("adapt", [True, False], ids=["adaptive-nn", "nn-fixed"])
    def test_weights_of_another_network_size_are_rejected(self, adapt):
        cfg = small_cfg()
        network = RbfNetwork.grid(cfg.rbf_ranges, cfg.points_per_dim, cfg.rbf_width)
        gains = BackstepGains(cfg.k1, cfg.k2, cfg.gamma, cfg.sigma)
        with pytest.raises(ValueError, match="network size"):
            simulate_adaptive(VesselParams(cfg.m_matrix, cfg.d_matrix), gains, network,
                              AdaptiveWeights.zeros(network.node_count + 1),
                              ConstantDisturbance(cfg.constant_delta), eta0=cfg.initial_pose,
                              nu0=cfg.initial_velocity, eta_d=cfg.target_pose, dt=cfg.dt,
                              duration=cfg.duration, adapt=adapt)

    def test_unstable_adaptation_law_is_selectable(self):
        stable, _ = run_simulation(small_cfg())
        unstable, _ = run_simulation(small_cfg(adaptation_law="unstable"))
        # leak sign flips: stable decays the initial weight norms, the
        # flipped variant grows them exponentially (fastest where gamma*sigma
        # is largest)
        assert stable.theta_norms[-1].max() < stable.theta_norms[0].max()
        assert (unstable.theta_norms[-1] > unstable.theta_norms[0]).all()
        assert unstable.theta_norms[-1].max() > 1000 * unstable.theta_norms[0].max()

    def test_nn_fixed_keeps_weights(self):
        trace, _ = run_simulation(small_cfg(controller_type="nn-fixed"))
        np.testing.assert_allclose(trace.theta_norms[-1], trace.theta_norms[0],
                                   rtol=1e-12)

    def test_nn_fixed_weights_are_bitwise_initial(self):
        cfg = small_cfg(duration=10.0)
        network = RbfNetwork.grid(cfg.rbf_ranges, cfg.points_per_dim, cfg.rbf_width)
        weights0 = AdaptiveWeights.random_init(network.node_count, cfg.weight_seed)
        gains = BackstepGains(cfg.k1, cfg.k2, cfg.gamma, cfg.sigma,
                              node_count=network.node_count)
        seen = []
        trace, _ = simulate_adaptive(
            VesselParams(cfg.m_matrix, cfg.d_matrix), gains, network, weights0,
            ConstantDisturbance(cfg.constant_delta), eta0=cfg.initial_pose,
            nu0=cfg.initial_velocity, eta_d=cfg.target_pose, dt=cfg.dt,
            duration=cfg.duration, adapt=False,
            probe=lambda t, info: seen.append(info["theta"]))
        assert len(seen) == cfg.steps() + 1
        np.testing.assert_array_equal(trace.final_theta, weights0.theta)
        for theta in seen:
            np.testing.assert_array_equal(theta, weights0.theta)

    def test_nn_fixed_reads_the_weights_in_place(self):
        # a frozen run neither copies the weights nor takes their norms through
        # a temporary of their size, so it allocates less than the weights hold
        cfg = replace(default_scenario(), controller_type="nn-fixed", duration=4.0)
        parts = build_components(cfg)
        weights0 = AdaptiveWeights.random_init(parts.network.node_count, cfg.weight_seed)
        initial = weights0.theta.copy()
        tracemalloc.start()
        try:
            trace, _ = simulate_adaptive(
                parts.plant, parts.gains, parts.network, weights0, parts.disturbance,
                eta0=cfg.initial_pose, nu0=cfg.initial_velocity, eta_d=cfg.target_pose,
                dt=cfg.dt, duration=cfg.duration, adapt=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < weights0.theta.nbytes, (peak, weights0.theta.nbytes)
        np.testing.assert_array_equal(weights0.theta, initial)
        assert np.shares_memory(trace.final_theta, weights0.theta)
        assert not trace.final_theta.flags.writeable

    def test_adaptive_run_keeps_one_weight_array(self):
        # run_simulation integrates the weights it drew in place, and the fold
        # goes through a buffer of one axis: besides those weights (1 x theta)
        # the run allocates less than theta holds; a private copy of the
        # weights or a theta-sized fold product would take the peak past 2 x
        cfg = replace(default_scenario(), duration=4.0)
        assert cfg.controller_type == "adaptive-nn"
        nbytes = 3 * cfg.components.network.node_count * 8
        run_simulation(cfg)     # a first run imports the modules numpy's generator needs
        tracemalloc.start()
        try:
            trace, _ = run_simulation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.final_theta.nbytes == nbytes
        assert peak < 2 * nbytes, (peak, nbytes)

    @pytest.mark.parametrize("adapt", [True, False], ids=["adaptive-nn", "nn-fixed"])
    def test_probe_basis_is_the_basis_at_the_probed_state(self, adapt):
        cfg = small_cfg(duration=2.0)
        network = RbfNetwork.grid(cfg.rbf_ranges, cfg.points_per_dim, cfg.rbf_width)
        weights0 = AdaptiveWeights.random_init(network.node_count, cfg.weight_seed)
        gains = BackstepGains(cfg.k1, cfg.k2, cfg.gamma, cfg.sigma)
        seen = []
        simulate_adaptive(
            VesselParams(cfg.m_matrix, cfg.d_matrix), gains, network, weights0,
            ConstantDisturbance(cfg.constant_delta), eta0=cfg.initial_pose,
            nu0=cfg.initial_velocity, eta_d=cfg.target_pose, dt=cfg.dt,
            duration=cfg.duration, adapt=adapt, probe=lambda t, info: seen.append(info))
        assert len(seen) == cfg.steps() + 1
        for info in seen:
            z = np.concatenate([info["eta"], info["nu"], info["alpha1"]])
            np.testing.assert_array_equal(info["basis"], gaussian_basis(network, z))

    def test_saturation_respected(self):
        cfg = small_cfg(controller_type="pid", tau_max=np.array([1e4, 1e4, 1e5]))
        trace, metrics = run_simulation(cfg)
        assert (np.abs(trace.tau) <= np.array([1e4, 1e4, 1e5]) + 1e-9).all()
        assert (metrics.peak_tau <= np.array([1e4, 1e4, 1e5]) + 1e-9).all()

    def test_bounded_signals_smoke(self):
        trace, metrics = run_simulation(small_cfg(duration=120.0))
        assert np.isfinite(trace.data).all()
        pos_err = np.hypot(trace.pose[:, 0], trace.pose[:, 1])
        assert pos_err.max() < 10.0 * pos_err[0]
        assert metrics.weight_sup < 10.0 * trace.theta_norms[0].max()

    @pytest.mark.parametrize("controller", ["pid", "adaptive-nn"])
    def test_heading_target_across_the_seam_is_reached_the_short_way(self, controller):
        # start at 170 deg, target -170 deg: the heading error is -20 deg, not
        # 340 deg, so the run is that of the same target written as 190 deg
        runs = []
        for target_yaw in (-170.0, 190.0):
            cfg = parse_scenario({"controller": {"type": controller},
                                  "rbf": {"points_per_dim": 2},
                                  "simulation": {"duration": 200.0,
                                                 "initial_pose": [10.0, 10.0, 170.0],
                                                 "target_pose": [0.0, 0.0, target_yaw]}})
            runs.append(run_simulation(cfg))
        (seam, seam_metrics), (plain, plain_metrics) = runs
        yaw = np.degrees(np.unwrap(seam.pose[:, 2]))
        assert yaw.min() > 169.0 and yaw.max() < 200.0      # it turns towards 190 deg
        assert yaw[-1] > 175.0
        np.testing.assert_allclose(seam.pose[:, 2], plain.pose[:, 2], rtol=0, atol=1e-9)
        np.testing.assert_allclose(seam.v1, plain.v1, rtol=1e-9)
        np.testing.assert_allclose(seam_metrics.peak_tau[2], plain_metrics.peak_tau[2],
                                   rtol=1e-9)
        assert seam_metrics.steady_rms_psi == pytest.approx(plain_metrics.steady_rms_psi,
                                                            rel=1e-9)

    def test_convergence_time_dt_halving(self, converging_gains):
        # strengthened gains give an actually converging loop; halving dt
        # must not move the convergence time by more than 5%
        k1, k2 = converging_gains

        def conv(dt):
            cfg = small_cfg(duration=150.0, dt=dt, k1=k1, k2=k2)
            _, metrics = run_simulation(cfg)
            return metrics.convergence_time

        c_coarse, c_fine = conv(0.1), conv(0.05)
        assert math.isfinite(c_coarse)
        assert abs(c_coarse - c_fine) / c_coarse < 0.05


def counting_calls(monkeypatch, module, name):
    """A list that gets one entry per call of ``module.name`` from now on."""
    calls, func = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or func(*args))
    return calls


def counting_cosines(monkeypatch):
    """A list that gets one entry per ``math.cos`` the engine takes from now on."""
    engine_math = types.SimpleNamespace(**vars(math))
    monkeypatch.setattr(simulate, "math", engine_math)
    return counting_calls(monkeypatch, engine_math, "cos")


class TestDeferredFold:
    """The weights are formed every FOLD_STEPS steps and their norms kept by the Gram identity."""

    def run(self, steps, probe=None):
        """A 2^9 run of ``steps`` steps: (cfg, components, weights0, trace, metrics)."""
        cfg = small_cfg(duration=steps * 0.1)
        parts = build_components(cfg)
        weights0 = AdaptiveWeights.random_init(parts.network.node_count, cfg.weight_seed)
        return (cfg, parts, weights0, *simulate_adaptive(
            parts.plant, parts.gains, parts.network, weights0, parts.disturbance,
            eta0=cfg.initial_pose, nu0=cfg.initial_velocity, eta_d=cfg.target_pose,
            dt=cfg.dt, duration=cfg.duration, probe=probe))

    @pytest.mark.parametrize("extra", [1, 3])
    def test_last_norms_are_those_of_the_final_weights(self, extra):
        # the run ends between two folds; its last weights are folded at the end
        trace = self.run(5 * FOLD_STEPS + extra)[3]
        np.testing.assert_allclose(trace.theta_norms[-1],
                                   np.linalg.norm(trace.final_theta, axis=1), rtol=1e-12)

    def test_probe_changes_nothing_and_sees_the_weights(self, tmp_path):
        steps = 2 * FOLD_STEPS + 3
        seen = []
        cfg, parts, weights0, probed, probed_metrics = self.run(
            steps, probe=lambda t, info: seen.append(info["theta"]))
        *_, trace, metrics = self.run(steps)
        for name, run in (("probed", probed), ("plain", trace)):
            write_trace_csv(tmp_path / f"{name}.csv", run)
        assert (tmp_path / "probed.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        for field in metrics.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(probed_metrics, field),
                                          getattr(metrics, field))
        states = joint_rk4_states(parts.plant, parts.gains, parts.network, weights0,
                                  ConstantDisturbance(cfg.constant_delta), eta0=cfg.initial_pose,
                                  nu0=cfg.initial_velocity, eta_d=cfg.target_pose,
                                  dt=cfg.dt, steps=steps)
        assert len(seen) == steps + 1
        for theta, state in zip(seen, states):
            np.testing.assert_allclose(theta, state[6:].reshape(theta.shape), rtol=1e-12)

    @pytest.mark.parametrize("steps", [4 * FOLD_STEPS, 4 * FOLD_STEPS + 3])
    def test_folds_once_per_fold_steps_and_every_step_under_a_probe(self, monkeypatch, steps):
        calls = counting_calls(monkeypatch, kernels, "fold")
        self.run(steps)
        assert len(calls) == math.ceil(steps / FOLD_STEPS) < steps
        calls.clear()
        self.run(steps, probe=lambda t, info: None)
        assert len(calls) == steps


class TestLawCalls:
    """A held law is called once per step; a law whose tau moves within the step, at every stage."""

    STEPS = 20

    def test_pid_law_is_called_once_per_step(self, monkeypatch):
        stages = []
        closed_loop = simulate._closed_loop

        def counted_loop(plant, law, *args, **kwargs):
            control, *rest = law

            def counted(y, c, s, stage):
                stages.append(stage)
                return control(y, c, s, stage)

            return closed_loop(plant, (counted, *rest), *args, **kwargs)

        monkeypatch.setattr(simulate, "_closed_loop", counted_loop)
        rotations = counting_cosines(monkeypatch)
        run_simulation(small_cfg(controller_type="pid", duration=self.STEPS * 0.1))
        assert stages == [0] * (self.STEPS + 1)
        # the engine still rotates at every stage
        assert len(rotations) == 4 * self.STEPS + 1

    def test_pid_law_uses_the_engine_rotation(self, monkeypatch):
        engine = counting_cosines(monkeypatch)
        run_simulation(small_cfg(controller_type="pid", duration=self.STEPS * 0.1))
        assert len(engine) == 4 * self.STEPS + 1
        # the law rotates by the (c, s) it is given, here those of a zero yaw
        # while psi is 0.3, and takes no rotation of its own
        pid = PidController(PidGains(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3))))
        tau = pid.bind((0.0, 0.0, 0.0), 0.1)((1.0, 2.0, 0.3, 0.0, 0.0, 0.0), 1.0, 0.0)
        np.testing.assert_array_equal(tau, [-1.0, -2.0, -0.3])

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_markov_load_takes_one_step_per_step(self, controller):
        cfg = small_cfg(controller_type=controller, disturbance_type="markov",
                        duration=self.STEPS * 0.1)
        run_simulation(cfg)
        fresh = MarkovBias(cfg.time_constants, cfg.noise_scale, cfg.disturbance_seed,
                           cfg.initial_bias)
        for _ in range(self.STEPS):
            fresh.step(cfg.dt)
        assert np.array(cfg.components.disturbance.b).tobytes() == np.array(fresh.b).tobytes()

    @pytest.mark.parametrize("controller", ["adaptive-nn", "nn-fixed"])
    def test_network_laws_run_at_every_stage(self, monkeypatch, controller):
        cores = counting_calls(monkeypatch, kernels, "adaptive_core")
        rotations = counting_cosines(monkeypatch)
        run_simulation(small_cfg(controller_type=controller, duration=self.STEPS * 0.1))
        assert len(cores) == len(rotations) == 4 * self.STEPS + 1


# A plant with sway-yaw coupling in M and D, neither symmetric, so that a
# transposed or shifted index in the engine's unrolled products shows.
COUPLED_M = np.array([[5.3e6, 0.0, 0.0], [0.0, 8.3e6, -2.1e7], [0.0, 3.4e7, 3.7e9]])
COUPLED_D = np.array([[5.0e4, 0.0, 0.0], [0.0, 2.7e5, -4.4e6], [0.0, -2.9e6, 4.2e8]])
COUPLED_LOAD = np.array([1000.0, -2000.0, 1.5e5])
COUPLED_START = dict(eta0=np.array([10.0, -6.0, 0.7]), nu0=np.array([0.2, -0.1, 0.01]),
                     eta_d=np.array([1.0, 2.0, -0.3]), dt=0.1)


COUPLED_K1 = np.array([[0.04, 0.01, 0.002], [0.01, 0.06, -0.003], [0.002, -0.003, 0.8]])
COUPLED_K2 = np.array([[5e4, 1e4, 2e3], [1e4, 6e4, -3e3], [2e3, -3e3, 5e4]])
COUPLED_PID = (np.array([[3e3, 500.0, -20.0], [-400.0, 9e3, 1e3], [2e4, -3e4, 1e8]]),
               np.array([[5.0, 1.0, 0.0], [0.0, 50.0, -2.0], [3.0, 0.0, 30.0]]),
               np.array([[5e4, -1e3, 0.0], [2e3, 7e4, 1e4], [0.0, 5e3, 300.0]]))
# 177 deg turning at 0.05 rad/s towards a target of -170 deg: the heading error
# is -13 deg, not 347 deg, and the heading passes +-pi after about a second
SEAM_START = dict(eta0=np.array([10.0, -6.0, math.radians(177.0)]),
                  nu0=np.array([0.2, -0.1, 0.05]),
                  eta_d=np.array([1.0, 2.0, math.radians(-170.0)]), dt=0.1)


def energies(eta, z2, eta_d, M):
    """Oracle V1 = |z1|^2 / 2 and V2 = V1 + z2' M z2 / 2, z1 = pose_error(eta, eta_d), per row."""
    z1 = np.array([pose_error(row, eta_d) for row in eta])
    v1 = 0.5 * (z1 * z1).sum(axis=1)
    return v1, v1 + 0.5 * np.einsum("ki,ij,kj->k", z2, M, z2)


def wrapped(states):
    """The pose columns of oracle states with the yaw wrapped, as a trace holds them."""
    return np.column_stack([states[:, :2], wrap_angle(states[:, 2])])


def pid_rk4_rows(plant, pid, frame, load, *, eta0, nu0, eta_d, dt, steps):
    """Rows [eta, nu, tau, delta] of a PID run with gains ``pid`` = (Kp, Ki, Kd), yaw unwrapped.

    The oracle PID: the three products, trapezoid integral, numpy rotations;
    the plant is oracles.plant_derivative under rk4_step, tau held per step.
    ``load`` is read through ``body_load(cos psi, sin psi)`` at the start of
    each step and advanced by ``step(dt)`` after it.
    """
    Kp, Ki, Kd = pid
    y = np.concatenate([eta0, nu0])
    integral, prev, rows = np.zeros(3), None, []
    for _ in range(steps + 1):
        R = rotation_matrix(y[2])
        diff = pose_error(eta_d, y[:3])
        if frame == "earth":
            err, rate = diff, -(R @ y[3:])
        else:
            err, rate = np.append((R.T @ [diff[0], diff[1], 0.0])[:2], diff[2]), -y[3:]
        if prev is not None:
            integral = integral + 0.5 * dt * (prev + err)
        prev = err
        tau = Kp @ err + Ki @ integral + Kd @ rate
        delta = np.array(load.body_load(np.cos(y[2]), np.sin(y[2])))
        rows.append(np.concatenate([y, tau, delta]))
        y = rk4_step(y, dt, lambda s: np.concatenate(
            plant_derivative(s[:3], s[3:], plant, tau, delta)))
        load.step(dt)
    return np.array(rows)


def assert_close(actual, want, per_column=False):
    """rtol 1e-12; with ``per_column``, also within 1e-12 of each column's largest magnitude.

    Drawn runs need the second where a component passes through zero, since
    there the engine's sums and the oracle's round differently.
    """
    want = np.asarray(want)
    if per_column:
        scale = np.abs(want).max(axis=0)
        scale[scale == 0.0] = 1.0
        actual, want = actual / scale, want / scale
    np.testing.assert_allclose(actual, want, rtol=1e-12, atol=1e-12 if per_column else 0.0)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def scaled(draw, scales, full, coupling=0.3):
    """diag(r) C diag(r), r_i = sqrt of a draw from ``scales[i]``, C with unit diagonal.

    The off-diagonal positions of C listed in ``full`` get entries drawn from
    [-coupling, coupling], the others stay 0; at 0.3, C stays diagonally
    dominant.
    """
    root = np.sqrt([draw(log_uniform(lo, hi)) for lo, hi in scales])
    c = np.eye(3)
    for i, j in full:
        c[i, j] = draw(st.floats(-coupling, coupling))
    return root[:, None] * c * root[None, :]


def symmetric(draw, scales):
    """A symmetric positive definite gain, full or diagonal."""
    k = scaled(draw, scales, [(0, 1), (0, 2), (1, 2)] if draw(st.booleans()) else [])
    return np.triu(k) + np.triu(k, 1).T


@st.composite
def drawn_runs(draw):
    """(plant, load factory, start, steps, weight seed) of a short drawn run at dt 0.1.

    M and D keep the plant's structural zeros (surge decouples from sway and
    yaw); the load is constant or a Markov bias; start and target headings
    lie anywhere in [-pi, pi], so the heading error crosses the seam.
    """
    sway_yaw = [(1, 2), (2, 1)]
    plant = VesselParams(scaled(draw, [(1e6, 1e7), (1e6, 1e7), (1e9, 1e10)], sway_yaw),
                         scaled(draw, [(1e4, 1e5), (1e5, 1e6), (1e8, 1e9)], sway_yaw))
    amplitude = np.array([5e3, 5e3, 2e5])
    bias = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) * amplitude
    if draw(st.booleans()):
        load = lambda: ConstantDisturbance(bias)      # noqa: E731
    else:
        time_constants = [draw(log_uniform(10.0, 1e3)) for _ in range(3)]
        noise = [draw(st.floats(0.0, 0.1)) * a for a in amplitude]
        seed = draw(st.integers(0, 2 ** 16))
        load = lambda: MarkovBias(time_constants, noise, seed, bias)      # noqa: E731
    position, heading = st.floats(-20.0, 20.0), st.floats(-math.pi, math.pi)
    start = dict(eta0=np.array([draw(position), draw(position), draw(heading)]),
                 nu0=np.array([draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)),
                               draw(st.floats(-0.05, 0.05))]),
                 eta_d=np.array([draw(position), draw(position), draw(heading)]), dt=0.1)
    return plant, load, start, draw(st.integers(10, 30)), draw(st.integers(0, 2 ** 16))


@st.composite
def backstep_gains(draw):
    """SPD K1 and K2, per-axis gamma and sigma with gamma sigma dt < 2.785 at dt 0.1, and
    either law."""
    k1 = symmetric(draw, [(0.01, 0.1), (0.01, 0.1), (0.1, 1.0)])
    k2 = symmetric(draw, [(1e4, 1e5), (1e4, 1e5), (1e4, 1e8)])
    sigma = np.array([draw(log_uniform(0.05, 5.0)) for _ in range(3)])
    leak = np.array([draw(log_uniform(1e-3, 2.7)) for _ in range(3)])     # gamma sigma dt
    return BackstepGains(k1, k2, leak / (sigma * 0.1), sigma,
                         law=draw(st.sampled_from(["stable", "unstable"])))


@st.composite
def pid_gains(draw):
    """(Kp, Ki, Kd), each with its own diagonal scales and coupled off-diagonal entries."""
    anywhere = [(i, j) for i in range(3) for j in range(3) if i != j]
    return (scaled(draw, [(1e3, 1e5), (1e3, 1e5), (1e6, 1e8)], anywhere),
            scaled(draw, [(1.0, 1e2), (1.0, 1e2), (1e2, 1e4)], anywhere),
            scaled(draw, [(1e4, 1e6), (1e4, 1e6), (1e7, 1e9)], anywhere))


COUPLED_PLANT = VesselParams(COUPLED_M, COUPLED_D)
COUPLED_GAINS = BackstepGains(COUPLED_K1, COUPLED_K2, (0.5, 2.0, 6.0), (2.13, 2.13, 0.302))


class TestFloatEngine:
    """The engine's float arithmetic against the numpy oracles of ``tests/oracles.py``."""

    @staticmethod
    def pid_run(plant, frame, steps, start, pid=COUPLED_PID, load=None):
        load = ConstantDisturbance(COUPLED_LOAD) if load is None else load
        return simulate_pid(plant, PidController(PidGains(*pid), frame), load,
                            duration=steps * start["dt"], **start)[0]

    def check_pid(self, frame, steps, start, *, plant=COUPLED_PLANT, pid=COUPLED_PID,
                  load=lambda: ConstantDisturbance(COUPLED_LOAD), per_column=False):
        """A PID run against ``pid_rk4_rows`` at rtol 1e-12 (see ``assert_close``).

        ``load()`` makes a fresh load for each of the two runs.
        """
        want = pid_rk4_rows(plant, pid, frame, load(), steps=steps, **start)
        trace = self.pid_run(plant, frame, steps, start, pid, load())
        assert_close(trace.pose, wrapped(want), per_column)
        assert_close(np.column_stack([trace.velocity, trace.tau, trace.delta]), want[:, 3:],
                     per_column)
        v1, v2 = energies(want[:, :3], want[:, 3:6], start["eta_d"], plant.M)
        assert_close(np.column_stack([trace.v1, trace.v2a_partial]), np.column_stack([v1, v2]),
                     per_column)
        return trace, want

    @pytest.mark.parametrize("frame", ["body", "earth"])
    def test_pid_on_coupled_plant_matches_plant_derivative(self, frame):
        steps = 30
        trace, _ = self.check_pid(frame, steps, COUPLED_START)
        np.testing.assert_array_equal(trace.delta, np.tile(COUPLED_LOAD, (steps + 1, 1)))
        # the coupling terms move the run far beyond the tolerance above
        diagonal = self.pid_run(VesselParams(np.diag(np.diag(COUPLED_M)),
                                             np.diag(np.diag(COUPLED_D))),
                                frame, steps, COUPLED_START)
        assert np.abs(diagonal.velocity[-1] / trace.velocity[-1] - 1.0).max() > 1e-3

    @pytest.mark.parametrize("frame", ["body", "earth"])
    def test_pid_across_the_seam_matches_plant_derivative(self, frame):
        trace, want = self.check_pid(frame, 20, SEAM_START)
        np.testing.assert_array_equal(trace.delta, np.tile(COUPLED_LOAD, (21, 1)))
        assert want[0, 2] < math.pi < want[-1, 2]

    @staticmethod
    def check_adaptive(load, steps, start, *, plant=COUPLED_PLANT, gains=COUPLED_GAINS,
                       network=None, weight_seed=3, adapt=True, per_column=False):
        """A run on a 2^9 grid (or ``network``) against the dense joint-RK4 oracle: pose,
        velocity, weights, weight norms, V1 and V2a at rtol 1e-12 (see ``assert_close``).

        By default the plant is the coupled one and K1 and K2 are not diagonal.
        ``load()`` makes a fresh load for each of the two runs.  Returns the trace
        and the oracle's states.
        """
        network = RbfNetwork.grid(points_per_dim=2) if network is None else network
        n = network.node_count
        weights0 = AdaptiveWeights.random_init(n, weight_seed)
        states = joint_rk4_states(plant, gains, network, weights0, load(), steps=steps,
                                  adapt=adapt, **start)
        trace, _ = simulate_adaptive(plant, gains, network, weights0, load(),
                                     duration=steps * start["dt"], adapt=adapt, **start)
        assert_close(trace.pose, wrapped(states), per_column)
        assert_close(trace.velocity, states[:, 3:6], per_column)
        assert_close(trace.final_theta.T, states[-1, 6:].reshape(3, n).T, per_column)
        # every step's norms, from the Gram identity between folds
        np.testing.assert_allclose(
            trace.theta_norms, np.linalg.norm(states[:, 6:].reshape(-1, 3, n), axis=2),
            rtol=1e-12)
        eta_d = start["eta_d"]
        alpha1 = [compute_alpha1(gains.K1, s[2], pose_error(s[:3], eta_d)) for s in states]
        v1, v2 = energies(states[:, :3], states[:, 3:6] - np.array(alpha1), eta_d, plant.M)
        assert_close(np.column_stack([trace.v1, trace.v2a_partial]), np.column_stack([v1, v2]),
                     per_column)
        return trace, states

    def test_adaptive_on_coupled_plant_matches_plant_derivative(self):
        self.check_adaptive(lambda: ConstantDisturbance(COUPLED_LOAD), 20, COUPLED_START)

    def test_adaptive_across_the_seam_matches_joint_rk4(self):
        _, states = self.check_adaptive(lambda: ConstantDisturbance(COUPLED_LOAD), 20,
                                        SEAM_START)
        assert states[0, 2] < math.pi < states[-1, 2]

    def test_adaptive_under_markov_load_matches_joint_rk4(self):
        trace, _ = self.check_adaptive(
            lambda: MarkovBias(1000.0, 1000.0, 12, (3e3, -2e3, 1e5)), 15, COUPLED_START)
        assert (np.diff(trace.delta, axis=0) != 0).all()

    def test_gram_identity_norms_on_fast_moving_bases(self):
        # far from the target at 3 m/s, on a narrow basis whose nodes bracket
        # the path: each stage's basis differs from the last, so every term of
        # the identity weighs in the norms check_adaptive compares each step
        start = dict(eta0=np.array([40.0, -30.0, 2.0]), nu0=np.array([3.0, -2.0, 0.2]),
                     eta_d=np.array([1.0, 2.0, -0.3]), dt=0.1)
        ranges = ((39.5, 40.5), (-30.0, -23.0), (2.0, 2.4), (2.9, 3.0), (-2.0, -1.7),
                  (0.15, 0.2), (1.7, 1.95), (0.1, 0.5), (-2.3, -2.0))
        network = RbfNetwork.grid(ranges, points_per_dim=2, width=0.3)
        _, states = self.check_adaptive(lambda: ConstantDisturbance(COUPLED_LOAD), 20, start,
                                        network=network, per_column=True)
        bases = [gaussian_basis(network, np.concatenate(
            [s[:6], compute_alpha1(COUPLED_K1, s[2], pose_error(s[:3], start["eta_d"]))]))
            for s in states]
        change = [np.linalg.norm(b - a) / np.linalg.norm(a) for a, b in zip(bases, bases[1:])]
        assert min(change) > 0.4

    @given(run=drawn_runs(), gains=backstep_gains(), adapt=st.booleans())
    def test_drawn_backstepping_runs_match_joint_rk4(self, run, gains, adapt):
        # the adaptive law under either sign, or frozen weights (adapt=False)
        plant, load, start, steps, seed = run
        self.check_adaptive(load, steps, start, plant=plant, gains=gains, weight_seed=seed,
                            adapt=adapt, per_column=True)

    @given(run=drawn_runs(), frame=st.sampled_from(["body", "earth"]), pid=pid_gains())
    def test_drawn_pid_runs_match_plant_derivative(self, run, frame, pid):
        plant, load, start, steps, _ = run
        self.check_pid(frame, steps, start, plant=plant, pid=pid, load=load, per_column=True)

    def test_markov_load_is_the_rotated_bias_stream(self):
        # oracle: an independent MarkovBias with the run's seed, stepped once
        # per step, and its Euler-Maruyama recursion written out in numpy
        cfg = small_cfg(controller_type="pid", disturbance_type="markov",
                        initial_pose=np.array([10.0, 10.0, math.radians(150.0)]),
                        initial_bias=np.array([3e3, -2e3, 1e5]))
        parts = build_components(cfg)
        seen = []
        trace, _ = simulate_pid(parts.plant, parts.pid, parts.disturbance,
                                eta0=cfg.initial_pose, nu0=cfg.initial_velocity,
                                eta_d=cfg.target_pose, dt=cfg.dt, duration=cfg.duration,
                                probe=lambda t, info: seen.append(info["eta"][2]))
        assert abs(seen[-1] - seen[0]) > 1.0     # the heading turns the load
        bias = MarkovBias(cfg.time_constants, cfg.noise_scale, cfg.disturbance_seed,
                          cfg.initial_bias)
        rng = np.random.default_rng(cfg.disturbance_seed)
        b = cfg.initial_bias.copy()
        for psi, delta in zip(seen, trace.delta):
            np.testing.assert_array_equal(bias.b, b)
            np.testing.assert_array_equal(delta, bias.body_load(*yaw_cos_sin(psi)))
            np.testing.assert_allclose(delta, rotation_matrix(psi).T @ b, rtol=0,
                                       atol=1e-15 * np.abs(b).max())
            bias.step(cfg.dt)
            b = (b + cfg.dt * (-b / cfg.time_constants)
                 + cfg.noise_scale * np.sqrt(cfg.dt) * rng.standard_normal(3))


# as SEAM_START, but the heading error psi - psi_d starts 0.1 deg inside +pi and
# turns through it in the first step, so the recorder's V1 takes both branches of ssa
SEAM_ERROR_START = dict(SEAM_START, eta_d=np.array([1.0, 2.0, math.radians(177.0 - 179.9)]))


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestRecorder:
    """The trace columns the engine forms after its loop, against the per-row floats."""

    @staticmethod
    def probed_run(controller, start, steps):
        """A run on the coupled plant and what its probe saw: (t, eta, nu) per sample."""
        seen = []

        def probe(t, info):
            seen.append((t, info["eta"].tolist(), info["nu"].tolist()))

        common = dict(duration=steps * start["dt"], probe=probe, **start)
        load = ConstantDisturbance(COUPLED_LOAD)
        if controller == "pid":
            pid = PidController(PidGains(*COUPLED_PID), "body")
            trace, _ = simulate_pid(COUPLED_PLANT, pid, load, **common)
        else:
            network = RbfNetwork.grid(points_per_dim=2)
            weights0 = AdaptiveWeights.random_init(network.node_count, 3)
            trace, _ = simulate_adaptive(COUPLED_PLANT, COUPLED_GAINS, network, weights0, load,
                                         adapt=controller == "adaptive-nn", **common)
        return trace, seen

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_columns_across_the_seam_are_the_per_row_floats(self, controller):
        start = SEAM_ERROR_START
        trace, seen = self.probed_run(controller, start, 30)
        xd, yd, psid = start["eta_d"].tolist()
        errors = [psi - psid for _, (_, _, psi), _ in seen]
        assert min(errors) <= math.pi < max(errors)
        (m00, _, _), (_, m11, m12), (_, m21, m22) = COUPLED_M.tolist()
        v1, v2a = [], []
        for _, (x, y, psi), (q0, q1, q2) in seen:
            ex, ey, epsi = x - xd, y - yd, ssa(psi - psid)
            v1.append(0.5 * (ex * ex + ey * ey + epsi * epsi))
            v2a.append(v1[-1] + 0.5 * (q0 * (m00 * q0) + q1 * (m11 * q1 + m12 * q2)
                                       + q2 * (m21 * q1 + m22 * q2)))
        np.testing.assert_array_equal(bits(trace.v1), bits(v1))
        np.testing.assert_array_equal(bits(trace.t), bits([t for t, _, _ in seen]))
        np.testing.assert_array_equal(bits(trace.t), bits([k * start["dt"] for k in range(31)]))
        if controller == "pid":     # z2 is nu
            np.testing.assert_array_equal(bits(trace.v2a_partial), bits(v2a))

    def test_long_pid_markov_run_keeps_no_object_per_sample(self):
        # a recorder that holds a Python object per sample (a float, a tuple) needs
        # far more than the 144 B row per step; 4000 steps, since tracemalloc
        # slows each step about tenfold
        cfg = parse_scenario({"controller": {"type": "pid"}, "disturbance": {"type": "markov"},
                              "simulation": {"duration": 400.0}})
        run_simulation(cfg)     # builds the components and imports numpy.random
        tracemalloc.start()
        try:
            trace, _ = run_simulation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 4001
        assert peak < 2 * trace.data.nbytes, (peak, trace.data.nbytes)


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        trace, _ = run_simulation(small_cfg(decimation=10))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        loaded = read_trace_csv(path)
        # values survive the 9-significant-digit format
        np.testing.assert_allclose(loaded.data, trace.data,
                                   rtol=1e-8, atol=1e-300)
        assert loaded.meta["controller"] == "adaptive-nn"
        assert loaded.meta["weight_seed"] == "1"
        assert loaded.meta["target_pose_rad"] == "0 0 0"

    def test_reload_is_exact_for_rewritten_file(self, tmp_path):
        trace, _ = run_simulation(small_cfg(decimation=20))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_trace_csv(first, trace)
        write_trace_csv(second, read_trace_csv(first))
        assert first.read_bytes() == second.read_bytes()

    def test_rows_are_the_bytes_of_csv_writer(self, tmp_path):
        # oracle: the csv module writing each value with format(v, ".9g")
        special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.5e-310, -1e300,
                   1.0 / 3.0, 123456789012.0, 1e-5]
        # more rows than one write formats, so the blocks' seams are checked too
        data = np.resize(np.array(special), (600, len(TRACE_COLUMNS)))
        data[:, 0] = np.arange(600) * 0.1
        trace = RunTrace(data, {"controller": "pid"})
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        want = io.StringIO(newline="")
        want.write("# dpsim-trace 1\r\n# controller: pid\r\n")
        writer = csv.writer(want)
        writer.writerow(TRACE_COLUMNS)
        for row in data:
            writer.writerow([f"{v:.9g}" for v in row])
        assert path.read_bytes() == want.getvalue().encode()
        assert b"inf,-inf,nan,-0,4.94065646e-324" in path.read_bytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\r\n1,2,3\r\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    def test_header_values_are_read_verbatim(self, tmp_path):
        # quotes and commas inside a value, as in compact scenario JSON
        scenario = {"a": 1, "b": "x,y", "c": [1.5, "\"q\""]}
        meta = {"scenario": json.dumps(scenario, separators=(",", ":")), "k": 'a,"b,c"'}
        path = tmp_path / "trace.csv"
        write_trace_csv(path, RunTrace(np.zeros((2, len(TRACE_COLUMNS))), meta))
        loaded = read_trace_csv(path)
        assert loaded.meta == meta
        assert json.loads(loaded.meta["scenario"]) == scenario

    @pytest.mark.parametrize("meta", [{"k": "a\nb: c"}, {"k": "a\n# b: c"},
                                      {"k": "a\rb"}, {"k\n": "v"}, {"a:b": "c"},
                                      {"k": " v "}, {" k": "v"}, {"k": "v\t"}],
                             ids=["value-lf", "value-lf-comment", "value-cr", "key-lf",
                                  "key-colon", "value-spaces", "key-space", "value-tab"])
    def test_line_break_in_the_header_is_rejected_before_writing(self, tmp_path, meta):
        # read back, the first two would be a bad header line and a silent extra key,
        # a ':' in a key would move into the value, and surrounding whitespace is stripped
        path = tmp_path / "trace.csv"
        key = next(iter(meta))
        with pytest.raises(ValueError, match=f"^trace header {re.escape(repr(key))}: "):
            write_trace_csv(path, RunTrace(np.zeros((2, len(TRACE_COLUMNS))), meta))
        assert not path.exists()

    def test_colons_in_values_and_unusual_keys_read_back(self, tmp_path):
        meta = {"k": "a: b", "": "v", "#k": "v"}
        path = tmp_path / "trace.csv"
        write_trace_csv(path, RunTrace(np.zeros((2, len(TRACE_COLUMNS))), meta))
        assert read_trace_csv(path).meta == meta

    @pytest.mark.parametrize("line", [1, 5, 57])
    def test_undecodable_byte_names_its_line(self, tmp_path, line):
        # text is decoded 8 KB at a time: lines 1 and 5 lie in the first chunk,
        # line 57 in the third, and the error must name the line all the same
        path = tmp_path / "trace.csv"
        self.hundred_rows(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "
                                             ".* byte 0xff in position 3"):
            read_trace_csv(path)

    @staticmethod
    def hundred_rows(path, line=None, text=None):
        """Write a 100-row trace (its header is lines 1-2); ``text`` replaces ``line``."""
        data = np.arange(100 * len(TRACE_COLUMNS), dtype=float).reshape(100, -1) / 7.0
        write_trace_csv(path, RunTrace(data))
        if line is not None:
            lines = path.read_text().splitlines(keepends=True)
            lines[line - 1] = text
            path.write_text("".join(lines))
        return data

    @pytest.mark.parametrize("text, where", [
        ("0,x" + ",0" * 16 + "\n", "line 57: could not convert"),
        ("0,1,2\n", "line 57: 3 fields, expected 18"),
        ("0" + ",0" * 18 + "\n", "line 57: 19 fields, expected 18"),
        ('"0"' + ",0" * 17 + "\n", "line 57: could not convert"),
        ("1_0" + ",0" * 17 + "\n", "line 57: could not convert"),
    ], ids=["value", "short", "long", "quoted", "digit-separator"])
    def test_bad_row_names_its_line(self, tmp_path, text, where):
        path = tmp_path / "trace.csv"
        self.hundred_rows(path, 57, text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {where}"):
            read_trace_csv(path)

    @staticmethod
    def long_trace(path, edit, first, last=None):
        """Write a 4001-row trace (its header is lines 1-2) and pass each of its raw
        lines ``first`` to ``last`` (default: ``first``) through ``edit``."""
        data = np.arange(4001 * len(TRACE_COLUMNS), dtype=float).reshape(4001, -1) / 7.0
        write_trace_csv(path, RunTrace(data))
        lines = path.read_bytes().splitlines(keepends=True)
        for i in range(first - 1, last or first):
            lines[i] = edit(lines[i])
        path.write_bytes(b"".join(lines))

    @staticmethod
    def count_loadtxt(monkeypatch):
        """Count the np.loadtxt calls from here on; returns the list of calls."""
        calls, loadtxt = [], np.loadtxt

        def counting(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr("dpsim.traces.np.loadtxt", counting)
        return calls

    def test_good_trace_is_one_loadtxt_call(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        self.long_trace(path, lambda line: line, 3)
        calls = self.count_loadtxt(monkeypatch)
        assert len(read_trace_csv(path)) == 4001
        assert len(calls) == 1

    @pytest.mark.parametrize("edit, first, last, where", [
        (b"x".__add__, 3, None, "line 3: could not convert string 'x.*' to float64 in column 1"),
        (b"x".__add__, 2003, None, "line 2003: could not convert string 'x.*' to float64 in "
                                   "column 1"),
        (b"x".__add__, 4003, None, "line 4003: could not convert string 'x.*' to float64 in "
                                   "column 1"),
        (lambda raw: raw[raw.index(b",") + 1:], 3, 4003, "line 3: 17 fields, expected 18"),
        (lambda raw: raw[:3] + b"\xff" + raw[3:], 4003, None,
         "line 4003: .* byte 0xff in position 3"),
    ], ids=["value-first", "value-middle", "value-last", "all-17-fields", "undecodable-last"])
    def test_bad_line_of_a_long_trace_is_named_in_few_parses(self, tmp_path, monkeypatch,
                                                             edit, first, last, where):
        path = tmp_path / "trace.csv"
        self.long_trace(path, edit, first, last)
        calls = self.count_loadtxt(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {where}"):
            read_trace_csv(path)
        assert len(calls) <= 20

    def test_blank_lines_and_comments_in_the_data_are_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        self.hundred_rows(path)
        plain = read_trace_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[10:10] = ["\n", "\r\n", "# note: not metadata\n"]
        path.write_text("".join(lines))
        loaded = read_trace_csv(path)
        assert loaded.data.view(np.uint64).tolist() == plain.data.view(np.uint64).tolist()
        assert loaded.meta == plain.meta

    def test_lf_line_endings_read_the_same(self, tmp_path):
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        self.hundred_rows(crlf)
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        a, b = read_trace_csv(crlf), read_trace_csv(lf)
        assert a.data.view(np.uint64).tolist() == b.data.view(np.uint64).tolist()
        assert a.meta == b.meta

    def test_header_without_rows_is_no_data(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, RunTrace(np.zeros((0, len(TRACE_COLUMNS))), {"k": "v"}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # numpy's "input contained no data" too
            with pytest.raises(ValueError, match="no trace data found"):
                read_trace_csv(path)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(len(TRACE_COLUMNS))),
                      elements=st.one_of(
                          st.floats(allow_subnormal=True),
                          st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324,
                                           2.5e-310, 1e308, -1e308, 1.7976931348623157e308]))))
    def test_read_is_the_9_digit_value(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "trace.csv"
        write_trace_csv(path, RunTrace(data))
        loaded = read_trace_csv(path)
        want = np.array([[float(format(v, ".9g")) for v in row] for row in data.tolist()])
        assert loaded.data.shape == want.shape
        assert (np.isnan(loaded.data) == np.isnan(want)).all()
        same = loaded.data.view(np.uint64) == want.view(np.uint64)
        assert (same | np.isnan(want)).all()
        again = path.with_name("again.csv")
        write_trace_csv(again, loaded)
        assert again.read_bytes() == path.read_bytes()


class TestCompare:
    def test_identical_traces_unit_ratios(self):
        trace, _ = run_simulation(small_cfg(controller_type="pid"))
        report = compare_runs([trace, trace])
        np.testing.assert_allclose(report.rms_pos_ratio, np.ones((2, 2)), rtol=1e-12)
        assert "pid" in report.format()

    def test_run_against_its_read_back(self, tmp_path):
        trace, _ = run_simulation(small_cfg(controller_type="pid"))
        path = tmp_path / "run.csv"
        write_trace_csv(path, trace)
        report = compare_runs([trace, read_trace_csv(path)])
        # the read-back holds 9 significant digits, so the RMS agrees to ~1e-9
        np.testing.assert_allclose(report.rms_pos_ratio, np.ones((2, 2)), rtol=1e-7)

    def test_grid_mismatch(self):
        trace_a, _ = run_simulation(small_cfg(controller_type="pid"))
        trace_b, _ = run_simulation(small_cfg(controller_type="pid", duration=20.0))
        with pytest.raises(ValueError, match="time grids"):
            compare_runs([trace_a, trace_b])
        # same length, different dt
        trace_c, _ = run_simulation(small_cfg(controller_type="pid", dt=0.2, duration=80.0))
        assert len(trace_c) == len(trace_a)
        with pytest.raises(ValueError, match="time grids"):
            compare_runs([trace_a, trace_c])

    def test_single_trace_rejected(self):
        trace, _ = run_simulation(small_cfg(controller_type="pid"))
        with pytest.raises(ValueError, match="two traces"):
            compare_runs([trace])

    @pytest.mark.parametrize("window", [-1.0, math.nan, -math.inf])
    def test_window_must_be_non_negative(self, window):
        trace = RunTrace(np.zeros((2, len(TRACE_COLUMNS))))
        with pytest.raises(ValueError, match="window"):
            compare_runs([trace, trace], window=window)

    def test_zero_rms_ratio_is_nan_without_a_warning(self):
        # PID started at its target under no load never moves: 0/0 RMS ratios
        trace, _ = run_simulation(small_cfg(
            controller_type="pid", duration=5.0, initial_pose=np.zeros(3),
            constant_delta=np.zeros(3)))
        report = compare_runs([trace, trace])
        assert report.metrics[0].steady_rms_pos == 0.0
        assert np.isnan(report.rms_pos_ratio).all()


class TestVersion:
    def test_header_version_is_the_package_version(self, tmp_path):
        trace, _ = run_simulation(small_cfg(controller_type="pid", duration=1.0))
        assert trace.meta["version"] == dpsim.__version__
        write_trace_csv(tmp_path / "run.csv", trace)
        assert f"# version: {dpsim.__version__}\n" in (tmp_path / "run.csv").read_text()
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == dpsim.__version__

    def test_import_leaves_package_metadata_unloaded(self):
        # importlib.metadata costs a fresh process 11-20 ms of imports; the
        # package itself holds only the version, so it loads neither numpy
        # nor any of its submodules
        src = str(Path(dpsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, dpsim; print(dpsim.__file__); "
             "print(sorted(m for m in sys.modules if m == 'importlib.metadata' "
             "or m.split('.')[0] == 'numpy' or m.startswith('dpsim.')))"],
            env=env, capture_output=True, text=True, check=True).stdout.splitlines()
        assert Path(out[0]).resolve() == Path(dpsim.__file__).resolve()
        assert out[1] == "[]"


HEADER = ",".join(TRACE_COLUMNS) + "\r\n"


def fail_if_run(cfg):
    raise AssertionError("the scenario ran before its output paths were checked")


class TestCli:
    def test_run_pid_defaults_prints_finite_convergence(self, capsys):
        code = cli_main(["run", "--controller", "pid", "--disturbance", "constant"])
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence_time_s=" in out
        conv = float(out.split("convergence_time_s=")[1].split()[0])
        assert math.isfinite(conv)

    def test_run_writes_trace_and_weights(self, tmp_path, capsys):
        trace_path = tmp_path / "run.csv"
        weights_path = tmp_path / "weights.csv"
        code = cli_main(["run", "--grid", "2", "--duration", "20", "--out",
                         str(trace_path), "--weights-out", str(weights_path),
                         "--decimate", "10"])
        assert code == 0
        loaded = read_trace_csv(trace_path)
        assert len(loaded) == 21
        assert weights_path.read_text().startswith("node_index,")

    def test_run_missing_config(self, tmp_path, capsys):
        code = cli_main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [["--decimate", "0"], ["--grid", "5"],
                                          ["--grid", "1"], ["--dt", "-0.1"],
                                          # 1e18 steps: an exabyte-sized row buffer
                                          ["--controller", "pid", "--duration", "1e9",
                                           "--dt", "1e-9"]],
                             ids="=".join)
    def test_bad_override_is_a_config_error(self, override, capsys):
        code = cli_main(["run", "--duration", "1", *override])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unknown_flag(self, capsys):
        assert cli_main(["run", "--warp-drive"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["fly"]) == 1

    def test_validate(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"simulation": {"duration": 10.0}}))
        assert cli_main(["validate", "--config", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"simulation": {"dt": -1}}))
        assert cli_main(["validate", "--config", str(bad)]) == 1

    def test_runtime_abort_exit_code(self, tmp_path):
        cfg = tmp_path / "blowup.json"
        cfg.write_text(json.dumps({
            "controller": {"type": "pid"},
            "simulation": {"dt": 50.0, "duration": 20000.0},
        }))
        out = tmp_path / "t.csv"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()     # the path was checked, not created, before the run

    def test_figures_emits_six_traces(self, tmp_path, capsys):
        outdir = tmp_path / "panels"
        code = cli_main(["figures", "--outdir", str(outdir), "--grid", "2",
                         "--duration", "20"])
        assert code == 0
        files = sorted(p.name for p in outdir.glob("*.csv"))
        assert files == ["adaptive_nn_constant.csv", "adaptive_nn_markov.csv",
                         "nn_fixed_constant.csv", "nn_fixed_markov.csv",
                         "pid_constant.csv", "pid_markov.csv"]
        for path in outdir.glob("*.csv"):
            loaded = read_trace_csv(path)
            assert loaded.data.shape[1] == len(TRACE_COLUMNS)

    def test_compare_command(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli_main(["run", "--controller", "pid", "--duration", "20",
                         "--out", str(a)]) == 0
        assert cli_main(["run", "--controller", "pid", "--duration", "20",
                         "--seed", "5", "--disturbance", "markov",
                         "--out", str(b)]) == 0
        report_path = tmp_path / "report.txt"
        code = cli_main(["compare", str(a), str(b), "--out", str(report_path),
                         "--window", "10"])
        assert code == 0
        assert "steady_rms_pos ratios" in report_path.read_text()

    @pytest.mark.parametrize("window", ["-1", "nan"])
    def test_compare_rejects_a_bad_window(self, tmp_path, capsys, window):
        trace = tmp_path / "a.csv"
        write_trace_csv(trace, RunTrace(np.zeros((2, len(TRACE_COLUMNS)))))
        capsys.readouterr()
        assert cli_main(["compare", str(trace), str(trace), "--window", window]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error:") and "window" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("name,text,where", [
        ("missing", None, "No such file"),
        ("not_a_trace", "a,b,c\r\n1,2,3\r\n", "line 1: unexpected trace header"),
        ("non_numeric", HEADER + "x" + ",0" * 17 + "\r\n", "line 2: could not convert"),
        ("short_row", HEADER + "0,1,2\r\n", "line 2: 3 fields, expected 18"),
        ("two_number_target", "# target_pose_rad: 1 2\r\n" + HEADER + "0" + ",0" * 17,
         "line 1: target_pose_rad must be three numbers"),
        ("text_target", "# target_pose_rad: a b c\r\n" + HEADER + "0" + ",0" * 17,
         "line 1: could not convert"),
    ])
    def test_compare_reports_a_bad_trace_file(self, tmp_path, capsys, name, text, where):
        good = tmp_path / "good.csv"
        write_trace_csv(good, RunTrace(np.zeros((2, len(TRACE_COLUMNS)))))
        bad = tmp_path / f"{name}.csv"
        if text is not None:
            bad.write_text(text, newline="")
        assert cli_main(["compare", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name}.csv" in err and where in err

    @pytest.mark.parametrize("argv", [
        ["run", "--out", "{missing}/t.csv"],
        ["run", "--weights-out", "{file}/w.csv"],
        ["figures", "--outdir", "{file}/out"],
        pytest.param(["run", "--out", "{tmp}"], id="directory"),
        pytest.param(["run", "--out", "{tmp}/t.csv", "--weights-out", "{missing}/w.csv"],
                     id="second-path"),
    ], ids=lambda argv: argv[1])
    def test_unwritable_output_path_is_an_error(self, tmp_path, capsys, monkeypatch, argv):
        # checked before the run, and nothing is created
        monkeypatch.setattr("dpsim.cli.run_simulation", fail_if_run)
        regular = tmp_path / "regular"
        regular.write_text("")
        paths = {"missing": tmp_path / "missing", "file": regular, "tmp": tmp_path}
        argv = [arg.format(**paths) for arg in argv]
        assert cli_main([*argv, "--grid", "2", "--duration", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno")
        assert list(tmp_path.iterdir()) == [regular]

    @pytest.mark.parametrize("out, weights_out", [
        ("t.csv", "t.csv"), ("t.csv", "sub/../t.csv"), ("t.csv", "link.csv"),
        ("old.csv", "hard.csv"),
    ], ids=["same", "dotted", "symlink", "hard-link"])
    def test_one_file_for_both_outputs_is_an_error(self, tmp_path, capsys, monkeypatch,
                                                   out, weights_out):
        # checked before the run, and nothing is created or written
        monkeypatch.setattr("dpsim.cli.run_simulation", fail_if_run)
        (tmp_path / "sub").mkdir()
        (tmp_path / "old.csv").write_text("old")
        os.link(tmp_path / "old.csv", tmp_path / "hard.csv")
        os.symlink(tmp_path / "t.csv", tmp_path / "link.csv")
        before = sorted(tmp_path.iterdir())
        assert cli_main(["run", "--grid", "2", "--duration", "1", "--out", str(tmp_path / out),
                         "--weights-out", str(tmp_path / weights_out)]) == 1
        assert capsys.readouterr().err == "error: --out and --weights-out name the same file\n"
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "old.csv").read_text() == "old"

    def test_symlinked_out_is_written_through(self, tmp_path, capsys):
        # the writer opens the path: the link stays, and its target takes the trace
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old")
        os.symlink(target, link)
        assert cli_main(["run", "--controller", "pid", "--duration", "2",
                         "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert len(read_trace_csv(target)) == 21
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_rewritten_trace_shows_under_its_hard_link(self, tmp_path, capsys):
        # the file is rewritten in place, not replaced: both names keep one inode
        out, other = tmp_path / "t.csv", tmp_path / "other.csv"
        argv = ["run", "--controller", "pid", "--duration", "2", "--out", str(out)]
        assert cli_main(argv) == 0
        first = out.read_bytes()
        os.link(out, other)
        assert cli_main([*argv, "--disturbance", "markov"]) == 0
        assert other.read_bytes() == out.read_bytes() != first
        assert os.path.samefile(out, other)

    def test_unwritable_directory_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dpsim.cli.run_simulation", fail_if_run)
        monkeypatch.setattr("dpsim.cli.os.access", lambda path, mode: False)
        assert cli_main(["run", "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")
        assert list(tmp_path.iterdir()) == []

    def test_weights_out_under_pid_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dpsim.cli.run_simulation", fail_if_run)
        assert cli_main(["run", "--controller", "pid", "--out", str(tmp_path / "t.csv"),
                         "--weights-out", str(tmp_path / "w.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: --weights-out requires a network-based controller\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--weights-out"])
    def test_figures_rejects_the_run_only_outputs(self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.setattr("dpsim.cli.run_simulation", fail_if_run)
        code = cli_main(["figures", "--outdir", str(tmp_path / "panels"), flag,
                         str(tmp_path / "x.csv")])
        assert code == 1
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--controller", "pid"),
                                             ("--disturbance", "markov")])
    def test_figures_rejects_the_scenario_type_overrides(self, tmp_path, capsys, monkeypatch,
                                                         flag, value):
        # figures runs every controller under every load; it must not drop the flag silently
        monkeypatch.setattr("dpsim.cli.run_simulation", fail_if_run)
        code = cli_main(["figures", "--outdir", str(tmp_path / "panels"), flag, value])
        assert code == 1
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_override_changes_markov_draws(self, tmp_path):
        outs = []
        for seed in (3, 4):
            path = tmp_path / f"s{seed}.csv"
            assert cli_main(["run", "--controller", "pid", "--disturbance", "markov",
                             "--duration", "20", "--seed", str(seed),
                             "--out", str(path)]) == 0
            outs.append(read_trace_csv(path).delta)
        assert not np.array_equal(outs[0], outs[1])
