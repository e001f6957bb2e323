import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpsim
from dpsim.approximators import AdaptiveWeights, RbfNetwork, gaussian_basis
from dpsim.cli import main as cli_main
from dpsim.config import build_components, default_scenario, parse_scenario
from dpsim.controllers import (BackstepGains, PidController, PidGains, backstep_control,
                               compute_alpha1, weight_derivative)
from dpsim.disturbance import ConstantDisturbance, MarkovBias
from dpsim.simulate import (SimulationAbort, compare_runs, metrics_from_trace,
                            run_simulation, simulate_adaptive, simulate_pid)
from dpsim.traces import TRACE_COLUMNS, RunTrace, read_trace_csv, write_trace_csv
from dpsim.vessel import VesselParams, plant_derivative, rk4_step, rotation_matrix

CONTROLLERS = ("pid", "adaptive-nn", "nn-fixed")


def small_cfg(**overrides):
    """512-node grid, short horizon; fast enough for per-test runs."""
    cfg = default_scenario()
    cfg.points_per_dim = 2
    cfg.duration = 40.0
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


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
        np.testing.assert_array_equal(trace_a.columns(), trace_b.columns())
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

        def deriv(y):
            eta, nu, theta = y[:3], y[3:6], y[6:].reshape(3, n)
            z1 = eta - cfg.target_pose
            alpha1 = compute_alpha1(gains.K1, eta[2], z1)
            z2 = nu - alpha1
            g = gaussian_basis(network, np.concatenate([eta, nu, alpha1]))
            tau = backstep_control(gains, eta[2], z1, z2, g, AdaptiveWeights(theta))
            eta_dot, nu_dot = plant_derivative(eta, nu, plant, tau, cfg.constant_delta)
            return np.concatenate([eta_dot, nu_dot,
                                   weight_derivative(gains, g, z2, theta).ravel()])

        y = np.concatenate([cfg.initial_pose, cfg.initial_velocity, weights0.theta.ravel()])
        for _ in range(steps):
            y = rk4_step(y, cfg.dt, deriv)
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
        assert (change > 1e-3 * weights0.norms()).all()

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
        assert np.isfinite(trace.columns()).all()
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


# A plant with sway-yaw coupling in M and D, neither symmetric, so that a
# transposed or shifted index in the engine's unrolled products shows.
COUPLED_M = np.array([[5.3e6, 0.0, 0.0], [0.0, 8.3e6, -2.1e7], [0.0, 3.4e7, 3.7e9]])
COUPLED_D = np.array([[5.0e4, 0.0, 0.0], [0.0, 2.7e5, -4.4e6], [0.0, -2.9e6, 4.2e8]])
COUPLED_LOAD = np.array([1000.0, -2000.0, 1.5e5])
COUPLED_START = dict(eta0=np.array([10.0, -6.0, 0.7]), nu0=np.array([0.2, -0.1, 0.01]),
                     eta_d=np.array([1.0, 2.0, -0.3]), dt=0.1)


def energies(eta, z2, eta_d, M):
    """Oracle V1 = |eta - eta_d|^2 / 2 and V2 = V1 + z2' M z2 / 2, one per row."""
    z1 = eta - eta_d
    v1 = 0.5 * (z1 * z1).sum(axis=1)
    return v1, v1 + 0.5 * np.einsum("ki,ij,kj->k", z2, M, z2)


class TestFloatEngine:
    """The engine's float arithmetic against numpy oracles built on vessel functions."""

    @pytest.mark.parametrize("frame", ["body", "earth"])
    def test_pid_on_coupled_plant_matches_plant_derivative(self, frame):
        plant = VesselParams(COUPLED_M, COUPLED_D)
        Kp = np.array([[3e3, 500.0, -20.0], [-400.0, 9e3, 1e3], [2e4, -3e4, 1e8]])
        Ki = np.array([[5.0, 1.0, 0.0], [0.0, 50.0, -2.0], [3.0, 0.0, 30.0]])
        Kd = np.array([[5e4, -1e3, 0.0], [2e3, 7e4, 1e4], [0.0, 5e3, 300.0]])
        eta_d, dt, steps = COUPLED_START["eta_d"], COUPLED_START["dt"], 30
        # oracle PID: the three products, trapezoid integral, numpy rotations;
        # the plant is vessel.plant_derivative under rk4_step, tau held per step
        y = np.concatenate([COUPLED_START["eta0"], COUPLED_START["nu0"]])
        integral, prev, want = np.zeros(3), None, []
        for _ in range(steps + 1):
            R = rotation_matrix(y[2])
            diff = eta_d - y[:3]
            if frame == "earth":
                err, rate = diff, -(R @ y[3:])
            else:
                err, rate = np.append((R.T @ [diff[0], diff[1], 0.0])[:2], diff[2]), -y[3:]
            if prev is not None:
                integral = integral + 0.5 * dt * (prev + err)
            prev = err
            tau = Kp @ err + Ki @ integral + Kd @ rate
            want.append(np.concatenate([y, tau]))
            y = rk4_step(y, dt, lambda s: np.concatenate(
                plant_derivative(s[:3], s[3:], plant, tau, COUPLED_LOAD)))
        want = np.array(want)

        def run(run_plant):
            return simulate_pid(run_plant, PidController(PidGains(Kp, Ki, Kd), frame),
                                ConstantDisturbance(COUPLED_LOAD), duration=steps * dt,
                                **COUPLED_START)[0]

        trace = run(plant)
        np.testing.assert_allclose(np.column_stack([trace.pose, trace.velocity, trace.tau]),
                                   want, rtol=1e-12)
        np.testing.assert_array_equal(trace.delta, np.tile(COUPLED_LOAD, (steps + 1, 1)))
        v1, v2 = energies(want[:, :3], want[:, 3:6], eta_d, COUPLED_M)
        np.testing.assert_allclose(trace.v1, v1, rtol=1e-12)
        np.testing.assert_allclose(trace.v2a_partial, v2, rtol=1e-12)
        # the coupling terms move the run far beyond the tolerance above
        diagonal = run(VesselParams(np.diag(np.diag(COUPLED_M)), np.diag(np.diag(COUPLED_D))))
        assert np.abs(diagonal.velocity[-1] / trace.velocity[-1] - 1.0).max() > 1e-3

    def test_adaptive_on_coupled_plant_matches_plant_derivative(self):
        # oracle: all 3 l weights of a 2^9 grid integrated as ordinary RK4
        # state with the plant, under non-diagonal K1 and K2
        plant = VesselParams(COUPLED_M, COUPLED_D)
        network = RbfNetwork.grid(points_per_dim=2)
        n = network.node_count
        weights0 = AdaptiveWeights.random_init(n, 3)
        K1 = np.array([[0.04, 0.01, 0.002], [0.01, 0.06, -0.003], [0.002, -0.003, 0.8]])
        K2 = np.array([[5e4, 1e4, 2e3], [1e4, 6e4, -3e3], [2e3, -3e3, 5e4]])
        gains = BackstepGains(K1, K2, (0.5, 2.0, 6.0), (2.13, 2.13, 0.302))
        eta_d, dt, steps = COUPLED_START["eta_d"], COUPLED_START["dt"], 20

        def alpha1_of(eta):
            return compute_alpha1(gains.K1, eta[2], eta - eta_d)

        def deriv(y):
            eta, nu, theta = y[:3], y[3:6], y[6:].reshape(3, n)
            alpha1 = alpha1_of(eta)
            z2 = nu - alpha1
            g = gaussian_basis(network, np.concatenate([eta, nu, alpha1]))
            tau = backstep_control(gains, eta[2], eta - eta_d, z2, g, AdaptiveWeights(theta))
            eta_dot, nu_dot = plant_derivative(eta, nu, plant, tau, COUPLED_LOAD)
            return np.concatenate([eta_dot, nu_dot,
                                   weight_derivative(gains, g, z2, theta).ravel()])

        states = [np.concatenate([COUPLED_START["eta0"], COUPLED_START["nu0"],
                                  weights0.theta.ravel()])]
        for _ in range(steps):
            states.append(rk4_step(states[-1], dt, deriv))
        states = np.array(states)
        trace, _ = simulate_adaptive(plant, gains, network, weights0,
                                     ConstantDisturbance(COUPLED_LOAD),
                                     duration=steps * dt, **COUPLED_START)
        np.testing.assert_allclose(trace.pose, states[:, :3], rtol=1e-12)
        np.testing.assert_allclose(trace.velocity, states[:, 3:6], rtol=1e-12)
        np.testing.assert_allclose(trace.final_theta, states[-1, 6:].reshape(3, n),
                                   rtol=1e-12)
        z2 = states[:, 3:6] - np.array([alpha1_of(s[:3]) for s in states])
        v1, v2 = energies(states[:, :3], z2, eta_d, COUPLED_M)
        np.testing.assert_allclose(trace.v1, v1, rtol=1e-12)
        np.testing.assert_allclose(trace.v2a_partial, v2, rtol=1e-12)

    def test_markov_load_is_the_rotated_bias_stream(self):
        # oracle: an independent MarkovBias with the run's seed, stepped once
        # per step, and its Euler-Maruyama recursion written out in numpy
        cfg = small_cfg(controller_type="pid", disturbance_type="markov",
                        initial_pose=np.array([10.0, 10.0, math.radians(150.0)]),
                        initial_bias=np.array([3e3, -2e3, 1e5]))
        parts = build_components(cfg, network=False)
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
            np.testing.assert_array_equal(delta, bias.body_delta(psi))
            np.testing.assert_allclose(delta, rotation_matrix(psi).T @ b, rtol=0,
                                       atol=1e-15 * np.abs(b).max())
            bias.step(cfg.dt)
            b = (b + cfg.dt * (-b / cfg.time_constants)
                 + cfg.noise_scale * np.sqrt(cfg.dt) * rng.standard_normal(3))


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        trace, _ = run_simulation(small_cfg(decimation=10))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        loaded = read_trace_csv(path)
        # values survive the 9-significant-digit format
        np.testing.assert_allclose(loaded.columns(), trace.columns(),
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
        trace = RunTrace.from_columns(data, {"controller": "pid"})
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
        # importlib.metadata costs a fresh process 11-20 ms of imports
        src = str(Path(dpsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, dpsim; print(dpsim.__file__); print('importlib.metadata' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout.splitlines()
        assert Path(out[0]).resolve() == Path(dpsim.__file__).resolve()
        assert out[1] == "False"


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
        assert cli_main(["run", "--config", str(cfg)]) == 2

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
            assert loaded.columns().shape[1] == len(TRACE_COLUMNS)

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

    def test_seed_override_changes_markov_draws(self, tmp_path):
        outs = []
        for seed in (3, 4):
            path = tmp_path / f"s{seed}.csv"
            assert cli_main(["run", "--controller", "pid", "--disturbance", "markov",
                             "--duration", "20", "--seed", str(seed),
                             "--out", str(path)]) == 0
            outs.append(read_trace_csv(path).delta)
        assert not np.array_equal(outs[0], outs[1])
