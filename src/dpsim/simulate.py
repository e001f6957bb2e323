"""Closed-loop simulation driver, run metrics, and run comparison.

One run advances plant + controller + disturbance (and, for the adaptive
controller, the network weights) with a fixed-step RK4 integrator.  Adapted
weights are part of the integrated state, so their update is stage-consistent
with the plant; frozen weights are held outside it.  The disturbance is held
constant across the sub-stages of each step.  Metrics are always computed
from the full-rate sample stream regardless of trace decimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version as _pkg_version

import numpy as np

from dpsim import kernels
from dpsim.approximators import AdaptiveWeights, RbfNetwork
from dpsim.config import ScenarioConfig
from dpsim.controllers import (BackstepGains, PidController, PidGains,
                               SaturationLimits, saturate)
from dpsim.disturbance import ConstantDisturbance, MarkovBias
from dpsim.traces import RunTrace
from dpsim.vessel import VesselParams, rotation_matrix, wrap_angle

try:
    VERSION = _pkg_version("dpsim")
except PackageNotFoundError:  # pragma: no cover - running from a source tree
    VERSION = "0+unknown"

DEFAULT_POS_BAND_M = 0.5
DEFAULT_PSI_BAND_RAD = math.radians(0.5)
DEFAULT_TAIL_WINDOW_S = 200.0


class SimulationAbort(RuntimeError):
    """The integrated state went non-finite; carries the last finite sample."""

    def __init__(self, t_failed, t_last, pose, velocity):
        self.t_failed = float(t_failed)
        self.t_last = float(t_last)
        self.pose = np.asarray(pose, dtype=float)
        self.velocity = np.asarray(velocity, dtype=float)
        super().__init__(
            f"simulation diverged at t={self.t_failed:.6g} s; last finite sample: "
            f"t={self.t_last:.6g} s pose={self.pose.tolist()} velocity={self.velocity.tolist()}")


@dataclass
class RunMetrics:
    """Station-keeping summary of one run.

    convergence_time is the first time after which the pose error stays
    inside the (pos_band, psi_band) box for the rest of the run; +inf when it
    never does.  Steady-state RMS values are taken over the tail window.
    """

    convergence_time: float
    steady_rms_pos: float
    steady_rms_psi: float
    peak_tau: np.ndarray
    weight_sup: float


class _RunRecorder:
    """Full-rate metric accumulation plus decimated trace assembly."""

    def __init__(self, steps, dt, decimation, duration, eta_d,
                 pos_band, psi_band, tail_window):
        self.dt = dt
        self.decimation = decimation
        self.eta_d = eta_d
        self.pos_band = pos_band
        self.psi_band = psi_band
        self.tail_start = max(0.0, duration - tail_window)
        self.in_band = np.zeros(steps + 1, dtype=bool)
        n_rows = steps // decimation + 1
        self.rows = np.empty((n_rows, 18))
        self._tail_pos_sq = 0.0
        self._tail_psi_sq = 0.0
        self._tail_count = 0
        self.peak_tau = np.zeros(3)
        self.weight_sup = 0.0
        self.t = np.arange(steps + 1) * dt
        self.last_sample = (0.0, np.zeros(3), np.zeros(3))

    def record(self, k, eta, nu, tau, delta, theta_norms, v1, v2a):
        t = self.t[k]
        pos_err = math.hypot(eta[0] - self.eta_d[0], eta[1] - self.eta_d[1])
        psi_err = float(wrap_angle(eta[2] - self.eta_d[2]))
        self.in_band[k] = pos_err < self.pos_band and abs(psi_err) < self.psi_band
        if t >= self.tail_start - 1e-9:
            self._tail_pos_sq += pos_err * pos_err
            self._tail_psi_sq += psi_err * psi_err
            self._tail_count += 1
        np.maximum(self.peak_tau, np.abs(tau), out=self.peak_tau)
        self.weight_sup = max(self.weight_sup, float(theta_norms.max()))
        self.last_sample = (t, eta.copy(), nu.copy())
        if k % self.decimation == 0:
            self.rows[k // self.decimation] = (
                t, eta[0], eta[1], float(wrap_angle(eta[2])), nu[0], nu[1], nu[2],
                tau[0], tau[1], tau[2], delta[0], delta[1], delta[2],
                theta_norms[0], theta_norms[1], theta_norms[2], v1, v2a)

    def finish(self, meta, final_theta=None):
        out_idx = np.nonzero(~self.in_band)[0]
        if out_idx.size == 0:
            convergence = 0.0
        elif out_idx[-1] == self.in_band.shape[0] - 1:
            convergence = math.inf
        else:
            convergence = float(self.t[out_idx[-1] + 1])
        rms_pos = math.sqrt(self._tail_pos_sq / self._tail_count)
        rms_psi = math.sqrt(self._tail_psi_sq / self._tail_count)
        metrics = RunMetrics(convergence, rms_pos, rms_psi, self.peak_tau, self.weight_sup)
        r = self.rows
        trace = RunTrace(
            t=r[:, 0].copy(), pose=r[:, 1:4].copy(), velocity=r[:, 4:7].copy(),
            tau=r[:, 7:10].copy(), delta=r[:, 10:13].copy(),
            theta_norms=r[:, 13:16].copy(), v1=r[:, 16].copy(),
            v2a_partial=r[:, 17].copy(), meta=dict(meta), final_theta=final_theta)
        return trace, metrics


def _abort(t_next, recorder):
    t_last, pose, velocity = recorder.last_sample
    raise SimulationAbort(t_next, t_last, pose, velocity)


def simulate_adaptive(plant: VesselParams, gains: BackstepGains, network: RbfNetwork,
                      weights0: AdaptiveWeights, disturbance, *, eta0, nu0, eta_d,
                      dt, duration, decimation=1, limits: SaturationLimits | None = None,
                      adapt=True, pos_band=DEFAULT_POS_BAND_M,
                      psi_band=DEFAULT_PSI_BAND_RAD,
                      tail_window=DEFAULT_TAIL_WINDOW_S, meta=None, probe=None):
    """Run the adaptive (or frozen-weight) backstepping loop.

    ``adapt=False`` keeps the initial weights for the whole run; they are then
    held outside the integrated state, which is only the pose and velocity.
    ``probe``, when given, is called at every full-rate sample with a dict of
    internals (t, eta, nu, theta, z1, z2, alpha1, basis, tau, delta) for
    diagnostics.
    """
    n_nodes = network.node_count
    if gains.gamma.shape[1] != n_nodes:
        raise ValueError(f"gains sized for {gains.gamma.shape[1]} nodes, network has {n_nodes}")
    if weights0.node_count != n_nodes:
        raise ValueError("initial weights do not match the network size")
    eta_d = np.asarray(eta_d, dtype=float)
    steps = int(round(duration / dt))
    recorder = _RunRecorder(steps, dt, decimation, duration, eta_d,
                            pos_band, psi_band, tail_window)
    K1, K2 = gains.K1, gains.K2
    drive, leak = gains.law_signs
    markov = isinstance(disturbance, MarkovBias)

    pose_vel = np.concatenate([np.asarray(eta0, dtype=float), np.asarray(nu0, dtype=float)])
    y = np.concatenate([pose_vel, weights0.theta.ravel()]) if adapt else pose_vel
    frozen_norms = None if adapt else weights0.norms()
    stage = np.empty_like(y)
    d1, d2, d3, d4 = (np.empty_like(y) for _ in range(4))
    g_buf = np.empty(n_nodes)
    z_buf = np.empty(9)

    def evaluate(yv, delta, dy):
        eta = yv[:3]
        nu = yv[3:6]
        theta = yv[6:].reshape(3, n_nodes) if adapt else weights0.theta
        R = rotation_matrix(eta[2])
        z1 = eta - eta_d
        alpha1 = -(R.T @ (K1 @ z1))
        z2 = nu - alpha1
        z_buf[0:3] = eta
        z_buf[3:6] = nu
        z_buf[6:9] = alpha1
        theta_dot = dy[6:].reshape(3, n_nodes) if adapt else None
        nn = kernels.adaptive_core(network.nodes, network._inv_two_h2, network._coef,
                                   z_buf, theta, z2, gains.gamma, gains.sigma,
                                   drive, leak, g_buf, theta_dot)
        tau = saturate(-(R.T @ z1) - K2 @ z2 + nn, limits)
        dy[0:3] = R @ nu
        dy[3:6] = plant.M_inv @ (tau + delta - plant.D @ nu)
        return eta, nu, theta, z1, z2, alpha1, tau

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            delta_k = (disturbance.body_delta(y[2]) if markov
                       else disturbance.sample(recorder.t[k]))
            eta, nu, theta, z1, z2, alpha1, tau = evaluate(y, delta_k, d1)
            norms = np.linalg.norm(theta, axis=1) if adapt else frozen_norms
            v1 = 0.5 * float(z1 @ z1)
            v2a = v1 + 0.5 * float(z2 @ (plant.M @ z2))
            recorder.record(k, eta, nu, tau, delta_k, norms, v1, v2a)
            if probe is not None:
                probe(recorder.t[k], dict(eta=eta.copy(), nu=nu.copy(), theta=theta.copy(),
                                          z1=z1.copy(), z2=z2.copy(), alpha1=alpha1.copy(),
                                          basis=g_buf.copy(), tau=tau.copy(),
                                          delta=delta_k.copy()))
            if k == steps:
                break
            for d_in, h, d_out in ((d1, 0.5 * dt, d2), (d2, 0.5 * dt, d3), (d3, dt, d4)):
                np.multiply(d_in, h, out=stage)
                stage += y
                evaluate(stage, delta_k, d_out)
            # y + (dt/6) * (d1 + 2 d2 + 2 d3 + d4), same operation order, in place
            d2 *= 2.0
            d2 += d1
            d3 *= 2.0
            d2 += d3
            d2 += d4
            d2 *= dt / 6.0
            y += d2
            if not np.isfinite(y).all():
                _abort(recorder.t[k + 1], recorder)
            if markov:
                disturbance.step(dt)

    final_theta = (y[6:].reshape(3, n_nodes) if adapt else weights0.theta).copy()
    return recorder.finish(meta or {}, final_theta=final_theta)


def simulate_pid(plant: VesselParams, controller: PidController, disturbance, *,
                 eta0, nu0, eta_d, dt, duration, decimation=1,
                 limits: SaturationLimits | None = None,
                 pos_band=DEFAULT_POS_BAND_M, psi_band=DEFAULT_PSI_BAND_RAD,
                 tail_window=DEFAULT_TAIL_WINDOW_S, meta=None, probe=None):
    """Run the PID loop: one control update per step, zero-order hold."""
    eta_d = np.asarray(eta_d, dtype=float)
    steps = int(round(duration / dt))
    recorder = _RunRecorder(steps, dt, decimation, duration, eta_d,
                            pos_band, psi_band, tail_window)
    markov = isinstance(disturbance, MarkovBias)
    controller.reset()
    zeros3 = np.zeros(3)

    y = np.concatenate([np.asarray(eta0, dtype=float), np.asarray(nu0, dtype=float)])

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            eta = y[:3]
            nu = y[3:6]
            delta_k = (disturbance.body_delta(eta[2]) if markov
                       else disturbance.sample(recorder.t[k]))
            tau = saturate(controller.control(eta, nu, eta_d, dt), limits)
            v1 = 0.5 * float((eta - eta_d) @ (eta - eta_d))
            v2a = v1 + 0.5 * float(nu @ (plant.M @ nu))
            recorder.record(k, eta, nu, tau, delta_k, zeros3, v1, v2a)
            if probe is not None:
                probe(recorder.t[k], dict(eta=eta.copy(), nu=nu.copy(), tau=tau.copy(),
                                          delta=delta_k.copy()))
            if k == steps:
                break

            def deriv(yv):
                R = rotation_matrix(yv[2])
                return np.concatenate([
                    R @ yv[3:6],
                    plant.M_inv @ (tau + delta_k - plant.D @ yv[3:6])])

            d1 = deriv(y)
            d2 = deriv(y + (0.5 * dt) * d1)
            d3 = deriv(y + (0.5 * dt) * d2)
            d4 = deriv(y + dt * d3)
            y = y + (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            if not np.isfinite(y).all():
                _abort(recorder.t[k + 1], recorder)
            if markov:
                disturbance.step(dt)

    return recorder.finish(meta or {})


def run_simulation(cfg: ScenarioConfig):
    """Execute one configured scenario; returns (RunTrace, RunMetrics)."""
    plant = VesselParams(cfg.m_matrix, cfg.d_matrix)
    if cfg.disturbance_type == "constant":
        dist = ConstantDisturbance(cfg.constant_delta)
    else:
        dist = MarkovBias(cfg.time_constants, cfg.noise_scale,
                          cfg.disturbance_seed, cfg.initial_bias)
    limits = SaturationLimits(cfg.tau_max) if cfg.tau_max is not None else None
    meta = {"version": VERSION, **cfg.meta()}
    common = dict(eta0=cfg.initial_pose, nu0=cfg.initial_velocity, eta_d=cfg.target_pose,
                  dt=cfg.dt, duration=cfg.duration, decimation=cfg.decimation,
                  limits=limits, meta=meta)
    if cfg.controller_type == "pid":
        controller = PidController(PidGains(cfg.kp, cfg.ki, cfg.kd), cfg.pid_frame)
        return simulate_pid(plant, controller, dist, **common)
    network = RbfNetwork.grid(cfg.rbf_ranges, cfg.points_per_dim,
                              cfg.rbf_width, cfg.node_ceiling)
    meta["nodes"] = str(network.node_count)
    weights0 = AdaptiveWeights.random_init(network.node_count, cfg.weight_seed)
    gains = BackstepGains(cfg.k1, cfg.k2, cfg.gamma, cfg.sigma,
                          law=cfg.adaptation_law, node_count=network.node_count)
    return simulate_adaptive(plant, gains, network, weights0, dist,
                             adapt=(cfg.controller_type == "adaptive-nn"), **common)


def metrics_from_trace(trace: RunTrace, window=DEFAULT_TAIL_WINDOW_S,
                       pos_band=DEFAULT_POS_BAND_M,
                       psi_band=DEFAULT_PSI_BAND_RAD) -> RunMetrics:
    """Recompute run metrics from a (possibly decimated) trace.

    Uses the target pose recorded in the trace header; note that metrics from
    a decimated trace see only the logged samples.
    """
    target = np.zeros(3)
    raw = trace.meta.get("target_pose_rad")
    if raw:
        target = np.array([float(v) for v in raw.split()])
    pos_err = np.hypot(trace.pose[:, 0] - target[0], trace.pose[:, 1] - target[1])
    psi_err = wrap_angle(trace.pose[:, 2] - target[2])
    in_band = (pos_err < pos_band) & (np.abs(psi_err) < psi_band)
    out_idx = np.nonzero(~in_band)[0]
    if out_idx.size == 0:
        convergence = 0.0
    elif out_idx[-1] == in_band.shape[0] - 1:
        convergence = math.inf
    else:
        convergence = float(trace.t[out_idx[-1] + 1])
    tail = trace.t >= trace.t[-1] - window - 1e-9
    rms_pos = float(np.sqrt(np.mean(pos_err[tail] ** 2)))
    rms_psi = float(np.sqrt(np.mean(psi_err[tail] ** 2)))
    peak_tau = np.abs(trace.tau).max(axis=0)
    weight_sup = float(trace.theta_norms.max())
    return RunMetrics(convergence, rms_pos, rms_psi, peak_tau, weight_sup)


@dataclass
class ComparisonReport:
    labels: list
    metrics: list
    rms_pos_ratio: np.ndarray
    window: float

    def format(self) -> str:
        lines = [f"steady-state window: last {self.window:g} s",
                 f"{'run':<28}{'conv_time_s':>12}{'rms_pos_m':>12}{'rms_psi_rad':>12}"
                 f"{'peak_tau_max':>14}{'weight_sup':>12}"]
        for label, m in zip(self.labels, self.metrics):
            lines.append(f"{label:<28}{m.convergence_time:>12.4g}{m.steady_rms_pos:>12.4g}"
                         f"{m.steady_rms_psi:>12.4g}{m.peak_tau.max():>14.4g}"
                         f"{m.weight_sup:>12.4g}")
        lines.append("pairwise steady_rms_pos ratios (row / column):")
        header = " " * 28 + "".join(f"{lab[:14]:>16}" for lab in self.labels)
        lines.append(header)
        for i, label in enumerate(self.labels):
            cells = "".join(f"{self.rms_pos_ratio[i, j]:>16.4g}"
                            for j in range(len(self.labels)))
            lines.append(f"{label:<28}{cells}")
        return "\n".join(lines)


def compare_runs(traces, window=DEFAULT_TAIL_WINDOW_S) -> ComparisonReport:
    """Tabulate metrics for runs logged on the same time grid.

    Grids count as the same when their times agree to the 9 significant
    digits of the trace CSV, so a run compares with its own read-back.
    """
    traces = list(traces)
    if len(traces) < 2:
        raise ValueError("need at least two traces to compare")
    base_t = traces[0].t
    for trace in traces[1:]:
        if trace.t.shape != base_t.shape or not np.allclose(trace.t, base_t,
                                                             rtol=1e-9, atol=0.0):
            raise ValueError("traces are not on identical time grids")
    labels = []
    for i, trace in enumerate(traces):
        controller = trace.meta.get("controller", "run")
        disturbance = trace.meta.get("disturbance", "")
        labels.append(f"{i}:{controller}+{disturbance}" if disturbance else f"{i}:{controller}")
    metrics = [metrics_from_trace(trace, window) for trace in traces]
    rms = np.array([m.steady_rms_pos for m in metrics])
    ratio = rms[:, None] / rms[None, :]
    return ComparisonReport(labels, metrics, ratio, window)
