"""Closed-loop simulation engine, run metrics, and run comparison.

``_closed_loop`` advances plant + control law + disturbance with a fixed-step
RK4 integrator, one loop for every controller.  A law appends its own state to
the pose and velocity and may fold it back at the end of each step: the
adaptive law appends 15 coordinates of its weights and forms the weights once
per step (see ``simulate_adaptive``); frozen weights and PID append nothing,
and PID holds its output over each step.  The disturbance is held constant
across the sub-stages of each step.  Metrics come from every full-rate sample,
through the same function as ``metrics_from_trace``, so trace decimation does
not change them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version as _pkg_version

import numpy as np

from dpsim import kernels
from dpsim.approximators import AdaptiveWeights, RbfNetwork
from dpsim.config import ScenarioConfig, build_components
from dpsim.controllers import (BackstepGains, PidController, SaturationLimits,
                               saturate)
from dpsim.disturbance import MarkovBias
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
        self.pose = np.array(pose, dtype=float)
        self.velocity = np.array(velocity, dtype=float)
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


def _run_metrics(t, pose, tau, theta_norms, target, window, pos_band, psi_band) -> RunMetrics:
    """Run metrics of a uniformly sampled run with wrapped or unwrapped yaw."""
    pos_err = np.hypot(pose[:, 0] - target[0], pose[:, 1] - target[1])
    psi_err = wrap_angle(pose[:, 2] - target[2])
    in_band = (pos_err < pos_band) & (np.abs(psi_err) < psi_band)
    out_idx = np.nonzero(~in_band)[0]
    if out_idx.size == 0:
        convergence = 0.0
    elif out_idx[-1] == in_band.shape[0] - 1:
        convergence = math.inf
    else:
        convergence = float(t[out_idx[-1] + 1])
    tail = t >= t[-1] - window - 1e-9
    rms_pos = float(np.sqrt(np.mean(pos_err[tail] ** 2)))
    rms_psi = float(np.sqrt(np.mean(psi_err[tail] ** 2)))
    peak_tau = np.abs(tau).max(axis=0)
    weight_sup = float(theta_norms.max())
    return RunMetrics(convergence, rms_pos, rms_psi, peak_tau, weight_sup)


def _closed_loop(plant, law, disturbance, *, eta0, nu0, eta_d, dt, duration, decimation,
                 pos_band, psi_band, tail_window, meta, probe):
    """Integrate plant, control law and disturbance; returns the trace and the metrics.

    ``law = (state0, sample, stage, end_step)``: ``state0`` is the law's own
    state, appended to ``[eta, nu]``.  ``sample(y, R, dy)`` runs at every
    full-rate sample and returns ``(tau, z2, theta_norms, probe_fields)``;
    ``stage(y, R, dy)`` runs at the three later RK4 stages and returns ``tau``.
    Both write the derivative of the law's state into ``dy[6:]``; ``R`` is the
    rotation matrix at ``y[2]``.  ``end_step(y)`` runs after each RK4 combine,
    may rewrite ``y[6:]``, and returns False when the law's state went
    non-finite, which aborts the run like a non-finite ``y``.
    """
    steps = int(round(duration / dt))
    t = np.arange(steps + 1) * dt
    markov = isinstance(disturbance, MarkovBias)
    M, M_inv, D = plant.M, plant.M_inv, plant.D
    state0, sample, stage_tau, end_step = law

    y = np.concatenate([np.asarray(eta0, dtype=float), np.asarray(nu0, dtype=float),
                        state0])
    stage = np.empty_like(y)
    d1, d2, d3, d4 = (np.empty_like(y) for _ in range(4))
    # t, x, y, psi (unwrapped until the end), u, v, r, tau, delta, theta norms, V1, V2a
    rows = np.empty((steps + 1, 18))
    rows[:, 0] = t

    def plant_rate(yv, R, tau, delta, dy):
        nu = yv[3:6]
        dy[0:3] = R @ nu
        dy[3:6] = M_inv @ (tau + delta - D @ nu)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            delta = disturbance.body_delta(y[2]) if markov else disturbance.sample(t[k])
            R = rotation_matrix(y[2])
            tau, z2, norms, fields = sample(y, R, d1)
            plant_rate(y, R, tau, delta, d1)
            z1 = y[:3] - eta_d
            v1 = 0.5 * float(z1 @ z1)
            row = rows[k]
            row[1:7] = y[:6]
            row[7:10] = tau
            row[10:13] = delta
            row[13:16] = norms
            row[16] = v1
            row[17] = v1 + 0.5 * float(z2 @ (M @ z2))
            if probe is not None:
                info = dict(eta=y[:3], nu=y[3:6], **fields, tau=tau, delta=delta)
                probe(t[k], {key: value.copy() for key, value in info.items()})
            if k == steps:
                break
            for d_in, h, d_out in ((d1, 0.5 * dt, d2), (d2, 0.5 * dt, d3), (d3, dt, d4)):
                np.multiply(d_in, h, out=stage)
                stage += y
                R = rotation_matrix(stage[2])
                plant_rate(stage, R, stage_tau(stage, R, d_out), delta, d_out)
            # y + (dt/6) * (d1 + 2 d2 + 2 d3 + d4), same operation order, in place
            d2 *= 2.0
            d2 += d1
            d3 *= 2.0
            d2 += d3
            d2 += d4
            d2 *= dt / 6.0
            y += d2
            if not (end_step(y) and np.isfinite(y).all()):
                raise SimulationAbort(t[k + 1], t[k], rows[k, 1:4], rows[k, 4:7])
            if markov:
                disturbance.step(dt)

    rows[:, 3] = wrap_angle(rows[:, 3])
    metrics = _run_metrics(t, rows[:, 1:4], rows[:, 7:10], rows[:, 13:16], eta_d,
                           tail_window, pos_band, psi_band)
    return RunTrace.from_columns(rows[::decimation], meta), metrics


def _no_state_end_step(y):
    return True


def _row_norms(theta):
    """Euclidean norm of each weight row, one dot product per row."""
    return np.sqrt([row @ row for row in theta])


def simulate_adaptive(plant: VesselParams, gains: BackstepGains, network: RbfNetwork,
                      weights0: AdaptiveWeights, disturbance, *, eta0, nu0, eta_d,
                      dt, duration, decimation=1, limits: SaturationLimits | None = None,
                      adapt=True, pos_band=DEFAULT_POS_BAND_M,
                      psi_band=DEFAULT_PSI_BAND_RAD,
                      tail_window=DEFAULT_TAIL_WINDOW_S, meta=None, probe=None):
    """Run the adaptive (or frozen-weight) backstepping loop.

    ``adapt=False`` keeps the initial weights for the whole run; the
    integrated state is then only the pose and velocity.  With adaptation,
    the update ``theta_dot_i = gamma_i (drive z2_i g + leak sigma_i theta_i)``
    is linear in ``theta_i`` with a scalar gain per axis, so every RK4 stage
    value of ``theta_i`` lies in the span of ``theta_i(t_k)``, the weights at
    the start of the step, and ``g_1 .. g_4``, the basis vectors of the
    step's stages.  Row i of the law's 3 x 5 state ``x`` holds those
    coordinates, reset to ``[1, 0, 0, 0, 0]`` each step; the end-of-step
    hook folds them back into ``theta``.  This is the same RK4 as integrating
    all 3 l weights, up to rounding.  Each stage keeps only the two tensor
    factors of its basis vector (see ``dpsim.kernels``): the network output,
    the Gram products ``g_j . g_s`` and the fold are all taken on the factors.
    ``probe``, when given, is called at every full-rate sample with a dict of
    internals (t, eta, nu, theta, z1, z2, alpha1, basis, tau, delta) for
    diagnostics; only then is the sample's basis vector formed.
    """
    n_nodes = network.node_count
    if weights0.node_count != n_nodes:
        raise ValueError("initial weights do not match the network size")
    eta_d = np.asarray(eta_d, dtype=float)
    K1, K2 = gains.K1, gains.K2
    drive, leak = gains.law_signs
    theta = weights0.theta.copy()
    z_buf = np.empty(9)
    nodes, index = network.nodes, network._index

    def control(yv, R, f):
        """Error coordinates and network output ``theta . g`` at one stage state.

        The factors of the stage's basis vector are written into ``f``.
        """
        eta = yv[:3]
        z1 = eta - eta_d
        alpha1 = -(R.T @ (K1 @ z1))
        z2 = yv[3:6] - alpha1
        z_buf[0:3] = eta
        z_buf[3:6] = yv[3:6]
        z_buf[6:9] = alpha1
        nn = kernels.adaptive_core(nodes, network._inv_two_h2, network._coef, index,
                                   z_buf, theta, f)
        return z1, z2, alpha1, nn

    def probe_fields(z1, z2, alpha1, f):
        if probe is None:
            return None
        return dict(theta=theta, z1=z1, z2=z2, alpha1=alpha1,
                    basis=kernels.basis_from_factors(nodes, f, np.empty(n_nodes)))

    if adapt:
        factors = np.empty((4, index.shape[1]))     # factors of g_1 .. g_4 of the step
        fold_out = np.empty_like(theta)
        decay = gains.gamma * leak * gains.sigma
        gain = gains.gamma * drive
        unit = np.tile([1.0, 0.0, 0.0, 0.0, 0.0], 3)
        norms = _row_norms(theta)
        stage_index = 0

        def law_stage(yv, R, dy):
            f = factors[stage_index]
            z1, z2, alpha1, nn = control(yv, R, f)
            x = yv[6:].reshape(3, 5)
            gram = kernels.gram_row(nodes, factors[:stage_index], f)
            nn = x[:, 0] * nn + x[:, 1:stage_index + 1] @ gram
            dx = dy[6:].reshape(3, 5)
            np.multiply(decay[:, None], x, out=dx)
            dx[:, stage_index + 1] += gain * z2
            return saturate(-(R.T @ z1) - K2 @ z2 + nn, limits), z1, z2, alpha1

        def sample(y, R, dy):
            nonlocal stage_index
            stage_index = 0
            tau, z1, z2, alpha1 = law_stage(y, R, dy)
            return tau, z2, norms, probe_fields(z1, z2, alpha1, factors[0])

        def stage(yv, R, dy):
            nonlocal stage_index
            stage_index += 1
            return law_stage(yv, R, dy)[0]

        def end_step(y):
            nonlocal norms
            kernels.fold(nodes, theta, y[6:].reshape(3, 5), factors, fold_out)
            y[6:] = unit
            norms = _row_norms(theta)
            # a norm overflows before the weights do, so only then look closer
            return bool(np.isfinite(norms).all() or np.isfinite(theta).all())

        law = (unit, sample, stage, end_step)
    else:
        f_buf = np.empty(index.shape[1])
        frozen_norms = weights0.norms()

        def frozen_tau(yv, R):
            z1, z2, alpha1, nn = control(yv, R, f_buf)
            return saturate(-(R.T @ z1) - K2 @ z2 + nn, limits), z1, z2, alpha1

        def sample(y, R, dy):
            tau, z1, z2, alpha1 = frozen_tau(y, R)
            return tau, z2, frozen_norms, probe_fields(z1, z2, alpha1, f_buf)

        law = (np.empty(0), sample, lambda yv, R, dy: frozen_tau(yv, R)[0],
               _no_state_end_step)

    trace, metrics = _closed_loop(
        plant, law, disturbance, eta0=eta0, nu0=nu0, eta_d=eta_d, dt=dt,
        duration=duration, decimation=decimation, pos_band=pos_band, psi_band=psi_band,
        tail_window=tail_window, meta=meta, probe=probe)
    trace.final_theta = theta
    return trace, metrics


def simulate_pid(plant: VesselParams, controller: PidController, disturbance, *,
                 eta0, nu0, eta_d, dt, duration, decimation=1,
                 limits: SaturationLimits | None = None,
                 pos_band=DEFAULT_POS_BAND_M, psi_band=DEFAULT_PSI_BAND_RAD,
                 tail_window=DEFAULT_TAIL_WINDOW_S, meta=None, probe=None):
    """Run the PID loop: one control update per step, zero-order hold."""
    eta_d = np.asarray(eta_d, dtype=float)
    controller.reset()
    zeros3 = np.zeros(3)
    tau = zeros3

    def sample(y, R, dy):
        nonlocal tau
        tau = saturate(controller.control(y[:3], y[3:6], eta_d, dt), limits)
        return tau, y[3:6], zeros3, {}

    law = (np.empty(0), sample, lambda yv, R, dy: tau, _no_state_end_step)
    trace, metrics = _closed_loop(
        plant, law, disturbance, eta0=eta0, nu0=nu0, eta_d=eta_d, dt=dt,
        duration=duration, decimation=decimation, pos_band=pos_band, psi_band=psi_band,
        tail_window=tail_window, meta=meta, probe=probe)
    return trace, metrics


def run_simulation(cfg: ScenarioConfig):
    """Execute one configured scenario; returns (RunTrace, RunMetrics)."""
    parts = build_components(cfg)
    meta = {"version": VERSION, **cfg.meta()}
    common = dict(eta0=cfg.initial_pose, nu0=cfg.initial_velocity, eta_d=cfg.target_pose,
                  dt=cfg.dt, duration=cfg.duration, decimation=cfg.decimation,
                  limits=parts.limits, meta=meta)
    if parts.network is None:
        return simulate_pid(parts.plant, parts.pid, parts.disturbance, **common)
    meta["nodes"] = str(parts.network.node_count)
    weights0 = AdaptiveWeights.random_init(parts.network.node_count, cfg.weight_seed)
    return simulate_adaptive(parts.plant, parts.gains, parts.network, weights0,
                             parts.disturbance,
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
    return _run_metrics(trace.t, trace.pose, trace.tau, trace.theta_norms, target,
                        window, pos_band, psi_band)


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
