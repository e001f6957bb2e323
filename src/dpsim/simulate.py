"""Closed-loop simulation engine, run metrics, and run comparison.

``_closed_loop`` advances plant + control law + disturbance with a fixed-step
RK4 integrator, one loop for every controller.  A law appends its own state to
the pose and velocity and may fold it back at the end of each step: the
adaptive law appends 15 coordinates of its weights and forms the weights once
per step (see ``simulate_adaptive``); frozen weights and PID append nothing,
and PID holds its output over each step.  The disturbance is held constant
across the sub-stages of each step.  The state is a list of floats and the
engine's and the laws' 3-vector arithmetic is written in floats, not numpy
calls, since the call cost dominates at that size.
Metrics come from every full-rate sample, through the same function as
``metrics_from_trace``, so trace decimation does not change them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dpsim import __version__, kernels
from dpsim.approximators import AdaptiveWeights, RbfNetwork
from dpsim.config import ScenarioConfig, build_components
from dpsim.controllers import (BackstepGains, PidController, SaturationLimits,
                               backstep_law, saturate)
from dpsim.disturbance import MarkovBias
from dpsim.traces import RunTrace
# rotation_matrix is no longer called here; perfbench's tracer and tests still look it up
from dpsim.vessel import VesselParams, rotation_matrix, ssa, wrap_angle, yaw_cos_sin  # noqa: F401

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

    The state ``y`` is a list of floats: pose, velocity, then ``state0``, the
    law's own state.  ``law = (state0, control, end_step)``.
    ``control(y, c, s, stage)`` runs at RK4 stage 0 (the full-rate sample)
    to 3, with ``(c, s)`` the cosine and sine of the stage's yaw, and returns
    ``(tau, dstate, z2, theta_norms, probe_fields)``: ``tau`` and ``z2`` are
    three floats, ``dstate`` the derivative of the law's state as floats;
    the last three are read at stage 0 only.  ``end_step(y)``, if not None,
    runs after each RK4 combine, may rewrite ``y[6:]``, and returns False when
    the law's state went non-finite, which aborts the run like a non-finite
    ``y``.  Probe arrays are built only when ``probe`` is given.
    """
    steps = int(round(duration / dt))
    t = np.arange(steps + 1) * dt
    markov = isinstance(disturbance, MarkovBias)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = plant.M_inv.tolist()
    (d00, d01, d02), (d10, d11, d12), (d20, d21, d22) = plant.D.tolist()
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = plant.M.tolist()
    xd, yd, psid = eta_d.tolist()
    state0, control, end_step = law
    half, sixth = 0.5 * dt, dt / 6.0

    y = [*np.asarray(eta0, dtype=float).tolist(), *np.asarray(nu0, dtype=float).tolist(),
         *state0]
    # t, x, y, psi (unwrapped until the end), u, v, r, tau, delta, theta norms, V1, V2a
    rows = np.empty((steps + 1, 18))
    rows[:, 0] = t

    def rate(yv, c, s, tau, dstate):
        """[R nu, M^-1 (tau + delta - D nu), dstate] at the held load ``delta``."""
        u, v, r = yv[3:6]
        t0, t1, t2 = tau
        f0 = t0 + delta[0] - (d00 * u + d01 * v + d02 * r)
        f1 = t1 + delta[1] - (d10 * u + d11 * v + d12 * r)
        f2 = t2 + delta[2] - (d20 * u + d21 * v + d22 * r)
        return [c * u - s * v, s * u + c * v, r, a00 * f0 + a01 * f1 + a02 * f2,
                a10 * f0 + a11 * f1 + a12 * f2, a20 * f0 + a21 * f1 + a22 * f2, *dstate]

    def stage_rate(stage, h, d_in):
        yv = [d * h + v for d, v in zip(d_in, y)]
        c, s = yaw_cos_sin(yv[2])
        return rate(yv, c, s, *control(yv, c, s, stage)[:2])

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            c, s = yaw_cos_sin(y[2])
            delta = disturbance.body_load(c, s) if markov else disturbance.sample(t[k]).tolist()
            tau, dstate, z2, norms, fields = control(y, c, s, 0)
            d1 = rate(y, c, s, tau, dstate)
            pv = y[:6]
            e0, e1, e2 = pv[0] - xd, pv[1] - yd, ssa(pv[2] - psid)
            v1 = 0.5 * (e0 * e0 + e1 * e1 + e2 * e2)
            q0, q1, q2 = z2
            v2a = v1 + 0.5 * (q0 * (m00 * q0 + m01 * q1 + m02 * q2) + q1 * (
                m10 * q0 + m11 * q1 + m12 * q2) + q2 * (m20 * q0 + m21 * q1 + m22 * q2))
            rows[k, 1:] = (*pv, *tau, *delta, *norms, v1, v2a)
            if probe is not None:
                info = dict(eta=pv[:3], nu=pv[3:], **fields, tau=tau, delta=delta)
                probe(t[k], {key: np.array(value, dtype=float) for key, value in info.items()})
            if k == steps:
                break
            d2 = stage_rate(1, half, d1)
            d3 = stage_rate(2, half, d2)
            d4 = stage_rate(3, dt, d3)
            # y + (dt/6) (d1 + 2 d2 + 2 d3 + d4); this summation order keeps the traces' bits
            y = [v + (((g2 * 2.0 + g1) + g3 * 2.0) + g4) * sixth
                 for v, g1, g2, g3, g4 in zip(y, d1, d2, d3, d4)]
            if not ((end_step is None or end_step(y)) and all(map(math.isfinite, y))):
                raise SimulationAbort(t[k + 1], t[k], rows[k, 1:4], rows[k, 4:7])
            if markov:
                disturbance.step(dt)

    rows[:, 3] = wrap_angle(rows[:, 3])
    metrics = _run_metrics(t, rows[:, 1:4], rows[:, 7:10], rows[:, 13:16], eta_d,
                           tail_window, pos_band, psi_band)
    return RunTrace.from_columns(rows[::decimation], meta), metrics


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
    The law's 3-vector arithmetic is ``controllers.backstep_law``, in floats.
    ``probe``, when given, is called at every full-rate sample with a dict of
    internals (t, eta, nu, theta, z1, z2, alpha1, basis, tau, delta) for
    diagnostics; only then is the sample's basis vector formed.
    """
    n_nodes = network.node_count
    if weights0.node_count != n_nodes:
        raise ValueError("initial weights do not match the network size")
    eta_d = np.asarray(eta_d, dtype=float)
    drive, leak = gains.law_signs
    errors, torque = backstep_law(gains, eta_d, limits)
    theta = weights0.theta.copy()
    z_buf = np.empty(9)
    nodes, index = network.nodes, network._index

    def network_terms(yv, c, s, stage, f):
        """Errors, network output and probe fields at a stage; the basis factors go to ``f``."""
        z1, alpha1, z2 = errors(yv, c, s)
        z_buf[:] = (*yv[:6], *alpha1)
        nn = kernels.adaptive_core(nodes, network._inv_two_h2, network._coef, index,
                                   z_buf, theta, f).tolist()
        fields = None
        if probe is not None and stage == 0:
            fields = dict(theta=theta, z1=z1, z2=z2, alpha1=alpha1,
                          basis=kernels.basis_from_factors(nodes, f, np.empty(n_nodes)))
        return z1, z2, nn, fields

    if adapt:
        factors = np.empty((4, index.shape[1]))     # factors of g_1 .. g_4 of the step
        fold_out = np.empty_like(theta)
        decay = (gains.gamma * leak * gains.sigma).tolist()
        gain = (gains.gamma * drive).tolist()
        unit = [1.0, 0.0, 0.0, 0.0, 0.0] * 3
        norms = _row_norms(theta)

        def control(yv, c, s, stage):
            f = factors[stage]
            z1, z2, nn, fields = network_terms(yv, c, s, stage, f)
            gram = kernels.gram_row(nodes, factors[:stage], f).tolist()
            out, dx = [], []
            for i in range(3):
                x = yv[6 + 5 * i:11 + 5 * i]
                span = 0.0
                for xj, gj in zip(x[1:], gram):
                    span += xj * gj
                out.append(x[0] * nn[i] + span)
                row = [decay[i] * xj for xj in x]
                row[stage + 1] += gain[i] * z2[i]
                dx += row
            return torque(z1, z2, out, c, s), dx, z2, norms, fields

        def end_step(y):
            nonlocal norms
            kernels.fold(nodes, theta, np.array(y[6:]).reshape(3, 5), factors, fold_out)
            y[6:] = unit
            norms = _row_norms(theta)
            # a norm overflows before the weights do, so only then look closer
            return bool(np.isfinite(norms).all() or np.isfinite(theta).all())

        law = (unit, control, end_step)
    else:
        f_buf = np.empty(index.shape[1])
        frozen_norms = weights0.norms()

        def control(yv, c, s, stage):
            z1, z2, nn, fields = network_terms(yv, c, s, stage, f_buf)
            return torque(z1, z2, nn, c, s), (), z2, frozen_norms, fields

        law = ((), control, None)

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
    zeros3 = tau = (0.0, 0.0, 0.0)

    def control(yv, c, s, stage):
        nonlocal tau
        if stage == 0:
            tau = saturate(controller.control(yv[:3], yv[3:6], eta_d, dt), limits).tolist()
        return tau, (), yv[3:6], zeros3, {}

    trace, metrics = _closed_loop(
        plant, ((), control, None), disturbance, eta0=eta0, nu0=nu0,
        eta_d=eta_d, dt=dt, duration=duration, decimation=decimation, pos_band=pos_band,
        psi_band=psi_band, tail_window=tail_window, meta=meta, probe=probe)
    return trace, metrics


def run_simulation(cfg: ScenarioConfig):
    """Execute one configured scenario; returns (RunTrace, RunMetrics)."""
    parts = build_components(cfg)
    meta = {"version": __version__, **cfg.meta()}
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
