"""Closed-loop simulation engine, run metrics, and run comparison.

``_closed_loop`` advances plant + control law + disturbance with a fixed-step
RK4 integrator, one loop for every controller.  A law appends its own state to
the pose and velocity and may rewrite it at the end of each step: the
adaptive law appends 15 coordinates of its weights, resets them each step
and forms the weights every ``FOLD_STEPS`` steps (see ``simulate_adaptive``);
frozen weights and PID append nothing, and PID holds its output over each
step.  Every load, constant or Markov, is read through ``body_load(cos psi,
sin psi)`` once per step, held across the sub-stages, and advanced by
``step(dt)``; both laws clamp through ``controllers.saturate``.  The state
is a list of floats and the engine's and the laws' 3-vector arithmetic is
written in floats, not numpy calls, since the call cost dominates at that
size.  The engine fills one row per
full-rate sample and hands the rows to ``RunTrace`` as they are.
Metrics come from every full-rate sample, through the same function as
``metrics_from_trace``; ``run_simulation`` decimates the trace after them.
The bands and the tail window are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dpsim import __version__, kernels
from dpsim.approximators import AdaptiveWeights, RbfNetwork, row_norms
from dpsim.config import ScenarioConfig, build_components
from dpsim.controllers import (BackstepGains, PidController, SaturationLimits,
                               backstep_law, saturate)
from dpsim.traces import TRACE_COLUMNS, RunTrace, target_pose
# unused here: perfbench's test_wrappers_are_removed_after_the_request reads rotation_matrix
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
    inside the (DEFAULT_POS_BAND_M, DEFAULT_PSI_BAND_RAD) box for the rest of
    the run; +inf when it never does.  Steady-state RMS values are taken over
    the tail window.
    """

    convergence_time: float
    steady_rms_pos: float
    steady_rms_psi: float
    peak_tau: np.ndarray
    weight_sup: float


def _run_metrics(trace: RunTrace, target, window) -> RunMetrics:
    """Run metrics of a uniformly sampled trace over the last ``window`` seconds."""
    t, pose = trace.t, trace.pose
    pos_err = np.hypot(pose[:, 0] - target[0], pose[:, 1] - target[1])
    psi_err = wrap_angle(pose[:, 2] - target[2])
    in_band = (pos_err < DEFAULT_POS_BAND_M) & (np.abs(psi_err) < DEFAULT_PSI_BAND_RAD)
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
    peak_tau = np.abs(trace.tau).max(axis=0)
    weight_sup = float(trace.theta_norms.max())
    return RunMetrics(convergence, rms_pos, rms_psi, peak_tau, weight_sup)


def _closed_loop(plant, law, disturbance, *, eta0, nu0, eta_d, dt, duration, probe):
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
    ``y``.  Each step calls ``control`` at stages 0 to 3 in that order and
    then ``end_step``, and the last sample calls stage 0 only, so a law may
    carry work from one call to the next.  Probe arrays are built only when
    ``probe`` is given.
    """
    steps = int(round(duration / dt))
    t = (np.arange(steps + 1) * dt).tolist()
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = plant.M_inv.tolist()
    (d00, d01, d02), (d10, d11, d12), (d20, d21, d22) = plant.D.tolist()
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = plant.M.tolist()
    xd, yd, psid = eta_d.tolist()
    state0, control, end_step = law
    half, sixth = 0.5 * dt, dt / 6.0

    y = [*np.asarray(eta0, dtype=float).tolist(), *np.asarray(nu0, dtype=float).tolist(),
         *state0]
    # one row per sample; yaw stays unwrapped until the end
    rows = np.empty((steps + 1, len(TRACE_COLUMNS)))

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
            delta = disturbance.body_load(c, s)
            tau, dstate, z2, norms, fields = control(y, c, s, 0)
            d1 = rate(y, c, s, tau, dstate)
            pv = y[:6]
            e0, e1, e2 = pv[0] - xd, pv[1] - yd, ssa(pv[2] - psid)
            v1 = 0.5 * (e0 * e0 + e1 * e1 + e2 * e2)
            q0, q1, q2 = z2
            v2a = v1 + 0.5 * (q0 * (m00 * q0 + m01 * q1 + m02 * q2) + q1 * (
                m10 * q0 + m11 * q1 + m12 * q2) + q2 * (m20 * q0 + m21 * q1 + m22 * q2))
            rows[k] = (t[k], *pv, *tau, *delta, *norms, v1, v2a)
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
                raise SimulationAbort(t[k + 1], t[k], pv[:3], pv[3:])
            disturbance.step(dt)

    trace = RunTrace(rows)
    trace.pose[:, 2] = wrap_angle(trace.pose[:, 2])
    return trace, _run_metrics(trace, eta_d, DEFAULT_TAIL_WINDOW_S)


# Steps whose factor rows wait before they are folded into the weights (see
# simulate_adaptive).  A fold makes two full passes over the weights; on 3^9
# nodes 8 was the fastest of 2, 4, 6, 8 and 16 (BENCH_12.json).
FOLD_STEPS = 8


def simulate_adaptive(plant: VesselParams, gains: BackstepGains, network: RbfNetwork,
                      weights0: AdaptiveWeights, disturbance, *, eta0, nu0, eta_d,
                      dt, duration, limits: SaturationLimits | None = None, adapt=True,
                      probe=None):
    """Run the adaptive (or frozen-weight) backstepping loop.

    ``adapt=False`` keeps the initial weights for the whole run and reads
    them in place; the integrated state is then only the pose and velocity.  With adaptation,
    the update ``theta_dot_i = gamma_i s (z2_i g + sigma_i theta_i)``, with
    ``s = gains.law_sign``, is linear in ``theta_i`` with a scalar gain per
    axis, so every RK4 stage value of ``theta_i`` lies in the span of
    ``theta_i(t_k)``, the weights at the start of the step, and
    ``g_1 .. g_4``, the basis vectors of the step's stages.  Row i of the law's 3 x 5 state ``x`` holds those
    coordinates, reset to ``[1, 0, 0, 0, 0]`` each step.  This is the same
    RK4 as integrating all 3 l weights, up to rounding.  Each stage keeps
    only the two tensor factors of its basis vector (see ``dpsim.kernels``):
    the network output, the Gram products ``g_j . g_s`` and the fold are all
    taken on the factors.

    The weights are not formed every step.  ``theta(t_k) = a theta + sum_j
    c_j g_j`` over the pending factor rows of the steps since the last fold,
    so a stage output is ``a (theta . g) + sum_j c_j (g_j . g)`` plus the
    step's span term, from one Gram row over the pending and stage rows.
    The end of a step scales ``(a, c)`` by ``x_0`` and appends the step's
    coordinates; ``kernels.fold`` forms the weights every ``FOLD_STEPS``
    steps, at the end of the run, and every step while a probe is attached.
    The weight norms come from the Gram identity
    ``|x_0 theta + sum_s x_s g_s|^2 = x_0^2 |theta|^2 + 2 x_0 sum_s x_s
    theta . g_s + sum_st x_s x_t g_s . g_t``; only when that is not finite
    or negative are the weights folded and their norms taken directly.
    The law's 3-vector arithmetic is ``controllers.backstep_law``, in floats.
    ``probe``, when given, is called at every full-rate sample with a dict of
    internals (t, eta, nu, theta, z1, z2, alpha1, basis, tau, delta) for
    diagnostics; only then is the sample's basis vector formed.
    ``trace.final_theta`` is a read-only view of the run's weights, which
    for a frozen run are ``weights0.theta`` itself.  The stages share one
    ``kernels.Workspace``, so a stage allocates only its results.
    """
    if weights0.node_count != network.node_count:
        raise ValueError("initial weights do not match the network size")
    eta_d = np.asarray(eta_d, dtype=float)
    sign = gains.law_sign
    errors, torque = backstep_law(gains, eta_d, limits)
    theta = weights0.theta.copy() if adapt else weights0.theta     # frozen: read in place
    work = network.workspace(theta)
    z = work.z
    pending = 0                 # factor rows not yet folded into theta

    def network_terms(yv, c, s, stage, f):
        """Errors, ``theta_i . g`` and probe fields at a stage; the factors go to ``f``."""
        z1, alpha1, z2 = errors(yv, c, s)
        z[:] = (*yv[:6], *alpha1)
        core = kernels.adaptive_core(work, f)
        fields = None
        if probe is not None and stage == 0:
            fields = dict(theta=theta, z1=z1, z2=z2, alpha1=alpha1, basis=work.basis(f))
        return z1, z2, core, fields

    if adapt:
        fold_steps = 1 if probe is not None else FOLD_STEPS     # probes read theta
        # factors of the pending rows, then of g_1 .. g_4 of the step
        factors = np.empty((4 * fold_steps, work.size))
        fold_out = np.empty_like(theta)
        coef = np.zeros((3, 1 + factors.shape[0]))      # [a, c_1 .. c_pending] per row
        coef[:, 0] = 1.0
        # row i: the Gram matrix of theta_i(t_k), g_1 .. g_4
        gram5 = np.empty((3, 5, 5))
        decay = (gains.gamma * sign * gains.sigma).tolist()
        gain = (gains.gamma * sign).tolist()
        unit = [1.0, 0.0, 0.0, 0.0, 0.0] * 3
        norms = row_norms(theta)
        gram5[:, 0, 0] = norms * norms

        def fold():
            nonlocal pending
            kernels.fold(work, coef[:, :1 + pending], factors[:pending], fold_out)
            coef[:, 0] = 1.0
            pending = 0

        def control(yv, c, s, stage):
            at = pending + stage
            f = factors[at]
            z1, z2, core, fields = network_terms(yv, c, s, stage, f)
            gram = kernels.gram_row(work, factors[:at + 1], f)
            theta_g = coef[:, 0] * core + coef[:, 1:pending + 1] @ gram[:pending]
            gram5[:, 0, stage + 1] = gram5[:, stage + 1, 0] = theta_g
            gram5[:, stage + 1, 1:stage + 2] = gram5[:, 1:stage + 2, stage + 1] = gram[pending:]
            nn, here = theta_g.tolist(), gram[pending:at].tolist()
            out, dx = [], []
            for i in range(3):
                x = yv[6 + 5 * i:11 + 5 * i]
                span = 0.0
                for xj, gj in zip(x[1:], here):
                    span += xj * gj
                out.append(x[0] * nn[i] + span)
                row = [decay[i] * xj for xj in x]
                row[stage + 1] += gain[i] * z2[i]
                dx += row
            return torque(z1, z2, out, c, s), dx, z2, norms, fields

        def end_step(y):
            nonlocal norms, pending
            x = np.array(y[6:]).reshape(3, 5)
            y[6:] = unit
            # the Gram identity: |x_0 theta(t_k) + sum_s x_s g_s|^2 per row
            sq = (x[:, None] @ gram5 @ x[:, :, None]).ravel()
            coef[:, :pending + 1] *= x[:, :1]
            coef[:, pending + 1:pending + 5] = x[:, 1:]
            pending += 4
            norms = np.sqrt(sq)
            finite = np.isfinite(norms).all()
            if pending == factors.shape[0] or not finite:
                fold()
            if not finite:
                # a norm overflows before the weights do, so only then look closer
                norms = row_norms(theta)
                sq = norms * norms
            gram5[:, 0, 0] = sq
            return bool(finite or np.isfinite(norms).all() or np.isfinite(theta).all())

        law = (unit, control, end_step)
    else:
        f_buf = np.empty(work.size)
        frozen_norms = row_norms(theta)

        def control(yv, c, s, stage):
            z1, z2, core, fields = network_terms(yv, c, s, stage, f_buf)
            return torque(z1, z2, core.tolist(), c, s), (), z2, frozen_norms, fields

        law = ((), control, None)

    trace, metrics = _closed_loop(
        plant, law, disturbance, eta0=eta0, nu0=nu0, eta_d=eta_d, dt=dt,
        duration=duration, probe=probe)
    if pending:
        fold()
    trace.final_theta = theta.view()
    trace.final_theta.flags.writeable = False
    return trace, metrics


def simulate_pid(plant: VesselParams, controller: PidController, disturbance, *,
                 eta0, nu0, eta_d, dt, duration, limits: SaturationLimits | None = None,
                 probe=None):
    """Run the PID loop: one control update per step, zero-order hold."""
    eta_d = np.asarray(eta_d, dtype=float)
    target = eta_d.tolist()
    controller.reset()
    zeros3 = tau = (0.0, 0.0, 0.0)

    def control(yv, c, s, stage):
        nonlocal tau
        if stage == 0:
            tau = saturate(controller.control(yv[:3], yv[3:6], target, dt).tolist(), limits)
        return tau, (), yv[3:6], zeros3, {}

    return _closed_loop(
        plant, ((), control, None), disturbance, eta0=eta0, nu0=nu0, eta_d=eta_d, dt=dt,
        duration=duration, probe=probe)


def run_simulation(cfg: ScenarioConfig):
    """Execute one configured scenario; returns (RunTrace, RunMetrics), the trace
    stamped with its header and decimated after the metrics saw every sample."""
    parts = build_components(cfg)
    meta = {"version": __version__, **cfg.meta()}
    common = dict(eta0=cfg.initial_pose, nu0=cfg.initial_velocity, eta_d=cfg.target_pose,
                  dt=cfg.dt, duration=cfg.duration, limits=parts.limits)
    if parts.network is None:
        trace, metrics = simulate_pid(parts.plant, parts.pid, parts.disturbance, **common)
    else:
        meta["nodes"] = str(parts.network.node_count)
        weights0 = AdaptiveWeights.random_init(parts.network.node_count, cfg.weight_seed)
        adapt = cfg.controller_type == "adaptive-nn"
        trace, metrics = simulate_adaptive(parts.plant, parts.gains, parts.network, weights0,
                                           parts.disturbance, adapt=adapt, **common)
    trace.meta = meta
    if cfg.decimation > 1:
        trace.data = trace.data[::cfg.decimation].copy()
    return trace, metrics


def metrics_from_trace(trace: RunTrace, window=DEFAULT_TAIL_WINDOW_S) -> RunMetrics:
    """Recompute run metrics from a (possibly decimated) trace.

    Uses the target pose recorded in the trace header; note that metrics from
    a decimated trace see only the logged samples.
    """
    return _run_metrics(trace, target_pose(trace.meta.get("target_pose_rad") or "0 0 0"),
                        window)


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
    if not window >= 0:
        raise ValueError(f"window must be a non-negative number of seconds, got {window:g}")
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
    with np.errstate(divide="ignore", invalid="ignore"):    # 0/0 stays nan
        ratio = rms[:, None] / rms[None, :]
    return ComparisonReport(labels, metrics, ratio, window)
