"""Closed-loop simulation engine, run metrics, and run comparison.

``_closed_loop`` advances plant + control law + disturbance with a fixed-step
RK4 integrator, one loop for every controller.  Its RK4 state is the pose and
velocity, six floats, for every controller; a law with state of its own
integrates it at the same stages.  The adaptive law carries 15 coordinates
of its weights, resets them each step and forms the weights every
``FOLD_STEPS`` steps (see ``_network_run``); frozen weights and PID
carry none.  PID holds its output over each step: its law, bound once per
run by ``PidController.bind``, runs once per step on the engine's yaw cosine
and sine, taken inline.  Every load, constant or Markov, is read through
``body_load(cos psi, sin psi)`` once per step, held across the sub-stages,
and advanced by the call its ``stepper(dt)`` binds once per run, which starts
the load afresh, so one component set serves every run; both laws clamp
through ``controllers.saturate`` given limits.  The engine's and the laws'
3-vector arithmetic is written in floats, not numpy calls, since the call
cost dominates at that size.  It skips what is exactly zero: the plant rate
and V2a read only surge and the sway-yaw block of M, M^-1 and D, which
``VesselParams`` requires; a held law's plant force ``tau + load`` is formed
once per step; and the adaptive law forms only the live entries of its
weight coordinates.
The engine packs one row of doubles per full-rate sample into a buffer
that becomes ``RunTrace.data`` without a copy; the time column and V1,
which nothing in the loop reads, are formed after the loop, in numpy, with
the per-row operations.
Metrics come from every full-rate sample, through the same function as
``metrics_from_trace``; ``run_simulation`` decimates the trace after them.
The bands and the tail window are the module constants below.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from dpsim import __version__, kernels
from dpsim.approximators import AdaptiveWeights, RbfNetwork, row_norms
from dpsim.config import ScenarioConfig
from dpsim.controllers import (BackstepGains, PidController, SaturationLimits,
                               backstep_law, saturate)
from dpsim.traces import TRACE_COLUMNS, RunTrace, target_pose
# unused here: perfbench's test_wrappers_are_removed_after_the_request reads rotation_matrix
from dpsim.vessel import VesselParams, rotation_matrix, ssa_array, wrap_angle  # noqa: F401

DEFAULT_POS_BAND_M = 0.5
DEFAULT_PSI_BAND_RAD = math.radians(0.5)
DEFAULT_TAIL_WINDOW_S = 200.0

# a trace row as _closed_loop packs it: t (column 0) and V1 (column 16) are
# left out, as pad bytes, and formed after the loop
_ROW = struct.Struct("8x15d8xd")


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

    The RK4 state ``y`` is the pose and velocity, a tuple of six floats, for
    every controller.  ``law = (control, held, end_step)``.  ``control(y, c,
    s, stage)`` runs at RK4 stage 0, the full-rate sample, with ``(c, s)``
    the cosine and sine of the yaw, and returns ``(tau, z2, theta_norms,
    probe_fields)``: ``tau`` and ``z2`` are three floats.  Each stage takes
    ``(c, s)`` inline, both nan at a yaw of +-inf, where ``math.cos``
    raises, as ``vessel.yaw_cos_sin`` gives.  A ``held`` law
    holds tau over the step, and stages 1 to 3 reuse it; otherwise
    ``control`` runs at them too and returns tau alone there.  The plant
    force ``p = tau + load`` is formed once per step for a held law and once
    per stage otherwise.  Stages 1 to 3
    are one loop: each forms its state, yaw, tau and plant rate inline and
    adds the rate, weighted, to a running sum from stage 0's rate.  The
    plant rate ``M^-1 (p - D nu)`` and V2a's ``z2' M z2`` read only the
    surge entry and the sway-yaw block of each matrix: the entries that
    couple them are zero, so their products would only add a signed zero.
    Every kept operation has its old operands in its old order, so the
    traces keep their bytes; only an exact zero sum could differ in sign.
    ``end_step()``, if not None, runs after each RK4 combine and returns
    False when the law's own state went non-finite, which aborts the run
    like a non-finite ``y``.  A finite sum of ``y``'s six floats proves
    them all finite; only a sum that overflows takes the test float by float.
    The stages run in order and ``end_step`` after them, and the last
    sample runs stage 0 only, so a law may carry work, and state of its
    own, from one call to the next.
    Probe arrays are built only when ``probe`` is given.

    Each sample is one ``struct`` pack into a ``bytearray`` of ``steps + 1``
    rows of ``len(TRACE_COLUMNS)`` doubles, the buffer ``RunTrace.data``
    then views.  The pack leaves out t and V1 and writes V2a's energy term
    ``0.5 z2' M z2``.  After the loop, t is ``k dt``, as the probe and
    ``SimulationAbort`` take it, and ``V1 = 0.5 ((ex ex + ey ey) + epsi
    epsi)``, with ``epsi = ssa(psi - psi_d)`` on the unwrapped yaw, is formed
    in its column and added to V2a's, by the same IEEE operations on the
    same operands, in the same order, as the scalar expression, so those
    columns keep their bits.
    """
    steps = int(round(duration / dt))
    # surge and the sway-yaw block only: the entries that couple them are exact
    # zeros in M and D (vessel._check_structural_zeros) and so in M^-1, and a
    # product with one adds only a signed zero to a finite sum
    (a00, _, _), (_, a11, a12), (_, a21, a22) = plant.M_inv.tolist()
    (d00, _, _), (_, d11, d12), (_, d21, d22) = plant.D.tolist()
    (m00, _, _), (_, m11, m12), (_, m21, m22) = plant.M.tolist()
    xd, yd, psid = eta_d.tolist()
    control, held, end_step = law
    # (s, h, w): stage s's state is y + h k_(s-1), and it adds w k_s to the sum
    stages, sixth = ((1, 0.5 * dt, 2.0), (2, 0.5 * dt, 2.0), (3, dt, 1.0)), dt / 6.0
    advance, body_load = disturbance.stepper(dt), disturbance.body_load
    cos, sin, isfinite = math.cos, math.sin, math.isfinite

    y = (*np.asarray(eta0, dtype=float).tolist(), *np.asarray(nu0, dtype=float).tolist())
    # one row of doubles per sample, packed into the trace's own buffer; t and V1
    # are left for after the loop, and yaw stays unwrapped until then
    width = len(TRACE_COLUMNS)
    buf = bytearray(8 * width * (steps + 1))
    pack = _ROW.pack_into

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            y0, y1, y2, y3, y4, y5 = y
            try:
                c, s = cos(y2), sin(y2)
            except ValueError:      # at +-inf, as vessel.yaw_cos_sin
                c = s = math.nan
            l0, l1, l2 = body_load(c, s)
            tau, z2, norms, fields = control(y, c, s, 0)
            t0, t1, t2 = tau
            p0, p1, p2 = t0 + l0, t1 + l1, t2 + l2      # the plant force, as at stages 1-3
            f0 = p0 - d00 * y3
            f1 = p1 - (d11 * y4 + d12 * y5)
            f2 = p2 - (d21 * y4 + d22 * y5)
            k0, k1, k2, k3, k4, k5 = (c * y3 - s * y4, s * y3 + c * y4, y5, a00 * f0,
                                      a11 * f1 + a12 * f2, a21 * f1 + a22 * f2)
            (q0, q1, q2), (n0, n1, n2) = z2, norms
            # V2a's energy term 0.5 z2' M z2; V1 is added to it after the loop
            pack(buf, 8 * width * k, y0, y1, y2, y3, y4, y5, t0, t1, t2, l0, l1, l2,
                 n0, n1, n2, 0.5 * (q0 * (m00 * q0) + q1 * (m11 * q1 + m12 * q2)
                                    + q2 * (m21 * q1 + m22 * q2)))
            if probe is not None:
                info = dict(eta=y[:3], nu=y[3:], **fields, tau=tau, delta=(l0, l1, l2))
                probe(k * dt, {key: np.array(value, dtype=float) for key, value in info.items()})
            if k == steps:
                break
            # ((k_0 + 2 k_1) + 2 k_2) + k_3, in stage order: this order keeps the traces' bits
            acc0, acc1, acc2, acc3, acc4, acc5 = k0, k1, k2, k3, k4, k5
            for stage, h, w in stages:
                psi, u, v, r = k2 * h + y2, k3 * h + y3, k4 * h + y4, k5 * h + y5
                try:
                    c, s = cos(psi), sin(psi)
                except ValueError:
                    c = s = math.nan
                if not held:
                    t0, t1, t2 = control((k0 * h + y0, k1 * h + y1, psi, u, v, r), c, s, stage)
                    p0, p1, p2 = t0 + l0, t1 + l1, t2 + l2
                f0 = p0 - d00 * u
                f1 = p1 - (d11 * v + d12 * r)
                f2 = p2 - (d21 * v + d22 * r)
                k0, k1, k2, k3, k4, k5 = (c * u - s * v, s * u + c * v, r, a00 * f0,
                                          a11 * f1 + a12 * f2, a21 * f1 + a22 * f2)
                acc0 += k0 * w
                acc1 += k1 * w
                acc2 += k2 * w
                acc3 += k3 * w
                acc4 += k4 * w
                acc5 += k5 * w
            y = x0, x1, x2, x3, x4, x5 = (y0 + acc0 * sixth, y1 + acc1 * sixth, y2 + acc2 * sixth,
                                          y3 + acc3 * sixth, y4 + acc4 * sixth, y5 + acc5 * sixth)
            if not ((end_step is None or end_step())
                    and (isfinite(x0 + x1 + x2 + x3 + x4 + x5) or all(map(isfinite, y)))):
                raise SimulationAbort((k + 1) * dt, k * dt, (y0, y1, y2), (y3, y4, y5))
            advance()

        trace = RunTrace(np.frombuffer(buf).reshape(steps + 1, width))
        # k dt, as the probe and SimulationAbort take it
        np.multiply(np.arange(steps + 1), dt, out=trace.t)
        # V1 = 0.5 ((ex ex + ey ey) + epsi epsi) in the scalar expression's order, in
        # place in its column with one temporary; V2a is its energy term + V1
        v1, v2a, err = trace.v1, trace.v2a_partial, trace.pose[:, 0] - xd
        np.multiply(err, err, out=v1)
        np.subtract(trace.pose[:, 1], yd, out=err)
        err *= err
        v1 += err
        np.subtract(trace.pose[:, 2], psid, out=err)
        err = ssa_array(err)
        err *= err
        v1 += err
        v1 *= 0.5
        v2a += v1
    trace.pose[:, 2] = wrap_angle(trace.pose[:, 2])
    return trace, _run_metrics(trace, eta_d, DEFAULT_TAIL_WINDOW_S)


# Steps whose factor rows wait before they are folded into the weights (see
# _network_run).  A fold makes two full passes over the weights; on 3^9
# nodes 8 was the fastest of 2, 4, 6, 8 and 16 (BENCH_12.json).
FOLD_STEPS = 8


def simulate_adaptive(plant: VesselParams, gains: BackstepGains, network: RbfNetwork,
                      weights0: AdaptiveWeights, disturbance, *, eta0, nu0, eta_d,
                      dt, duration, limits: SaturationLimits | None = None, adapt=True,
                      probe=None):
    """Run the adaptive (or frozen-weight) backstepping loop (``_network_run``)
    from ``weights0``, which keep their values: an adaptive run integrates a
    copy, and a frozen run (``adapt=False``) reads them in place."""
    if weights0.node_count != network.node_count:
        raise ValueError("initial weights do not match the network size")
    return _network_run(plant, gains, network,
                        weights0.theta.copy() if adapt else weights0.theta, disturbance,
                        eta0=eta0, nu0=nu0, eta_d=eta_d, dt=dt, duration=duration,
                        limits=limits, adapt=adapt, probe=probe)


def _network_run(plant, gains, network, theta, disturbance, *, eta0, nu0, eta_d, dt,
                 duration, limits, adapt, probe=None):
    """The backstepping loop on the (3, l) weights ``theta``, integrated in place.

    Its callers pass weights that nothing else reads: ``simulate_adaptive`` a
    copy, ``run_simulation`` the weights it drew.  ``adapt=False`` keeps
    ``theta`` for the whole run; the law then has no state.  With adaptation,
    the update ``theta_dot_i = gamma_i s (z2_i g + sigma_i theta_i)``, with ``s =
    gains.law_sign``, is linear in ``theta_i`` with a scalar gain per axis,
    so every RK4 stage value of ``theta_i`` lies in the span of
    ``theta_i(t_k)``, the weights at the start of the step, and ``g_1 ..
    g_4``, the basis vectors of the step's stages.  Row i of the law's 3 x 5
    coordinates ``x`` holds those coordinates, ``[1, 0, 0, 0, 0]`` at the
    start of each step.  The law integrates them itself with the engine's
    RK4 operations: stage s takes ``k_(s-1) h_s + x`` from the derivative
    its stage s - 1 produced, and ``end_step`` combines the four
    derivatives.  This is the same RK4 as integrating all 3 l weights, up
    to rounding.  The coordinates are carried in closed form: ``x_0`` sees
    only the leak, so its stage values, their slopes and its combine are
    per-run constants per row, and an entry past the stage is exactly +0.0
    with slope ``decay * 0.0``.  So stage s forms only entries 1 .. s of x
    and 1 .. s + 1 of its slope, and ``end_step`` combines entries 1 .. 4,
    each with the expression it had when all five were carried.  Each stage
    keeps only the two tensor factors of its basis vector (see
    ``dpsim.kernels``): the network output, the Gram products ``g_j . g_s``
    and the fold are all taken on the factors.

    The weights are not formed every step.  ``theta(t_k) = a theta + sum_j
    c_j g_j`` over the pending factor rows of the steps since the last fold,
    so a stage output is ``a (theta . g) + sum_j c_j (g_j . g)`` plus the
    step's span term, from one Gram row over the pending and stage rows.
    The end of a step scales ``(a, c)`` by ``x_0`` and appends the step's
    coordinates; ``kernels.fold`` forms the weights every ``FOLD_STEPS``
    steps, at the end of the run, and every step while a probe is attached.
    The weight norms come from the Gram identity
    ``|x_0 theta + sum_s x_s g_s|^2 = x_0^2 |theta|^2 + 2 x_0 sum_s x_s
    theta . g_s + sum_st x_s x_t g_s . g_t``, taken in floats: each stage
    keeps its ``theta . g_s`` and ``g_t . g_s`` (t <= s) as the floats its
    span term reads, and the end of the step carries ``|theta|^2`` on.
    Only when a square is not finite or negative are the weights folded and
    their norms taken directly.
    The law's 3-vector arithmetic is ``controllers.backstep_law``, in floats.
    ``probe``, when given, is called at every full-rate sample with a dict of
    internals (t, eta, nu, theta, z1, z2, alpha1, basis, tau, delta) for
    diagnostics; only then is the sample's basis vector formed.
    ``trace.final_theta`` is a read-only view of ``theta``.  The stages share
    one ``kernels.Workspace``, so a stage allocates only its results.  The views
    a stage reads are bound once per run: each factor row's halves and those
    of the rows before it (``Workspace.halves``), and the coefficient columns
    for each pending count; a frozen run binds its one factor row's halves.
    """
    eta_d = np.asarray(eta_d, dtype=float)
    sign = gains.law_sign
    errors, torque = backstep_law(gains, eta_d, limits)
    work = network.workspace(theta)
    z = work.z
    pending = 0                 # factor rows not yet folded into theta

    def network_terms(yv, c, s, stage, f, halves):
        """Errors, ``theta_i . g`` and probe fields at a stage; the factors go to ``f``."""
        z1, alpha1, z2 = errors(yv, c, s)
        z[:] = (*yv, *alpha1)
        core = kernels.adaptive_core(work, f, halves)
        fields = None
        if probe is not None and stage == 0:
            fields = dict(theta=theta, z1=z1, z2=z2, alpha1=alpha1, basis=work.basis(f))
        return z1, z2, core, fields

    if adapt:
        fold_steps = 1 if probe is not None else FOLD_STEPS     # probes read theta
        # factors of the pending rows, then of g_1 .. g_4 of the step
        factors = np.empty((4 * fold_steps, work.size))
        # row j, bound once: the row, its halves, and the halves of rows 0 .. j
        rows = [(f, work.halves(f), work.halves(factors[:j + 1]))
                for j, f in enumerate(factors)]
        axis_out = np.empty((work.left, work.theta_rows.shape[1]))     # one axis of theta
        coef = np.zeros((3, 1 + factors.shape[0]))      # [a, c_1 .. c_pending] per row
        coef[:, 0] = 1.0
        scale = coef[:, 0]
        # per pending count p, bound once: the columns c_1 .. c_p a stage reads,
        # [a, c_1 .. c_p], which the step's end scales, and the four it writes
        coef_views = {p: (coef[:, 1:p + 1], coef[:, :p + 1], coef[:, p + 1:p + 5])
                      for p in range(0, factors.shape[0], 4)}
        coords = np.empty((3, 5))       # the step's x, for the coefficient update
        x_flat, x_head, x_tail = coords.ravel(), coords[:, :1], coords[:, 1:]
        decay = (gains.gamma * sign * gains.sigma).tolist()
        gain = (gains.gamma * sign).tolist()
        # stage s is x0 + h_s k_(s-1), and the combine scales by dt/6, as for the plant
        heights, sixth = (None, 0.5 * dt, 0.5 * dt, dt), dt / 6.0
        # x starts every step at [1, 0, 0, 0, 0].  Entry 0 sees only the leak, so per row its
        # value at each stage (stage_head) and its combine (step_head) are per-run constants;
        # an entry past the stage is +0.0, whose slope is decay * 0.0
        zero_slope = [d * 0.0 for d in decay]
        stage_head = [(1.0, 1.0, 1.0)]
        for h in heights[1:]:
            stage_head.append([d * x0 * h + 1.0 for d, x0 in zip(decay, stage_head[-1])])
        step_head = [1.0 + (((d * b * 2.0 + d * a) + d * c * 2.0) + d * e) * sixth
                     for d, a, b, c, e in zip(decay, *stage_head)]
        # per stage s: the rows of entries 1 .. s + 1 of the coordinates' derivative k_s,
        # theta_i(t_k) . g_s, and g_j . g_s for j <= s
        slopes = [None] * 4
        norms = row_norms(theta)
        theta_sq = (norms * norms).tolist()     # |theta_i(t_k)|^2
        stage_theta_g = [None] * 4
        stage_gram = [None] * 4

        def fold():
            nonlocal pending
            kernels.fold(work, coef[:, :1 + pending], factors[:pending], axis_out)
            coef[:, 0] = 1.0
            pending = 0

        def control(yv, c, s, stage):
            at = pending + stage
            f, halves, upto = rows[at]
            z1, z2, core, fields = network_terms(yv, c, s, stage, f, halves)
            gram = kernels.gram_row(upto, halves)
            theta_g = scale * core + coef_views[pending][0] @ gram[:pending] if pending else core
            stage_theta_g[stage] = nn = theta_g.tolist()
            stage_gram[stage] = here = gram[pending:].tolist()
            h = heights[stage]
            prev = slopes[stage - 1] if stage else ((), (), ())     # stage 0 has no entries
            out, dx = [], []
            for x0, k, n, d, dz, g, q in zip(stage_head[stage], prev, nn, decay, zero_slope,
                                             gain, z2):
                span = 0.0
                row = []
                for kj, gj in zip(k, here):     # entries 1 .. s of k_(s-1) h_s + x0
                    xj = kj * h + 0.0
                    span += xj * gj
                    row.append(d * xj)
                out.append(x0 * n + span)
                row.append(dz + g * q)
                dx.append(row)
            slopes[stage] = dx
            tau = torque(z1, z2, out, c, s)
            return tau if stage else (tau, z2, norms, fields)

        def end_step():
            nonlocal norms, pending, theta_sq
            # x0 + (dt/6) (k_0 + 2 k_1 + 2 k_2 + k_3), rows one after another, in the
            # plant's summation order; entry 0 is the run's constant
            x = []
            for x0, z, (a1,), (b1, b2), (c1, c2, c3), (d1, d2, d3, d4) in zip(
                    step_head, zero_slope, *slopes):
                x += (x0, 0.0 + (((b1 * 2.0 + a1) + c1 * 2.0) + d1) * sixth,
                      0.0 + (((b2 * 2.0 + z) + c2 * 2.0) + d2) * sixth,
                      0.0 + (((z * 2.0 + z) + c3 * 2.0) + d3) * sixth,
                      0.0 + (((z * 2.0 + z) + z * 2.0) + d4) * sixth)
            # the Gram identity, in floats: |x_0 theta(t_k) + sum_s x_s g_s|^2 per row
            (g11,), (g12, g22), (g13, g23, g33), (g14, g24, g34, g44) = stage_gram
            sq = [x0 * x0 * t0 + 2.0 * x0 * (x1 * t1 + x2 * t2 + x3 * t3 + x4 * t4)
                  + x1 * (x1 * g11 + 2.0 * (x2 * g12 + x3 * g13 + x4 * g14))
                  + x2 * (x2 * g22 + 2.0 * (x3 * g23 + x4 * g24))
                  + x3 * (x3 * g33 + 2.0 * x4 * g34) + x4 * x4 * g44
                  for t0, (x0, x1, x2, x3, x4), (t1, t2, t3, t4)
                  in zip(theta_sq, (x[:5], x[5:10], x[10:]), zip(*stage_theta_g))]
            x_flat[:] = x
            _, scaled, new = coef_views[pending]
            scaled *= x_head
            new[...] = x_tail
            pending += 4
            if all(0.0 <= q < math.inf for q in sq):
                theta_sq, norms = sq, [math.sqrt(q) for q in sq]
                if pending == factors.shape[0]:
                    fold()
                return True
            # a norm overflows before the weights do, so only then look closer
            fold()
            norms = row_norms(theta)
            theta_sq = (norms * norms).tolist()
            return bool(np.isfinite(norms).all() or np.isfinite(theta).all())

        law = (control, False, end_step)
    else:
        f_buf = np.empty(work.size)
        f_halves = work.halves(f_buf)
        frozen_norms = row_norms(theta)

        def control(yv, c, s, stage):
            z1, z2, core, fields = network_terms(yv, c, s, stage, f_buf, f_halves)
            tau = torque(z1, z2, core.tolist(), c, s)
            return tau if stage else (tau, z2, frozen_norms, fields)

        law = (control, False, None)

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
    """Run the PID loop: one control update per step, zero-order hold.

    The law is bound here, so each run starts from a zero integral; without
    limits its tuple is tau as it is.
    """
    eta_d = np.asarray(eta_d, dtype=float)
    law = controller.bind(eta_d.tolist(), dt)
    zeros, fields = (0.0, 0.0, 0.0), {}     # shared: the probe copies the fields

    if limits is None:
        def control(y, c, s, stage):
            return law(y, c, s), y[3:], zeros, fields
    else:
        def control(y, c, s, stage):
            return saturate(law(y, c, s), limits), y[3:], zeros, fields

    return _closed_loop(
        plant, (control, True, None), disturbance, eta0=eta0, nu0=nu0, eta_d=eta_d, dt=dt,
        duration=duration, probe=probe)


def run_simulation(cfg: ScenarioConfig):
    """Execute one configured scenario; returns (RunTrace, RunMetrics), the trace
    stamped with its header and decimated after the metrics saw every sample.

    The run uses ``cfg.components``, the set validation built; every run of
    ``cfg`` uses that one set and gives the same trace.
    """
    parts = cfg.components
    meta = {"version": __version__, **cfg.meta()}
    common = dict(eta0=cfg.initial_pose, nu0=cfg.initial_velocity, eta_d=cfg.target_pose,
                  dt=cfg.dt, duration=cfg.duration, limits=parts.limits)
    if parts.network is None:
        trace, metrics = simulate_pid(parts.plant, parts.pid, parts.disturbance, **common)
    else:
        meta["nodes"] = str(parts.network.node_count)
        # drawn here and read by nothing else, so the run integrates them in place
        theta = AdaptiveWeights.random_init(parts.network.node_count, cfg.weight_seed).theta
        trace, metrics = _network_run(parts.plant, parts.gains, parts.network, theta,
                                      parts.disturbance,
                                      adapt=cfg.controller_type == "adaptive-nn", **common)
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
