import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpsim.approximators import AdaptiveWeights
from dpsim.controllers import (PID_FRAMES, BackstepGains, InvalidGainError, PidController,
                               PidGains, SaturationLimits, adapt_weights,
                               backstep_control, backstep_law, compute_alpha1,
                               compute_alpha1_dot, dissipation_params, error_state,
                               lyapunov_eval, pose_error, saturate, ultimate_bound,
                               weight_derivative, weighted_l2_norm)
from dpsim.vessel import VesselParams, rotation_matrix, wrap_angle, yaw_cos_sin

BENCH_M = np.diag([5.3122e6, 8.2831e6, 3.7454e9])
BENCH_D = np.array([
    [5.0242e4, 0.0, 0.0],
    [0.0, 2.7229e5, -4.3933e6],
    [0.0, -4.3933e6, 4.1894e8],
])
BENCH_K1 = np.diag([0.037, 0.063, 0.832])
BENCH_K2 = np.diag([5.0e4, 6.0e4, 5.4e4])
BENCH_KP = np.diag([3000.0, 9000.0, 1.0e8])
BENCH_KI = np.diag([5.0, 50.0, 30.0])
BENCH_KD = np.diag([5.0e4, 7.0e4, 300.0])


def small_gains(law="stable", node_count=1, sigma=(2.13, 2.13, 0.302), gamma=0.1):
    return BackstepGains(np.eye(3), np.eye(3), gamma, np.array(sigma),
                         law=law, node_count=node_count)


class TestPid:
    def test_zero_error_zero_output(self):
        pid = PidController(PidGains(BENCH_KP, BENCH_KI, BENCH_KD))
        tau = pid.control(np.zeros(3), np.zeros(3), np.zeros(3), dt=0.1)
        np.testing.assert_array_equal(tau, np.zeros(3))

    def test_proportional_response_from_start(self):
        # hand product: first call has no integral contribution and nu = 0
        pid = PidController(PidGains(BENCH_KP, BENCH_KI, BENCH_KD))
        eta = np.array([10.0, 10.0, 0.17453])
        tau = pid.control(eta, np.zeros(3), np.zeros(3), dt=0.1)
        expected = BENCH_KP @ pid.error(eta, np.zeros(3))
        np.testing.assert_allclose(tau, expected, rtol=1e-12)
        # at small psi the body error is close to -(10, 10, 0.17453)
        np.testing.assert_allclose(tau, [-30000.0, -90000.0, -1.7453e7], rtol=0.2)

    def test_proportional_exact_at_zero_heading(self):
        pid = PidController(PidGains(BENCH_KP, BENCH_KI, BENCH_KD))
        tau = pid.control(np.array([10.0, 10.0, 0.0]), np.zeros(3), np.zeros(3), dt=0.1)
        np.testing.assert_allclose(tau[:2], [-30000.0, -90000.0], rtol=1e-12)

    def test_pure_derivative(self):
        pid = PidController(PidGains(np.zeros((3, 3)), np.zeros((3, 3)), BENCH_KD))
        # error ramping at rate 1 in every channel means nu = -1
        tau = pid.control(np.zeros(3), -np.ones(3), np.zeros(3), dt=0.1)
        np.testing.assert_allclose(tau, BENCH_KD @ np.ones(3), rtol=1e-12)

    def test_trapezoidal_integral(self):
        pid = PidController(PidGains(np.zeros((3, 3)), np.eye(3), np.zeros((3, 3))))
        eta_seq = [np.array([-1.0, 0.0, 0.0]), np.array([-2.0, 0.0, 0.0]),
                   np.array([-4.0, 0.0, 0.0])]
        for eta in eta_seq:
            tau = pid.control(eta, np.zeros(3), np.zeros(3), dt=0.5)
        # trapezoid over errors (1, 2, 4): 0.5*(1+2)/2 + 0.5*(2+4)/2 = 2.25
        assert tau[0] == pytest.approx(2.25, rel=1e-12)

    def test_body_vs_earth_frame(self):
        eta = np.array([0.0, 0.0, np.pi / 2])
        eta_d = np.array([1.0, 0.0, np.pi / 2])
        body = PidController(PidGains(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3))),
                             frame="body")
        earth = PidController(PidGains(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3))),
                              frame="earth")
        np.testing.assert_allclose(body.control(eta, np.zeros(3), eta_d, 0.1),
                                   [0.0, -1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(earth.control(eta, np.zeros(3), eta_d, 0.1),
                                   [1.0, 0.0, 0.0], atol=1e-15)

    def test_reset_clears_state(self):
        pid = PidController(PidGains(np.zeros((3, 3)), np.eye(3), np.zeros((3, 3))))
        pid.control(np.ones(3), np.zeros(3), np.zeros(3), 0.1)
        pid.control(np.ones(3), np.zeros(3), np.zeros(3), 0.1)
        assert np.abs(pid.integral).max() > 0
        pid.reset()
        np.testing.assert_array_equal(pid.integral, np.zeros(3))


    @pytest.mark.parametrize("frame", PID_FRAMES)
    @pytest.mark.parametrize("psi", [np.inf, -np.inf, np.nan])
    def test_non_finite_yaw_gives_nan(self, frame, psi):
        pid = PidController(PidGains(BENCH_KP, BENCH_KI, BENCH_KD), frame=frame)
        eta = np.array([1.0, 2.0, psi])
        with np.errstate(invalid="ignore"):    # the engine runs under the same state
            for _ in range(2):
                tau = pid.control(eta, np.array([0.5, -0.2, 0.01]), np.zeros(3), dt=0.1)
        assert np.isnan(tau).all()
        err = pid.error(eta, np.zeros(3))
        assert not np.isfinite(err[2])
        assert np.isnan(err[:2]).all() == (frame == "body")

    @given(frame=st.sampled_from(PID_FRAMES),
           gains=st.lists(st.floats(-1e4, 1e4), min_size=27, max_size=27),
           samples=st.lists(st.lists(st.floats(-100.0, 100.0), min_size=6, max_size=6),
                            min_size=3, max_size=6),
           eta_d=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
           dt=st.floats(1e-3, 10.0))
    def test_control_is_the_three_products(self, frame, gains, samples, eta_d, dt):
        # oracle: Kp err + Ki integral + Kd rate from numpy rotations, with the
        # trapezoid integral over all calls so far
        Kp, Ki, Kd = np.array(gains).reshape(3, 3, 3)
        pid = PidController(PidGains(Kp, Ki, Kd), frame=frame)
        eta_d = np.array(eta_d)
        integral, prev = np.zeros(3), None
        for sample in samples:
            eta, nu = np.array(sample[:3]), np.array(sample[3:])
            R = rotation_matrix(eta[2])
            diff = eta_d - eta
            if not -np.pi < diff[2] <= np.pi:   # the heading error is the smallest signed angle
                diff[2] = wrap_angle(diff[2])
            if frame == "earth":
                err, rate = diff, -(R @ nu)
            else:
                err, rate = np.append((R.T @ [diff[0], diff[1], 0.0])[:2], diff[2]), -nu
            if prev is not None:
                integral = integral + 0.5 * dt * (prev + err)
            prev = err
            got_err = pid.error(eta, eta_d)
            assert isinstance(got_err, np.ndarray)
            np.testing.assert_allclose(got_err, err, rtol=1e-12, atol=1e-12)
            tau = pid.control(eta, nu, eta_d, dt)
            assert isinstance(tau, np.ndarray) and tau.shape == (3,)
            want = Kp @ err + Ki @ integral + Kd @ rate
            terms = (np.abs(Kp) @ np.abs(err) + np.abs(Ki) @ np.abs(integral)
                     + np.abs(Kd) @ np.abs(rate))
            assert (np.abs(tau - want) <= 1e-12 * terms + 1e-300).all()
        np.testing.assert_allclose(pid.integral, integral, rtol=1e-12,
                                   atol=1e-12 * np.abs(integral).max())


class TestVirtualControl:
    def test_zero_error(self):
        np.testing.assert_array_equal(compute_alpha1(BENCH_K1, 0.3, np.zeros(3)),
                                      np.zeros(3))

    def test_benchmark_hand_product(self):
        alpha1 = compute_alpha1(BENCH_K1, 0.0, np.array([10.0, 10.0, 0.17453]))
        np.testing.assert_allclose(alpha1, [-0.37, -0.63, -0.14520896], rtol=1e-6)

    @given(st.floats(-10.0, 10.0, allow_nan=False),
           st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3))
    def test_rotation_preserves_magnitude(self, psi, z1):
        alpha1 = compute_alpha1(BENCH_K1, psi, np.array(z1))
        assert np.linalg.norm(alpha1) == pytest.approx(
            np.linalg.norm(BENCH_K1 @ np.array(z1)), abs=1e-9)

    def test_rate_zero_state(self):
        np.testing.assert_array_equal(
            compute_alpha1_dot(BENCH_K1, 0.4, 0.1, np.zeros(3), np.zeros(3)), np.zeros(3))

    def test_rate_frozen_frame(self):
        nu = np.array([0.3, -0.2, 0.05])
        np.testing.assert_allclose(
            compute_alpha1_dot(BENCH_K1, 0.0, 0.0, np.array([1.0, 2.0, 0.1]), nu),
            -BENCH_K1 @ nu, rtol=1e-12)

    def test_rate_matches_finite_difference_along_flow(self):
        k1 = np.diag([0.4, 0.7, 1.1])
        psi, r = 0.5, 0.3
        z1 = np.array([2.0, -1.0, 0.4])
        nu = np.array([0.3, -0.2, r])
        h = 1e-6
        z1_rate = rotation_matrix(psi) @ nu
        fd = (compute_alpha1(k1, psi + r * h, z1 + z1_rate * h)
              - compute_alpha1(k1, psi - r * h, z1 - z1_rate * h)) / (2 * h)
        analytic = compute_alpha1_dot(k1, psi, r, z1, nu)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5)

    def test_error_state_consistency(self):
        eta = np.array([1.0, 2.0, 0.3])
        nu = np.array([0.1, -0.2, 0.05])
        es = error_state(eta, nu, np.zeros(3), BENCH_K1)
        np.testing.assert_array_equal(es.z1, eta)
        np.testing.assert_allclose(es.z2, nu - es.alpha1, rtol=1e-15)
        np.testing.assert_allclose(
            es.alpha1_dot, compute_alpha1_dot(BENCH_K1, 0.3, 0.05, eta, nu), rtol=1e-15)

    def test_heading_error_is_the_smallest_signed_angle(self):
        # 170 deg against a target of -170 deg is 20 deg short of it, as
        # against the same target written as 190 deg
        eta, nu = np.array([1.0, 2.0, np.radians(170.0)]), np.array([0.1, -0.2, 0.05])
        params = VesselParams(BENCH_M, BENCH_D)
        for target in (-170.0, 190.0):
            eta_d = np.array([0.5, -1.0, np.radians(target)])
            es = error_state(eta, nu, eta_d, BENCH_K1)
            assert es.z1[2] == pytest.approx(np.radians(-20.0), rel=1e-12)
            np.testing.assert_allclose(
                es.alpha1, compute_alpha1(BENCH_K1, eta[2], es.z1), rtol=1e-15)
            v1 = lyapunov_eval(eta, nu, eta_d, params, k1=BENCH_K1).v1
            assert v1 == pytest.approx(0.5 * (0.5 ** 2 + 3.0 ** 2 + np.radians(20.0) ** 2),
                                       rel=1e-12)
            pid = PidController(PidGains(BENCH_KP, BENCH_KI, BENCH_KD))
            assert pid.error(eta, eta_d)[2] == pytest.approx(np.radians(20.0), rel=1e-12)


class TestBackstepControl:
    def test_all_zero(self):
        gains = BackstepGains(BENCH_K1, BENCH_K2, 0.1, (2.13, 2.13, 0.302), node_count=4)
        tau = backstep_control(gains, 0.2, np.zeros(3), np.zeros(3), np.zeros(4),
                               AdaptiveWeights.zeros(4))
        np.testing.assert_array_equal(tau, np.zeros(3))

    def test_velocity_term_hand_product(self):
        gains = BackstepGains(BENCH_K1, BENCH_K2, 0.1, (2.13, 2.13, 0.302), node_count=1)
        tau = backstep_control(gains, 0.0, np.zeros(3), np.array([0.01, 0.01, 0.001]),
                               np.zeros(1), AdaptiveWeights.zeros(1))
        np.testing.assert_allclose(tau, [-500.0, -600.0, -54.0], rtol=1e-12)

    def test_block_structure(self):
        gains = BackstepGains(BENCH_K1, BENCH_K2, 0.1, (2.13, 2.13, 0.302), node_count=3)
        basis = np.array([0.3, 0.2, 0.1])
        rng = np.random.default_rng(3)
        weights = AdaptiveWeights(rng.normal(size=(3, 3)))
        z1, z2 = rng.normal(size=3), rng.normal(size=3)
        base = backstep_control(gains, 0.4, z1, z2, basis, weights)
        bumped = weights.copy()
        delta = np.array([0.5, -0.25, 1.0])
        bumped.theta[0] += delta
        moved = backstep_control(gains, 0.4, z1, z2, basis, bumped)
        assert moved[0] - base[0] == pytest.approx(delta @ basis, rel=1e-9, abs=1e-9)
        np.testing.assert_array_equal(moved[1:], base[1:])

    def test_decomposition_into_terms(self):
        gains = BackstepGains(BENCH_K1, BENCH_K2, 0.1, (2.13, 2.13, 0.302), node_count=2)
        rng = np.random.default_rng(9)
        psi = 0.7
        z1, z2 = rng.normal(size=3), rng.normal(size=3)
        basis = rng.random(2)
        weights = AdaptiveWeights(rng.normal(size=(3, 2)))
        total = backstep_control(gains, psi, z1, z2, basis, weights)
        term_pose = -(rotation_matrix(psi).T @ z1)
        term_vel = -(BENCH_K2 @ z2)
        term_nn = weights.theta @ basis
        np.testing.assert_allclose(total, term_pose + term_vel + term_nn, rtol=1e-12)

    def test_dimension_mismatch(self):
        gains = BackstepGains(BENCH_K1, BENCH_K2, 0.1, (2.13, 2.13, 0.302), node_count=2)
        with pytest.raises(ValueError):
            backstep_control(gains, 0.0, np.zeros(3), np.zeros(3), np.zeros(3),
                             AdaptiveWeights.zeros(2))

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            BackstepGains(-np.eye(3), BENCH_K2, 0.1, (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            BackstepGains(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                          BENCH_K2, 0.1, (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            BackstepGains(BENCH_K1, BENCH_K2, 0.1, (1.0, 1.0, 1.0), law="sideways")
        with pytest.raises(ValueError, match="sigma"):
            BackstepGains(BENCH_K1, BENCH_K2, 0.1, (1.0, 0.0, 1.0))

    def test_gamma_is_per_axis(self):
        gains = BackstepGains(BENCH_K1, BENCH_K2, 0.5, (1.0, 1.0, 1.0), node_count=7)
        np.testing.assert_array_equal(gains.gamma, [0.5, 0.5, 0.5])
        gains = BackstepGains(BENCH_K1, BENCH_K2, (0.5, 1.0, 2.0), (1.0, 1.0, 1.0))
        np.testing.assert_array_equal(gains.gamma, [0.5, 1.0, 2.0])
        for bad in (np.ones((3, 4)), (1.0, 2.0), (0.5, 0.0, 1.0)):
            with pytest.raises(ValueError, match="gamma"):
                BackstepGains(BENCH_K1, BENCH_K2, bad, (1.0, 1.0, 1.0))

    def test_weak_k2_warns(self):
        with pytest.warns(UserWarning, match="K2") as record:
            BackstepGains(BENCH_K1, 0.25 * np.eye(3), 0.1, (1.0, 1.0, 1.0))
        assert record[0].filename == __file__

    @given(k1=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
           k2=st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9),
           state=st.lists(st.floats(-100.0, 100.0), min_size=6, max_size=6),
           target=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
           seam=st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-0.3, 0.3),
                          st.integers(-2, 2), st.floats(-0.3, 0.3)),
           nn=st.lists(st.floats(-1e5, 1e5), min_size=3, max_size=3),
           tau_max=st.one_of(st.none(), st.lists(st.floats(1.0, 1e5), min_size=3,
                                                 max_size=3)))
    def test_float_law_is_the_numpy_law(self, k1, k2, state, target, seam, nn, tau_max):
        # oracle: compute_alpha1, backstep_control and saturate on non-diagonal
        # K1 and K2, with the heading and the target on either side of the
        # +-pi seam (the yaw unwrapped by up to two turns)
        spd = [np.eye(3) * floor + a @ a.T for a, floor in
               ((np.reshape(k1, (3, 3)), 0.01), (np.reshape(k2, (3, 3)), 1.0))]
        K1, K2 = (0.5 * (m + m.T) for m in spd)
        gains = BackstepGains(K1, K2, 0.1, (1.0, 1.0, 1.0))
        side, offset, turns, target_offset = seam
        psi = side * np.pi + offset + 2.0 * np.pi * turns
        eta_d = np.array([*target, -side * np.pi + target_offset])
        limits = None if tau_max is None else SaturationLimits(tau_max)
        eta, nu = np.array([*state[:2], psi]), np.array(state[3:])
        c, s = yaw_cos_sin(psi)
        errors, torque = backstep_law(gains, eta_d, limits)
        z1, alpha1, z2 = errors([*eta, *nu], c, s)

        want_z1 = pose_error(eta, eta_d)
        assert abs(want_z1[2]) <= np.pi
        want_alpha1 = compute_alpha1(K1, psi, want_z1)
        want_tau = saturate(backstep_control(gains, psi, want_z1, nu - want_alpha1, [1.0],
                                             AdaptiveWeights(np.array(nn)[:, None])), limits)
        abs_rot = np.abs(rotation_matrix(psi))
        # rtol 1e-12 of the sum of the magnitudes of each product's terms
        alpha_scale = abs_rot.T @ (np.abs(K1) @ np.abs(want_z1))
        tau_scale = (abs_rot.T @ np.abs(want_z1) + np.abs(K2) @ (np.abs(nu) + alpha_scale)
                     + np.abs(nn))
        np.testing.assert_array_equal(z1, want_z1)
        assert (np.abs(np.array(alpha1) - want_alpha1) <= 1e-12 * alpha_scale).all()
        assert (np.abs(np.array(z2) - (nu - want_alpha1)) <= 1e-12 * (
            np.abs(nu) + alpha_scale)).all()
        got_tau = np.array(torque(z1, z2, nn, c, s))
        assert (np.abs(got_tau - want_tau) <= 1e-12 * tau_scale).all()
        if limits is not None:
            assert (np.abs(got_tau) <= limits.tau_max).all()


class TestAdaptation:
    def test_leak_only_euler_step(self):
        gains = small_gains()
        weights = AdaptiveWeights(np.array([[1.0], [0.0], [0.0]]))
        out = adapt_weights(gains, weights, np.zeros(1), np.zeros(3), dt=0.01,
                            method="euler")
        assert out.theta[0, 0] == pytest.approx(0.99787, abs=1e-10)

    def test_leak_only_rk4_step(self):
        # zero basis: the drive vanishes and RK4 on theta' = -gamma sigma theta
        # gives theta times the degree-4 Taylor polynomial of exp(x)
        gains = small_gains()
        weights = AdaptiveWeights(np.array([[1.0], [2.0], [-1.0]]))
        dt = 0.5
        out = adapt_weights(gains, weights, np.zeros(1), np.array([1.0, -2.0, 3.0]),
                            dt=dt, method="rk4")
        x = -gains.gamma * gains.sigma * dt
        factor = 1 + x + x ** 2 / 2 + x ** 3 / 6 + x ** 4 / 24
        np.testing.assert_allclose(out.theta, weights.theta * factor[:, None],
                                   rtol=1e-15, atol=0)

    def test_drive_term_scales_linearly(self):
        gains = small_gains(node_count=2)
        theta = np.array([[1.0, -0.5], [0.2, 0.0], [0.0, 1.0]])
        basis = np.array([0.3, 0.6])
        z2 = np.array([0.1, -0.4, 0.2])
        leak = (gains.gamma * gains.sigma)[:, None] * theta
        leakless = weight_derivative(gains, basis, z2, theta) + leak
        doubled = weight_derivative(gains, basis, 2 * z2, theta) + leak
        np.testing.assert_allclose(doubled, 2.0 * leakless, rtol=1e-12)

    def test_leak_decays_norms_monotonically(self):
        gains = small_gains(node_count=3)
        weights = AdaptiveWeights(np.random.default_rng(1).random((3, 3)))
        norms = [weights.norms().copy()]
        for _ in range(50):
            weights = adapt_weights(gains, weights, np.zeros(3), np.zeros(3), dt=0.1)
            norms.append(weights.norms())
        diffs = np.diff(np.array(norms), axis=0)
        assert (diffs <= 0).all()
        # decay rate gamma*sigma per axis against the closed form
        expected = norms[0] * np.exp(-gains.gamma * gains.sigma * 5.0)
        np.testing.assert_allclose(norms[-1], expected, rtol=1e-6)

    def test_unstable_law_grows(self):
        gains = small_gains(law="unstable")
        weights = AdaptiveWeights(np.array([[1.0], [1.0], [1.0]]))
        out = adapt_weights(gains, weights, np.zeros(1), np.zeros(3), dt=1.0)
        assert (out.theta >= weights.theta).all()
        assert out.theta[0, 0] > 1.2

    def test_nonfinite_update_aborts(self):
        gains = small_gains(gamma=1e300)
        weights = AdaptiveWeights(np.array([[1e9], [0.0], [0.0]]))
        with pytest.raises(FloatingPointError):
            adapt_weights(gains, weights, np.zeros(1), np.zeros(3), dt=1.0,
                          method="euler")


class TestSaturation:
    def test_inside_unchanged(self):
        limits = SaturationLimits([10.0, 10.0, 10.0])
        np.testing.assert_array_equal(saturate([1.0, -2.0, 3.0], limits), [1.0, -2.0, 3.0])

    def test_clamp(self):
        limits = SaturationLimits([1e6, 1e6, 1e6])
        np.testing.assert_array_equal(saturate([2e6, 0.0, 0.0], limits), [1e6, 0.0, 0.0])

    def test_disabled(self):
        np.testing.assert_array_equal(saturate([2e6, -5e9, 0.0], None), [2e6, -5e9, 0.0])

    @given(st.lists(st.floats(-1e7, 1e7), min_size=3, max_size=3))
    def test_idempotent_and_contractive(self, tau):
        limits = SaturationLimits([5e5, np.inf, 1e3])
        once = saturate(tau, limits)
        np.testing.assert_array_equal(saturate(once, limits), once)
        assert (np.abs(once) <= np.abs(tau) + 1e-12).all()

    def test_positive_limits_required(self):
        with pytest.raises(ValueError):
            SaturationLimits([0.0, 1.0, 1.0])


class TestLyapunov:
    def test_zero_at_reference(self):
        params = VesselParams(BENCH_M, BENCH_D)
        weights = AdaptiveWeights(np.array([[0.5], [0.5], [0.5]]))
        trace = lyapunov_eval(np.zeros(3), np.zeros(3), np.zeros(3), params,
                              weights=weights, gamma=0.1, theta_star=weights.theta)
        assert trace.v1 == 0.0
        assert trace.v2a == 0.0
        assert not trace.partial

    def test_weight_term_uses_per_axis_gains(self):
        params = VesselParams(BENCH_M, BENCH_D)
        weights = AdaptiveWeights(np.ones((3, 2)))
        trace = lyapunov_eval(np.zeros(3), np.zeros(3), np.zeros(3), params,
                              weights=weights, gamma=(0.5, 1.0, 2.0),
                              theta_star=np.zeros((3, 2)))
        # 0.5 * sum_i |theta_i|^2 / gamma_i with |theta_i|^2 = 2
        assert trace.v2a == pytest.approx(2.0 + 1.0 + 0.5, rel=1e-15)

    def test_pose_term(self):
        params = VesselParams(BENCH_M, BENCH_D)
        trace = lyapunov_eval(np.array([1.0, 0.0, 0.0]), np.zeros(3), np.zeros(3),
                              params)
        assert trace.v1 == pytest.approx(0.5)
        assert trace.partial

    def test_velocity_term_hand_product(self):
        params = VesselParams(BENCH_M, BENCH_D)
        trace = lyapunov_eval(np.zeros(3), np.array([0.01, 0.0, 0.0]), np.zeros(3),
                              params)
        assert trace.v2a - trace.v1 == pytest.approx(265.61, rel=1e-6)


class TestUltimateBound:
    def test_decay_rate_with_benchmark_inertia(self):
        # eigenvalue oracle: the (K2 - I/2) M^-1 pencil dominates because the
        # yaw inertia is ~7e4 times the velocity gain
        phi, c = dissipation_params(BENCH_K1, BENCH_K2, BENCH_M, (2.13, 2.13, 0.302),
                                    approx_error_bound=1.0, weight_norm_bound=1.0,
                                    beta=1.0)
        expected = 2.0 * (5.4e4 - 0.5) / 3.7454e9
        assert phi == pytest.approx(expected, rel=1e-9)
        assert phi == pytest.approx(2.883496e-5, rel=1e-5)

    def test_decay_rate_with_coupled_inertia(self):
        # sway-yaw coupled added mass: the pencil eigenvalue is no longer a ratio
        # of diagonal entries; oracle: eigenvalues of M^-1 (K2 - I/2)
        m = BENCH_M.copy()
        m[1, 2] = m[2, 1] = -2.0e7
        phi, _ = dissipation_params(BENCH_K1, BENCH_K2, m, (2.13, 2.13, 0.302),
                                    approx_error_bound=1.0, weight_norm_bound=1.0)
        shifted = BENCH_K2 - 0.5 * np.eye(3)
        expected = 2.0 * min(np.linalg.eigvals(np.linalg.solve(m, shifted)).real)
        assert phi == pytest.approx(expected, rel=1e-9)
        assert phi != pytest.approx(2.0 * (5.4e4 - 0.5) / 3.7454e9, rel=1e-6)

    def test_indefinite_inertia_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            dissipation_params(BENCH_K1, BENCH_K2, np.diag([1.0, -1.0, 1.0]),
                               (2.13, 2.13, 0.302), 1.0, 1.0)

    def test_decay_rate_with_unit_inertia(self):
        # with M = I the pose gain K1 is the binding term: phi = 2 min eig K1
        phi, _ = dissipation_params(BENCH_K1, BENCH_K2, np.eye(3), (2.13, 2.13, 0.302),
                                    approx_error_bound=1.0, weight_norm_bound=1.0,
                                    beta=1.0)
        assert phi == pytest.approx(0.074, rel=1e-9)

    def test_offset_formula(self):
        _, c = dissipation_params(BENCH_K1, BENCH_K2, np.eye(3), (2.0, 1.0, 0.5),
                                  approx_error_bound=[3.0, 0.0, 4.0],
                                  weight_norm_bound=[1.0, 2.0, 3.0])
        assert c == pytest.approx(0.5 * 25.0 + (2.0 * 1 + 1.0 * 4 + 0.5 * 9) / 2.0)

    def test_asymptote(self):
        args = (np.eye(3), 2.0 * np.eye(3), np.eye(3), (1.0, 1.0, 1.0), 1.0, 1.0)
        bound_inf = ultimate_bound(*args, v2a0=100.0, t=1e9)
        phi, c = dissipation_params(*args)
        assert bound_inf == pytest.approx(np.sqrt(2.0 * c / phi), rel=1e-9)

    def test_pure_exponential_when_offset_free(self):
        args = (np.eye(3), 2.0 * np.eye(3), np.eye(3), (0.0, 0.0, 0.0), 0.0, 0.0)
        phi, c = dissipation_params(*args)
        assert c == 0.0
        v0 = 7.0
        for t in (0.0, 1.0, 5.0):
            assert ultimate_bound(*args, v2a0=v0, t=t) == pytest.approx(
                np.sqrt(2.0 * v0) * np.exp(-phi * t / 2.0), rel=1e-12)

    def test_monotone_in_time_and_gain(self):
        args = (np.eye(3), 2.0 * np.eye(3), np.eye(3), (1.0, 1.0, 1.0), 1.0, 1.0)
        ts = np.linspace(0.0, 50.0, 200)
        values = ultimate_bound(*args, v2a0=50.0, t=ts)
        assert (np.diff(values) <= 1e-12).all()
        stronger = (2.0 * np.eye(3), 2.0 * np.eye(3), np.eye(3), (1.0, 1.0, 1.0), 1.0, 1.0)
        assert ultimate_bound(*stronger, v2a0=50.0, t=1e9) < ultimate_bound(
            *args, v2a0=50.0, t=1e9)

    def test_invalid_gain(self):
        with pytest.raises(InvalidGainError):
            dissipation_params(np.eye(3), 0.4 * np.eye(3), np.eye(3), (1.0, 1.0, 1.0),
                               1.0, 1.0)


class TestWeightedL2:
    def test_zero_signal(self):
        assert weighted_l2_norm(np.zeros(100), 0.5, 10.0) == 0.0

    def test_constant_signal_closed_form(self):
        n = 1001  # dt = 0.01 over [0, 10]
        value = weighted_l2_norm(np.ones(n), 0.1, 10.0)
        assert value == pytest.approx(np.sqrt((1 - np.exp(-1.0)) / 0.1), abs=1e-4)
        assert value == pytest.approx(2.5142, abs=1e-4)

    def test_zero_decay_is_plain_l2(self):
        assert weighted_l2_norm(np.ones(1001), 0.0, 10.0) == pytest.approx(np.sqrt(10.0))

    def test_vector_signal(self):
        x = np.tile([3.0, 4.0], (101, 1))  # |x| = 5
        assert weighted_l2_norm(x, 0.0, 1.0) == pytest.approx(5.0)

    def test_empty_series(self):
        with pytest.raises(ValueError):
            weighted_l2_norm(np.array([]), 0.1, 1.0)
        with pytest.raises(ValueError):
            weighted_l2_norm(np.array([1.0]), 0.1, 1.0)
