import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpsim.vessel import (NonFiniteStateError, SingularInertiaError, VesselParams,
                          plant_derivative, rk4_step, rotation_matrix, ssa, wrap_angle,
                          yaw_cos_sin, yaw_rate_skew)

BENCH_M = np.diag([5.3122e6, 8.2831e6, 3.7454e9])
BENCH_D = np.array([
    [5.0242e4, 0.0, 0.0],
    [0.0, 2.7229e5, -4.3933e6],
    [0.0, -4.3933e6, 4.1894e8],
])

angles = st.floats(-50.0, 50.0, allow_nan=False)


def det3_cofactor(m):
    """Independent determinant oracle by explicit cofactor expansion."""
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


class TestRotation:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(rotation_matrix(0.0), np.eye(3))

    def test_quarter_turn(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(rotation_matrix(np.pi / 2), expected, atol=1e-15)

    def test_orthogonal_with_unit_det(self):
        R = rotation_matrix(0.7)
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
        assert abs(det3_cofactor(R) - 1.0) < 1e-12

    @given(angles)
    def test_orthogonality_everywhere(self, psi):
        R = rotation_matrix(psi)
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
        assert abs(det3_cofactor(R) - 1.0) < 1e-12

    @pytest.mark.parametrize("psi", [np.inf, -np.inf, np.nan])
    def test_non_finite_yaw_gives_nan(self, psi):
        # math.cos raises for +-inf; the engine's helper gives nan like np.cos
        c, s = yaw_cos_sin(psi)
        assert np.isnan(c) and np.isnan(s)
        assert np.isnan(rotation_matrix(psi)[:2, :2]).all()


def rotation_rate(psi, r):
    """d/dt R(psi) along yaw rate r, as R(psi) S(r)."""
    return rotation_matrix(psi) @ yaw_rate_skew(r)


class TestRotationRate:
    def test_skew_at_identity(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(rotation_rate(0.0, 1.0), expected)

    def test_zero_rate(self):
        np.testing.assert_array_equal(rotation_rate(1.234, 0.0), np.zeros((3, 3)))

    def test_matches_finite_difference(self):
        psi, r, h = 0.3, 0.2, 1e-6
        fd = (rotation_matrix(psi + r * h) - rotation_matrix(psi - r * h)) / (2 * h)
        np.testing.assert_allclose(rotation_rate(psi, r), fd, atol=1e-8)

    @given(angles, st.floats(-2.0, 2.0, allow_nan=False))
    def test_finite_difference_everywhere(self, psi, r):
        # below |r| ~ 1e-3 the finite-difference numerator drowns in roundoff
        hypothesis.assume(abs(r) >= 1e-3)
        h = 1e-6
        fd = (rotation_matrix(psi + r * h) - rotation_matrix(psi - r * h)) / (2 * h)
        np.testing.assert_allclose(rotation_rate(psi, r), fd, rtol=1e-6, atol=1e-8)


class TestWrapAngle:
    @pytest.mark.parametrize("psi,expected", [
        (0.0, 0.0), (np.pi, np.pi), (-np.pi, np.pi),
        (3 * np.pi, np.pi), (2 * np.pi + 0.5, 0.5), (-0.25, -0.25),
    ])
    def test_values(self, psi, expected):
        assert wrap_angle(psi) == pytest.approx(expected, abs=1e-12)

    @given(angles)
    def test_range(self, psi):
        w = float(wrap_angle(psi))
        assert -np.pi < w <= np.pi
        # same direction modulo a full turn
        assert abs((psi - w) / (2 * np.pi) - round((psi - w) / (2 * np.pi))) < 1e-9


class TestSmallestSignedAngle:
    @given(st.floats(-np.pi, np.pi))
    def test_inside_the_range_unchanged(self, angle):
        hypothesis.assume(angle != -np.pi)
        assert ssa(angle) == angle
        assert np.copysign(1.0, ssa(angle)) == np.copysign(1.0, angle)

    @given(st.floats(-1e3, 1e3))
    def test_range_and_congruence(self, angle):
        w = ssa(angle)
        assert -np.pi < w <= np.pi
        turns = (angle - w) / (2 * np.pi)
        assert abs(turns - round(turns)) < 1e-9

    @pytest.mark.parametrize("angle,expected", [
        (-np.pi, np.pi), (np.radians(340.0), np.radians(-20.0)),
        (np.radians(-340.0), np.radians(20.0)), (5 * np.pi, np.pi),
        (np.nextafter(np.pi, 4.0), np.pi),     # -pi + 1 ulp rounds onto the seam
    ])
    def test_values(self, angle, expected):
        assert ssa(angle) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
    def test_non_finite_gives_nan(self, angle):
        assert np.isnan(ssa(angle))


class TestDomainTypes:
    def test_params_structure_enforced(self):
        bad = BENCH_M.copy()
        bad[0, 1] = 5.0
        with pytest.raises(ValueError, match="surge"):
            VesselParams(bad, BENCH_D)

    def test_params_allow_sway_yaw_coupling(self):
        m = BENCH_M.copy()
        m[1, 2] = -1e5
        m[2, 1] = -2e5
        VesselParams(m, BENCH_D)  # asymmetric off-diagonal block is representable

    def test_singular_inertia(self):
        with pytest.raises(SingularInertiaError):
            VesselParams(np.zeros((3, 3)), BENCH_D)


class TestPlantDerivative:
    def test_benchmark_load_response(self):
        # oracle: per-axis division for the diagonal benchmark inertia
        params = VesselParams(BENCH_M, BENCH_D)
        delta = np.array([1000.0, 2000.0, 1500.0])
        eta_dot, nu_dot = plant_derivative(np.zeros(3), np.zeros(3), params,
                                           np.zeros(3), delta)
        np.testing.assert_array_equal(eta_dot, np.zeros(3))
        np.testing.assert_allclose(nu_dot, delta / np.diag(BENCH_M), rtol=1e-12)
        np.testing.assert_allclose(nu_dot, [1.88246e-4, 2.41455e-4, 4.00491e-7], rtol=1e-5)

    def test_equilibrium(self):
        params = VesselParams(BENCH_M, BENCH_D)
        eta_dot, nu_dot = plant_derivative(np.array([1.0, 2.0, 0.3]), np.zeros(3),
                                           params, np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(eta_dot, np.zeros(3))
        np.testing.assert_array_equal(nu_dot, np.zeros(3))

    def test_surge_maps_east_after_quarter_turn(self):
        params = VesselParams(np.eye(3), np.zeros((3, 3)))
        eta = np.array([0.0, 0.0, np.pi / 2])
        eta_dot, nu_dot = plant_derivative(eta, np.array([1.0, 0.0, 0.0]), params,
                                           np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(eta_dot, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(nu_dot, np.zeros(3))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
           st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
    def test_linear_in_forcing(self, tau_a, tau_b):
        params = VesselParams(BENCH_M, BENCH_D)
        eta = np.array([3.0, -2.0, 0.4])
        nu = np.array([0.2, -0.1, 0.05])
        tau_a, tau_b = np.array(tau_a), np.array(tau_b)

        def nudot(tau):
            return plant_derivative(eta, nu, params, tau, np.zeros(3))[1]

        lhs = nudot(tau_a + tau_b) - nudot(tau_a)
        rhs = nudot(tau_b) - nudot(np.zeros(3))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-15)


class TestRk4:
    def test_exponential_decay(self):
        y = rk4_step(np.array([1.0]), 0.1, lambda s: -s)
        assert y[0] == pytest.approx(np.exp(-0.1), abs=1e-7)
        assert y[0] == pytest.approx(0.9048375, abs=1e-7)

    def test_zero_derivative(self):
        y0 = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(rk4_step(y0, 0.5, lambda s: np.zeros(3)), y0)

    def test_oscillator_period_return(self):
        # closed-form sinusoid oracle: one full period returns to the start
        n = 628
        dt = 2 * np.pi / n
        y = np.array([1.0, 0.0])
        for _ in range(n):
            y = rk4_step(y, dt, lambda s: np.array([s[1], -s[0]]))
        assert np.abs(y - [1.0, 0.0]).max() < 1e-6

    def test_convergence_order(self):
        def err(dt):
            y = np.array([1.0])
            for _ in range(int(round(1.0 / dt))):
                y = rk4_step(y, dt, lambda s: -s)
            return abs(y[0] - np.exp(-1.0))

        exponent = np.log2(err(0.1) / err(0.05))
        assert 3.7 <= exponent <= 4.3

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            rk4_step(np.array([1.0]), 0.0, lambda s: -s)

    def test_nonfinite_abort(self):
        with pytest.raises(NonFiniteStateError):
            rk4_step(np.array([1.0]), 1.0, lambda s: s * 1e308)

    def test_free_decay_energy_nonincreasing(self):
        # with no forcing and positive-semidefinite damping the kinetic energy
        # 0.5 nu' M nu never increases (the M-weighted norm is the invariant;
        # the plain euclidean norm can transiently grow via sway/yaw exchange)
        params = VesselParams(BENCH_M, BENCH_D)
        for nu0 in ([0.5, -0.3, 0.01], [0.0, 1.0, -0.05], [-1.0, 0.2, 0.02]):
            y = np.concatenate([np.zeros(3), np.array(nu0)])

            def deriv(s):
                eta_dot, nu_dot = plant_derivative(s[:3], s[3:], params,
                                                   np.zeros(3), np.zeros(3))
                return np.concatenate([eta_dot, nu_dot])

            energy = [y[3:] @ BENCH_M @ y[3:]]
            for _ in range(300):
                y = rk4_step(y, 0.5, deriv)
                energy.append(y[3:] @ BENCH_M @ y[3:])
            diffs = np.diff(energy)
            assert (diffs <= 1e-9 * energy[0]).all()
