import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpsim.disturbance import NOISE_BLOCK, ConstantDisturbance, MarkovBias
from dpsim.vessel import yaw_cos_sin


class TestConstant:
    def test_default_value(self):
        cfg = ConstantDisturbance([1000.0, 2000.0, 1500.0])
        np.testing.assert_array_equal(cfg.body_load(1.0, 0.0), [1000.0, 2000.0, 1500.0])

    def test_time_invariant(self):
        # the same body-frame load at every heading and after any number of steps
        cfg = ConstantDisturbance([1000.0, 2000.0, 1500.0])
        first = cfg.body_load(1.0, 0.0)
        advance = cfg.stepper(100.0)
        for _ in range(5):
            cfg.step(100.0)
            assert advance() is None
        np.testing.assert_array_equal(cfg.body_load(*yaw_cos_sin(2.0)), first)

    def test_zero(self):
        np.testing.assert_array_equal(ConstantDisturbance([0, 0, 0]).body_load(0.0, 1.0),
                                      np.zeros(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantDisturbance([np.nan, 0, 0])


class TestMarkovBias:
    def test_noise_free_decay_matches_time_constant(self):
        # closed-form oracle: b(t) = b0 exp(-t/T) for the deterministic part
        bias = MarkovBias([1000.0] * 3, [0.0] * 3, seed=0, b0=[1000.0, 0.0, 0.0])
        for _ in range(1000):
            bias.step(1.0)
        assert bias.b[0] == pytest.approx(1000.0 * np.exp(-1.0), rel=0.02)
        fitted_tau = -1000.0 / np.log(bias.b[0] / 1000.0)
        assert fitted_tau == pytest.approx(1000.0, rel=0.02)

    def test_zero_is_fixed_point(self):
        bias = MarkovBias([1000.0] * 3, [0.0] * 3, seed=0)
        for _ in range(10):
            bias.step(0.5)
        np.testing.assert_array_equal(bias.b, np.zeros(3))

    def test_seeded_trajectories_identical(self):
        a = MarkovBias([1000.0] * 3, [1000.0] * 3, seed=42)
        b = MarkovBias([1000.0] * 3, [1000.0] * 3, seed=42)
        for _ in range(200):
            a.step(0.1)
            b.step(0.1)
            np.testing.assert_array_equal(a.b, b.b)

    def test_block_draws_are_the_per_step_stream(self):
        # reference: one standard_normal(3) per step from a generator of the same seed
        T, psi, dt, steps = (50.0, 100.0, 200.0), (1000.0, 500.0, 2e4), 0.1, 1000
        assert steps > 3 * NOISE_BLOCK
        bias = MarkovBias(T, psi, seed=7, b0=[1.0, -2.0, 3.0])
        rng = np.random.default_rng(7)
        b, root = (1.0, -2.0, 3.0), math.sqrt(dt)
        for _ in range(steps):
            n = rng.standard_normal(3).tolist()
            b = tuple(bi + dt * (-bi / Ti) + pi * root * ni
                      for bi, Ti, pi, ni in zip(b, T, psi, n))
            assert bias.step(dt) == b

    def test_distinct_seeds_differ(self):
        a = MarkovBias([1000.0] * 3, [1000.0] * 3, seed=1)
        b = MarkovBias([1000.0] * 3, [1000.0] * 3, seed=2)
        a.step(0.1)
        b.step(0.1)
        assert not np.array_equal(a.b, b.b)

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovBias([0.0, 1.0, 1.0], [0.0] * 3, seed=0)
        with pytest.raises(ValueError):
            MarkovBias([1.0] * 3, [-1.0, 0.0, 0.0], seed=0)
        with pytest.raises(ValueError):
            MarkovBias([1.0] * 3, [0.0] * 3, seed=0).step(0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt_is_rejected(self, dt):
        bias = MarkovBias(100.0, 1.0, 3)
        with pytest.raises(ValueError, match="dt must be positive"):
            bias.step(dt)
        assert bias.b == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_stepper_rejects_a_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            MarkovBias(100.0, 1.0, 3).stepper(dt)

    def test_stepper_is_the_step_stream(self):
        a, b = (MarkovBias(50.0, 1e3, 7, b0=[1.0, -2.0, 3.0]) for _ in range(2))
        advance = a.stepper(0.1)
        for _ in range(2 * NOISE_BLOCK + 3):
            assert advance() == b.step(0.1)

    @pytest.mark.parametrize("k", [1, NOISE_BLOCK + 5])
    def test_stepper_starts_the_run_afresh(self, k):
        # a second run of one instance is its first: the bias and the noise restart
        a, twin = (MarkovBias(50.0, 1e3, 7, b0=[1.0, -2.0, 3.0]) for _ in range(2))
        for _ in range(k):
            a.step(0.1)
        advance = a.stepper(0.1)
        assert a.b == a.initial_bias == (1.0, -2.0, 3.0)
        for _ in range(NOISE_BLOCK + 3):
            assert advance() == twin.step(0.1)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.1])
    def test_bad_dt_is_rejected_before_the_bias_moves(self, dt):
        a, twin = (MarkovBias(50.0, 1e3, 7) for _ in range(2))
        for bias in (a, twin):
            bias.step(0.1)
        before = a.b
        with pytest.raises(ValueError, match="dt must be positive"):
            a.stepper(dt)
        assert a.b == before
        assert a.step(0.1) == twin.step(0.1)

    @pytest.mark.parametrize("seed", [3.7, 3.0, "5", True, None, -1])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # int() once turned 3.7 into 3, '5' into 5 and True into 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            MarkovBias(100.0, 1.0, seed)

    def test_numpy_integer_seed_is_its_int(self):
        a, b = MarkovBias(100.0, 1.0, np.int64(5)), MarkovBias(100.0, 1.0, 5)
        assert a.seed == 5 and type(a.seed) is int
        assert a.step(0.1) == b.step(0.1)


class TestBodyRotation:
    def test_identity_heading(self):
        bias = MarkovBias([1.0] * 3, [0.0] * 3, seed=0, b0=[3.0, -4.0, 5.0])
        np.testing.assert_array_equal(bias.body_load(*yaw_cos_sin(0.0)), [3.0, -4.0, 5.0])

    def test_quarter_turn(self):
        bias = MarkovBias([1.0] * 3, [0.0] * 3, seed=0, b0=[1.0, 0.0, 0.0])
        np.testing.assert_allclose(bias.body_load(*yaw_cos_sin(np.pi / 2)), [0.0, -1.0, 0.0],
                                   atol=1e-15)

    @given(st.floats(-20.0, 20.0, allow_nan=False),
           st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3))
    def test_norm_preserved(self, psi, b0):
        bias = MarkovBias([1.0] * 3, [0.0] * 3, seed=0, b0=b0)
        delta = bias.body_load(*yaw_cos_sin(psi))
        assert np.linalg.norm(delta) == pytest.approx(np.linalg.norm(b0), abs=1e-9)

