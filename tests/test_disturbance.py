import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpsim.disturbance import ConstantDisturbance, MarkovBias
from dpsim.vessel import yaw_cos_sin


class TestConstant:
    def test_default_value(self):
        cfg = ConstantDisturbance([1000.0, 2000.0, 1500.0])
        np.testing.assert_array_equal(cfg.body_load(1.0, 0.0), [1000.0, 2000.0, 1500.0])

    def test_time_invariant(self):
        # the same body-frame load at every heading and after any number of steps
        cfg = ConstantDisturbance([1000.0, 2000.0, 1500.0])
        first = cfg.body_load(1.0, 0.0)
        for _ in range(5):
            cfg.step(100.0)
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

