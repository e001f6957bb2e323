import json
import math

import numpy as np
import pytest

from dpsim.config import (DEFAULT_D, DEFAULT_K1, DEFAULT_K2, DEFAULT_KD, DEFAULT_KI,
                          DEFAULT_KP, DEFAULT_M, MAX_STEPS, ConfigError,
                          default_scenario, load_scenario, parse_scenario)


def write(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


class TestDefaults:
    def test_empty_config_gives_benchmark_defaults(self, tmp_path):
        cfg = load_scenario(write(tmp_path, {}))
        np.testing.assert_array_equal(cfg.m_matrix, DEFAULT_M)
        np.testing.assert_array_equal(cfg.d_matrix, DEFAULT_D)
        assert cfg.controller_type == "adaptive-nn"
        np.testing.assert_array_equal(cfg.k1, DEFAULT_K1)
        np.testing.assert_array_equal(cfg.k2, DEFAULT_K2)
        np.testing.assert_array_equal(cfg.gamma, [0.1, 0.1, 0.1])
        np.testing.assert_array_equal(cfg.sigma, [2.13, 2.13, 0.302])
        assert cfg.disturbance_type == "constant"
        np.testing.assert_array_equal(cfg.constant_delta, [1000.0, 2000.0, 1500.0])
        assert cfg.dt == 0.1
        assert cfg.duration == 400.0
        assert cfg.points_per_dim == 3
        assert cfg.rbf_width == 1.0
        assert cfg.rbf_ranges.shape == (9, 2)
        np.testing.assert_allclose(cfg.initial_pose, [10.0, 10.0, math.radians(10.0)])
        np.testing.assert_array_equal(cfg.initial_velocity, np.zeros(3))
        np.testing.assert_array_equal(cfg.target_pose, np.zeros(3))
        np.testing.assert_array_equal(cfg.kp, DEFAULT_KP)
        np.testing.assert_array_equal(cfg.ki, DEFAULT_KI)
        np.testing.assert_array_equal(cfg.kd, DEFAULT_KD)
        assert cfg.tau_max is None
        assert cfg.adaptation_law == "stable"

    def test_blank_file_equals_empty_object(self, tmp_path):
        cfg = load_scenario(write(tmp_path, ""))
        assert cfg.controller_type == "adaptive-nn"

    def test_default_scenario_helper(self):
        cfg = default_scenario()
        assert cfg.steps() == 4000


class TestAngleIngestion:
    def test_target_yaw_degrees_to_radians(self):
        cfg = parse_scenario({"simulation": {"target_pose": [0, 0, 10]}})
        assert cfg.target_pose[2] == pytest.approx(0.174533, abs=1e-6)

    def test_initial_pose_and_rate(self):
        cfg = parse_scenario({"simulation": {"initial_pose": [1, 2, -90],
                                             "initial_velocity": [0.5, 0, 45]}})
        assert cfg.initial_pose[2] == pytest.approx(-math.pi / 2)
        assert cfg.initial_velocity[2] == pytest.approx(math.pi / 4)


class TestValidation:
    def test_negative_dt(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_scenario({"simulation": {"dt": -1}})

    def test_duration_shorter_than_dt(self):
        with pytest.raises(ConfigError, match="duration"):
            parse_scenario({"simulation": {"dt": 0.5, "duration": 0.25}})

    def test_duration_not_multiple_of_dt(self):
        with pytest.raises(ConfigError, match="integer number"):
            parse_scenario({"simulation": {"dt": 0.3, "duration": 1.0}})

    def test_step_count_ceiling(self, tmp_path):
        # 1e18 steps would ask for an exabyte-sized row buffer
        path = write(tmp_path, {"controller": {"type": "pid"},
                                "simulation": {"duration": 1e9, "dt": 1e-9}})
        with pytest.raises(ConfigError, match="steps"):
            load_scenario(path)
        with pytest.raises(ConfigError, match="steps"):
            parse_scenario({"simulation": {"duration": (MAX_STEPS + 1) * 0.5, "dt": 0.5}})
        assert parse_scenario({"simulation": {"duration": MAX_STEPS * 0.5,
                                              "dt": 0.5}}).steps() == MAX_STEPS

    def test_decimation_must_divide_steps(self):
        with pytest.raises(ConfigError, match="decimation"):
            parse_scenario({"simulation": {"dt": 0.1, "duration": 10.0, "decimation": 3}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'vehicle'"):
            parse_scenario({"vehicle": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown key 'kp'"):
            parse_scenario({"controller": {"kp": [1, 1, 1]}})

    def test_bad_controller_type(self):
        with pytest.raises(ConfigError, match="controller.type"):
            parse_scenario({"controller": {"type": "lqr"}})

    def test_plant_structure_violation(self):
        bad = np.eye(3)
        bad[0, 1] = 2.0
        with pytest.raises(ConfigError, match="plant"):
            parse_scenario({"plant": {"M": bad.tolist()}})

    def test_singular_plant(self):
        with pytest.raises(ConfigError, match="plant"):
            parse_scenario({"plant": {"M": [0.0, 1.0, 1.0]}})

    def test_gain_matrix_must_be_spd(self):
        with pytest.raises(ConfigError, match="controller.K1"):
            parse_scenario({"controller": {"K1": [-1.0, 1.0, 1.0]}})

    def test_nonpositive_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_scenario({"controller": {"sigma": [0.0, 1.0, 1.0]}})

    def test_ranges_must_have_nine_pairs(self):
        with pytest.raises(ConfigError, match="rbf.ranges"):
            parse_scenario({"rbf": {"ranges": [[0, 1]] * 8}})

    def test_range_ordering(self):
        ranges = [[0, 1]] * 9
        ranges[4] = [2, 2]
        with pytest.raises(ConfigError, match=r"rbf.ranges\[4\]"):
            parse_scenario({"rbf": {"ranges": ranges}})

    def test_grid_ceiling(self):
        with pytest.raises(ConfigError, match="ceiling"):
            parse_scenario({"rbf": {"points_per_dim": 5}})

    def test_pid_skips_grid_ceiling(self):
        cfg = parse_scenario({"controller": {"type": "pid"},
                              "rbf": {"points_per_dim": 5}})
        assert cfg.controller_type == "pid"

    def test_integer_beyond_double_range(self):
        # float(10**400) raises OverflowError; it is a non-finite number here
        with pytest.raises(ConfigError, match="simulation.dt must be finite"):
            parse_scenario({"simulation": {"dt": 10 ** 400}})

    def test_bad_vector_length(self):
        with pytest.raises(ConfigError, match="disturbance.delta"):
            parse_scenario({"disturbance": {"delta": [1, 2]}})

    def test_bad_json_reports_location(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            load_scenario(write(tmp_path, "{ not json"))
        # past the parser's recursion limit, and past Python's int digit limit:
        # no location, still a ConfigError
        with pytest.raises(ConfigError, match="invalid JSON: maximum recursion"):
            load_scenario(write(tmp_path, "[" * 100_000))
        with pytest.raises(ConfigError, match="invalid JSON: Exceeds the limit"):
            load_scenario(write(tmp_path, '{"rbf": {"points_per_dim": 1' + "0" * 5000 + "}}"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")
        undecodable = tmp_path / "latin1.json"
        undecodable.write_bytes(b'{"plant": {}}\x80')
        with pytest.raises(ConfigError, match="cannot read.*utf-8"):
            load_scenario(undecodable)


class TestShorthand:
    def test_diagonal_matrix_shorthand(self):
        cfg = parse_scenario({"controller": {"K2": [1.0, 2.0, 3.0]}})
        np.testing.assert_array_equal(cfg.k2, np.diag([1.0, 2.0, 3.0]))

    def test_scalar_gamma_broadcast(self):
        cfg = parse_scenario({"controller": {"gamma": 0.25}})
        np.testing.assert_array_equal(cfg.gamma, [0.25, 0.25, 0.25])

    def test_scalar_tau_max(self):
        cfg = parse_scenario({"controller": {"tau_max": 1e6}})
        np.testing.assert_array_equal(cfg.tau_max, [1e6, 1e6, 1e6])

    def test_markov_section(self):
        cfg = parse_scenario({"disturbance": {"type": "markov", "seed": 9,
                                              "time_constants": [500, 500, 500],
                                              "noise_scale": [100, 100, 100],
                                              "initial_bias": [1, 2, 3]}})
        assert cfg.disturbance_type == "markov"
        assert cfg.disturbance_seed == 9
        np.testing.assert_array_equal(cfg.initial_bias, [1.0, 2.0, 3.0])

    def test_full_matrix_accepted(self):
        k1 = [[0.1, 0.01, 0.0], [0.01, 0.2, 0.0], [0.0, 0.0, 0.3]]
        cfg = parse_scenario({"controller": {"K1": k1}})
        np.testing.assert_array_equal(cfg.k1, np.array(k1))
