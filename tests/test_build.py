"""One builder behind validation and the run: what validates also builds."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsim.cli import main as cli_main
from dpsim.approximators import DEFAULT_INPUT_RANGES, RbfNetwork
from dpsim.config import (_SCHEMA, CONTROLLER_TYPES, DEFAULT_K1, MAX_NODES, ConfigError,
                          build_components, parse_scenario)

# symmetric to 1e-9 but not to the 1e-12 that BackstepGains requires
ASYMMETRIC_K1 = [[0.037, 1e-10, 0.0], [0.0, 0.063, 0.0], [0.0, 0.0, 0.832]]


def _cli(tmp_path, capsys, command, scenario, *extra):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = cli_main([command, "--config", str(path), *extra])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [("validate", ()), ("run", ("--duration", "1"))])
def test_k_asymmetry_is_one_config_error(tmp_path, capsys, command, extra):
    code, err = _cli(tmp_path, capsys, command, {"controller": {"K1": ASYMMETRIC_K1}},
                     *extra)
    assert code == 1
    assert "controller.K1" in err
    assert "Traceback" not in err


def test_node_ceiling_is_bounded(tmp_path, capsys):
    # a 40^9 grid under this ceiling would ask for petabytes of weights
    huge = {"rbf": {"points_per_dim": 40, "node_ceiling": 10 ** 15}}
    with pytest.raises(ConfigError, match="rbf.node_ceiling"):
        parse_scenario(huge)
    code, err = _cli(tmp_path, capsys, "validate", huge)
    assert code == 1
    assert "rbf.node_ceiling" in err
    with pytest.raises(ConfigError, match="rbf.node_ceiling"):
        parse_scenario({"rbf": {"node_ceiling": MAX_NODES + 1}})
    assert parse_scenario({"rbf": {"node_ceiling": MAX_NODES}}).node_ceiling == MAX_NODES


def test_points_per_dim_past_the_ceiling_names_key_and_ceiling(tmp_path, capsys):
    # its 9th power has more digits than Python converts to text
    code, err = _cli(tmp_path, capsys, "validate", {"rbf": {"points_per_dim": 10 ** 1400}})
    assert code == 1
    assert err.startswith("error: rbf.points_per_dim") and "node ceiling" in err
    assert len(err) < 200


@pytest.mark.parametrize("controller", ["pid", "adaptive-nn"])
@pytest.mark.parametrize("section, key, value", [
    ("controller", "sigma", [0.0, 1.0, 1.0]),
    ("controller", "gamma", -0.1),
    ("controller", "tau_max", [1e5, 0.0, 1e5]),
    ("controller", "K2", [-1.0, 1.0, 1.0]),
    ("disturbance", "time_constants", [1000.0, 0.0, 1000.0]),
    ("disturbance", "noise_scale", [-1.0, 1000.0, 1000.0]),
    ("rbf", "width", 0.0),
    ("rbf", "points_per_dim", 1),
    # a span beyond a double gives NaN grid nodes
    ("rbf", "ranges", [[-1e308, 1e308]] + [list(pair) for pair in DEFAULT_INPUT_RANGES[1:]]),
])
def test_every_value_is_checked_under_every_controller(controller, section, key, value):
    # the disturbance stays constant: the Markov values are checked all the same
    raw = {"controller": {"type": controller}}
    raw.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        parse_scenario(raw)


def test_stable_law_beyond_the_rk4_leak_limit_is_a_config_error(tmp_path, capsys):
    # gamma 100: gamma * sigma * dt = 21.3 in surge, so RK4 would grow the leak;
    # the run used to abort after 8 s of simulated time
    code, err = _cli(tmp_path, capsys, "run", {"controller": {"gamma": 100.0}})
    assert code == 1
    assert "controller.gamma" in err
    assert "Traceback" not in err
    code, _ = _cli(tmp_path, capsys, "run", {"controller": {"gamma": 10.0}},
                   "--duration", "1", "--grid", "2")
    assert code == 0
    # the limit is the real root of 1 + z/2 + z^2/6 + z^3/24, about -2.7853
    sigma, dt = 2.13, 0.1
    parse_scenario({"controller": {"gamma": 2.785 / (sigma * dt)}})
    with pytest.raises(ConfigError, match="controller.gamma.*surge"):
        parse_scenario({"controller": {"gamma": 2.786 / (sigma * dt)}})
    # the unstable law diverges by design, and frozen weights do not adapt
    for controller in ({"adaptation_law": "unstable", "gamma": 100.0},
                       {"type": "nn-fixed", "gamma": 100.0}):
        parse_scenario({"controller": controller})


def test_validation_leaves_the_grid_to_the_run(monkeypatch):
    grids = []
    build_grid = RbfNetwork.grid
    monkeypatch.setattr(RbfNetwork, "grid",
                        lambda *args: grids.append(args) or build_grid(*args))
    cfg = parse_scenario({"rbf": {"points_per_dim": 2}})
    assert grids == []
    assert build_components(cfg).network.node_count == 2 ** 9
    assert len(grids) == 1


@pytest.mark.parametrize("controller, warned", [("pid", 0), ("adaptive-nn", 1)])
def test_weak_k2_warns_only_for_backstepping(controller, warned):
    raw = {"controller": {"type": controller, "K2": [0.1, 0.1, 0.1]}}
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        parse_scenario(raw)
    assert len(record) == warned


def test_builder_reports_a_mutated_config():
    cfg = parse_scenario({})
    cfg.sigma = np.array([1.0, -1.0, 1.0])
    with pytest.raises(ConfigError, match="controller.sigma"):
        build_components(cfg)


vec3 = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
scale3 = st.lists(st.floats(-10.0, 1e4), min_size=3, max_size=3)


@st.composite
def scenarios(draw):
    k1 = np.array(DEFAULT_K1)
    k1[0, 1] = draw(st.floats(0.0, 1e-8))
    bound = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e308, 1e308))
    ranges = draw(st.lists(st.tuples(bound, bound), min_size=9, max_size=9))
    return {
        "controller": {"type": draw(st.sampled_from(CONTROLLER_TYPES)), "K1": k1.tolist(),
                       "sigma": draw(vec3), "gamma": draw(vec3), "tau_max": draw(vec3)},
        "disturbance": {"time_constants": draw(scale3), "noise_scale": draw(scale3)},
        "rbf": {"ranges": [list(pair) for pair in ranges],
                "points_per_dim": draw(st.integers(2, 40)),
                "node_ceiling": draw(st.integers(1, 10 ** 18))},
    }


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_parsed_scenarios_build(raw):
    try:
        cfg = parse_scenario(raw)
    except ConfigError:
        return
    parts = build_components(cfg)
    if cfg.controller_type == "pid":
        assert parts.network is None
    else:
        assert parts.network.node_count <= cfg.node_ceiling <= MAX_NODES


# JSON values of every kind, and the shapes the schema's parsers look for, so
# that a drawn value gets past the type checks as often as it fails them
number = st.one_of(st.integers(), st.integers(-10 ** 400, 10 ** 400), st.floats())
json_leaf = st.one_of(st.none(), st.booleans(), number, st.text(max_size=4),
                      st.sampled_from([*CONTROLLER_TYPES, "markov", "unstable", "earth"]))
json_value = st.recursive(json_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6)
shaped_value = st.one_of(
    json_leaf,
    st.lists(number, min_size=3, max_size=3),
    st.lists(st.lists(number, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(number, min_size=2, max_size=2), min_size=9, max_size=9))
scenario_json = st.fixed_dictionaries({}, optional={
    name: st.one_of(json_leaf, st.dictionaries(st.sampled_from(sorted(keys)), shaped_value,
                                               max_size=3))
    for name, keys in _SCHEMA.items()})


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=64), json_value.map(json.dumps),
                 scenario_json.map(json.dumps)))
def test_validate_ends_in_ok_or_an_error_line(scenario_file, content):
    if isinstance(content, bytes):
        scenario_file.write_bytes(content)
    else:
        scenario_file.write_text(content)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="K2 <= I/2", category=UserWarning)
        assert cli_main(["validate", "--config", str(scenario_file)]) in (0, 1)
