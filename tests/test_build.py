"""One builder behind validation and the run: what validates also builds."""

import copy
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsim import config
from dpsim.cli import main as cli_main
from dpsim.approximators import DEFAULT_INPUT_RANGES, AdaptiveWeights, RbfNetwork
from dpsim.config import (_SCHEMA, CONTROLLER_TYPES, DEFAULT_K1, MAX_NODES, ConfigError,
                          build_components, parse_scenario)
from dpsim.simulate import run_simulation, simulate_adaptive, simulate_pid
from dpsim.traces import write_trace_csv

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


# adaptive-nn under the Markov load, so that every field below changes the run
SHORT = {"disturbance": {"type": "markov"}, "rbf": {"points_per_dim": 2},
         "simulation": {"duration": 2.0}}


def counted_grids(monkeypatch):
    """A list that gets one entry per call of ``RbfNetwork.grid`` from now on."""
    grids, build_grid = [], RbfNetwork.grid
    monkeypatch.setattr(RbfNetwork, "grid",
                        lambda *args: grids.append(args) or build_grid(*args))
    return grids


def test_a_request_builds_its_components_once(monkeypatch):
    # validation builds the set, grid included, and the run uses it
    grids, builds, build = counted_grids(monkeypatch), [], config.build_components

    def counted(cfg):
        builds.append(cfg)
        return build(cfg)

    monkeypatch.setattr(config, "build_components", counted)
    cfg = parse_scenario(SHORT)
    assert len(grids) == len(builds) == 1
    run_simulation(cfg)
    assert len(grids) == len(builds) == 1
    cfg = dataclasses.replace(parse_scenario(SHORT), duration=1.0)
    run_simulation(cfg)         # a replaced config builds its own
    assert len(grids) == len(builds) == 3


def _trace_bytes(cfg, path):
    write_trace_csv(path, run_simulation(cfg)[0])
    return path.read_bytes()


def _run_parts(cfg, parts):
    """One run of ``parts``, dispatched as ``run_simulation`` does; returns its trace."""
    common = dict(eta0=cfg.initial_pose, nu0=cfg.initial_velocity, eta_d=cfg.target_pose,
                  dt=cfg.dt, duration=cfg.duration, limits=parts.limits)
    if parts.network is None:
        return simulate_pid(parts.plant, parts.pid, parts.disturbance, **common)[0]
    weights0 = AdaptiveWeights.random_init(parts.network.node_count, cfg.weight_seed)
    return simulate_adaptive(parts.plant, parts.gains, parts.network, weights0,
                             parts.disturbance, adapt=cfg.controller_type == "adaptive-nn",
                             **common)[0]


@pytest.mark.parametrize("disturbance", ["constant", "markov"])
@pytest.mark.parametrize("controller", CONTROLLER_TYPES)
def test_one_component_set_runs_the_same_every_time(tmp_path, monkeypatch, controller,
                                                    disturbance):
    # each run starts the PID law and the Markov load afresh, so the set is reusable
    raw = _merged(_merged(SHORT, "controller", "type", controller),
                  "disturbance", "type", disturbance)
    cfg = parse_scenario(raw)
    parts = build_components(cfg)
    runs = []
    for name in ("first", "second"):
        path = tmp_path / f"{name}.csv"
        write_trace_csv(path, _run_parts(cfg, parts))
        runs.append(path.read_bytes())
    assert runs[1] == runs[0]
    # one parsed config: the set validation built serves both runs
    grids = counted_grids(monkeypatch)
    cfg = parse_scenario(raw)
    first = _trace_bytes(cfg, tmp_path / "run1.csv")
    assert _trace_bytes(cfg, tmp_path / "run2.csv") == first
    assert len(grids) == (controller != "pid")


def _merged(raw, section, key, value):
    merged = copy.deepcopy(raw)
    merged.setdefault(section, {})[key] = value
    return merged


@pytest.mark.parametrize("attr, value, section, key, raw_value", [
    ("controller_type", "pid", "controller", "type", "pid"),
    ("weight_seed", 7, "rbf", "weight_seed", 7),
    ("disturbance_seed", 9, "disturbance", "seed", 9),
    ("k2", np.diag([4e4, 5e4, 6e4]), "controller", "K2", [4e4, 5e4, 6e4]),
    ("points_per_dim", 3, "rbf", "points_per_dim", 3),
])
def test_a_field_set_after_parsing_runs_as_given(tmp_path, attr, value, section, key,
                                                 raw_value):
    cfg = dataclasses.replace(parse_scenario(SHORT), **{attr: value})
    got = _trace_bytes(cfg, tmp_path / "set.csv")
    want = _trace_bytes(parse_scenario(_merged(SHORT, section, key, raw_value)),
                        tmp_path / "parsed.csv")
    assert got == want
    assert got != _trace_bytes(parse_scenario(SHORT), tmp_path / "unset.csv")


@pytest.mark.parametrize("controller", ["pid", "nn-fixed"])
def test_one_config_runs_the_same_every_time(tmp_path, controller):
    cfg = parse_scenario(_merged(SHORT, "controller", "type", controller))
    twin = copy.copy(cfg)       # shares the validated set
    first = _trace_bytes(cfg, tmp_path / "first.csv")
    assert _trace_bytes(cfg, tmp_path / "again.csv") == first
    assert _trace_bytes(twin, tmp_path / "twin.csv") == first


def test_parsed_arrays_are_read_only():
    # an edit in place would run the set validation built from the old value
    cfg = parse_scenario({"controller": {"tau_max": 1e6}})
    with pytest.raises(ValueError, match="read-only"):
        cfg.k2[0, 0] = 1.0
    arrays = [value for value in vars(cfg).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 18
    assert not any(array.flags.writeable for array in arrays)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k2 = np.eye(3)


@pytest.mark.parametrize("controller, warned", [("pid", 0), ("adaptive-nn", 1)])
def test_weak_k2_warns_only_for_backstepping(controller, warned):
    raw = {"controller": {"type": controller, "K2": [0.1, 0.1, 0.1]}}
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        parse_scenario(raw)
    assert len(record) == warned


def test_builder_reports_a_mutated_config():
    cfg = dataclasses.replace(parse_scenario({}), sigma=np.array([1.0, -1.0, 1.0]))
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
