import json
from pathlib import Path

import numpy as np
import pytest

from qzak import parse_config
from qzak.config import apply_overrides, resolve_config
from qzak.errors import ConfigError, ParameterError
from qzak.grid import make_grid
from qzak.state import PresetParams, SimConfig

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_minimal_sweep_config_gets_defaults():
    cfg = parse_config('{"experiment": "sweep"}')
    sim = cfg.sim
    assert sim.dt0 == 1e-3
    assert sim.c_lam == 0.2
    assert sim.m == 2
    assert sim.grid.N == 1024
    assert np.isclose(sim.grid.L, 40.0 * np.pi)
    assert sim.T == 0.5
    assert sim.eps == 1.0
    assert cfg.lambdas == (4.0, 8.0, 16.0, 32.0, 64.0)
    assert len(sim.sample_times) == 64
    assert cfg.data_kind == "generic"
    assert cfg.data_params == PresetParams()


def test_epsilon_out_of_range_names_field():
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment": "sweep", "epsilon": 1.5}')
    assert err.value.path == "epsilon"


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment": "sweep", "lambda_max": 64}')
    assert err.value.path == "lambda_max"
    for key in ("emit_plots", "oracle_refinement"):
        with pytest.raises(ConfigError) as err:
            resolve_config({"experiment": "sweep", key: 1})
        assert err.value.path == key


def test_unknown_data_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment": "sweep", "data": {"widht": 2.0}}')
    assert err.value.path == "data.widht"
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "sweep", "data": {"n0_zero_mean": True}})
    assert err.value.path == "data.n0_zero_mean"


def test_invalid_json_reported():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_bad_experiment_kind():
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment": "meditate"}')
    assert err.value.path == "experiment"


@pytest.mark.parametrize("key,value", [
    ("N", 1000), ("N", 8), ("dimension", 3), ("T", 0.0), ("dt0", -1.0),
    ("m", -1), ("m", 2.5), ("num_samples", 1), ("solver", "spooky"),
    ("T", float("inf")), ("dt0", float("inf")), ("c_lambda", float("nan")),
    pytest.param("T", 10**400, id="T-10**400"),
])
def test_range_violations(key, value):
    raw = {"experiment": "sweep", key: value}
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.path == key


@pytest.mark.parametrize("text,path", [
    ('{"experiment": "simulate", "lambda": 1e400}', "lambda"),
    ('{"experiment": "sweep", "lambdas": [4, 1e400]}', "lambdas[1]"),
    ('{"experiment": "sweep", "data": {"center": -Infinity}}', "data.center[0]"),
    ('{"experiment": "sweep", "data": {"width": NaN}}', "data.width"),
])
def test_non_finite_json_names_its_path(text, path):
    # json reads 1e400 as inf; an infinite lambda would step with dt = 0
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == path


def test_sim_config_rejects_infinite_lambda():
    # dt = c_lam / lam would be 0, and the march would never end
    with pytest.raises(ParameterError):
        SimConfig(eps=1.0, lam=float("inf"), T=0.1, grid=make_grid(1, 16, 10.0))


def test_lambda_list_must_be_sorted():
    with pytest.raises(ConfigError):
        parse_config('{"experiment": "sweep", "lambdas": [8, 4]}')
    with pytest.raises(ConfigError):
        parse_config('{"experiment": "sweep", "lambdas": [0.5, 4]}')


def test_oracle_check_requires_small_grid():
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment": "oracle-check"}')
    assert err.value.path == "N"
    cfg = parse_config('{"experiment": "oracle-check", "N": 32, "L": 25.0,'
                       ' "data": {"width": 5.0, "min_points_per_width": 3.0,'
                       ' "edge_tol": 1e-7}}')
    assert cfg.sim.grid.N == 32


def test_self_converge_dt_list_validation():
    with pytest.raises(ConfigError):
        parse_config('{"experiment": "self-converge", "dt_list": [1e-3, 2e-3]}')
    with pytest.raises(ConfigError):
        parse_config('{"experiment": "self-converge", "T": 0.5,'
                     ' "dt_list": [3e-3, 1e-3, 5e-4, 2.5e-4]}')


def test_layer_decay_defaults():
    cfg = parse_config('{"experiment": "layer-decay"}')
    assert cfg.lambdas == (8.0, 16.0, 32.0)
    assert cfg.data_params.width == 4.5
    assert cfg.k_max == 2


def test_overrides_dotted_paths():
    raw = json.loads('{"experiment": "sweep"}')
    out = apply_overrides(raw, ["epsilon=0.5", "data.width=3.5",
                                "lambdas=[4, 8, 16]", "out_dir=runs/x"])
    cfg = resolve_config(out)
    assert cfg.sim.eps == 0.5
    assert cfg.data_params.width == 3.5
    assert cfg.lambdas == (4.0, 8.0, 16.0)
    assert cfg.out_dir == "runs/x"


def test_override_requires_equals():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["epsilon"])


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_config_resolves_and_round_trips(path):
    cfg = resolve_config(json.loads(path.read_text()))
    again = resolve_config(json.loads(json.dumps(cfg.resolved)))
    assert again.resolved == cfg.resolved
    assert again == cfg


def test_resolved_dict_round_trips():
    cfg = parse_config('{"experiment": "sweep", "epsilon": 0.5}')
    again = resolve_config(json.loads(json.dumps(cfg.resolved)))
    assert again.sim.eps == 0.5
    assert again.resolved == cfg.resolved
