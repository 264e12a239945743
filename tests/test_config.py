import json
from pathlib import Path

import numpy as np
import pytest

from qzak import parse_config
from qzak.config import apply_overrides, resolve_config
from qzak.errors import ConfigError, ParameterError
from qzak.grid import make_grid
from qzak.cli import run_cli
from qzak.state import PRESET_KINDS, PresetParams, SimConfig

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
    pytest.param("N", 2**70, id="N-2**70"),
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
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment": "sweep", "lambdas": [0.5]}')
    assert err.value.path == "lambdas"


@pytest.mark.parametrize("lambdas", ["[4, 8]", "[4, 4, 4]", "[4, 8, 8, 16]"])
def test_sweep_needs_three_increasing_lambdas(lambdas):
    with pytest.raises(ConfigError) as err:
        parse_config(f'{{"experiment": "sweep", "lambdas": {lambdas}}}')
    assert err.value.path == "lambdas"
    # the rate-fit rule is the sweep's; layer-decay keeps any sorted list
    raw = f'{{"experiment": "layer-decay", "lambdas": {lambdas}}}'
    assert parse_config(raw).lambdas == tuple(json.loads(lambdas))


def test_oracle_check_requires_small_grid():
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment": "oracle-check"}')
    assert err.value.path == "N"
    cfg = parse_config('{"experiment": "oracle-check", "N": 32, "L": 25.0,'
                       ' "data": {"width": 5.0, "min_points_per_width": 3.0,'
                       ' "edge_tol": 1e-7}}')
    assert cfg.sim.grid.N == 32


@pytest.mark.parametrize("experiment", ["simulate", "self-converge"])
def test_solver_must_be_known(experiment):
    # sweep, where test_range_violations sets it, does not read solver
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": experiment, "solver": "spooky"})
    assert str(err.value) == "solver: must be one of qz/qmnls, got 'spooky'"


@pytest.mark.parametrize("experiment", ["oracle-check", "layer-decay"])
def test_dimension_two_rejected(experiment):
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": experiment, "dimension": 2, "N": 32})
    assert err.value.path == "dimension"


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


def test_layer_decay_probe_points_must_lie_in_box():
    base = {"experiment": "layer-decay", "L": 40.0}
    for points, bad in (([0.0, 20.0], 1), ([-20.5, 0.0], 0)):
        with pytest.raises(ConfigError) as err:
            resolve_config({**base, "probe_points": points})
        assert err.value.path == f"probe_points[{bad}]"
    assert resolve_config({**base, "probe_points": [-20.0, 0.0]}).probe_points == (-20.0, 0.0)


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


# The keys each experiment reads besides the ones every experiment reads,
# and the data keys each preset kind (or layer-decay's Gaussian) reads.
EVERY = {"experiment", "epsilon", "dimension", "N", "L", "out_dir", "data"}
READS = {
    "simulate": {"lambda", "T", "dt0", "c_lambda", "dealias", "num_samples", "solver"},
    "sweep": {"lambdas", "T", "dt0", "c_lambda", "m", "dealias", "num_samples"},
    "layer-decay": {"lambdas", "lambda_times", "probe_points", "k_max"},
    "oracle-check": {"lambda", "T", "dt0", "c_lambda", "dealias", "tolerance"},
    "self-converge": {"lambda", "T", "dealias", "solver", "dt_list", "m"},
}
ENVELOPE = {"kind", "amplitude", "width", "k0", "chirp", "center",
            "min_points_per_width", "edge_tol"}
DATA_READS = {
    "generic": ENVELOPE | {"n_amplitude", "n_width", "n_k0", "n_center",
                           "n1_amplitude", "n1_width", "n1_center"},
    "compatible": ENVELOPE,
    "well-prepared": ENVELOPE,
    "layer-decay": {"amplitude", "width", "center", "min_points_per_width", "edge_tol"},
}
# A valid value of every key any experiment reads; N = 32 suits oracle-check,
# and L = 100 keeps the default layer-decay probe points inside the box.
VALUES = {
    "epsilon": 0.5, "dimension": 1, "N": 32, "L": 100.0, "out_dir": "runs/x",
    "data": {}, "lambda": 8.0, "lambdas": [4.0, 8.0, 16.0], "T": 1.0, "dt0": 2e-3,
    "c_lambda": 0.1, "m": 1, "dealias": False, "num_samples": 5, "solver": "qmnls",
    "dt_list": [5e-3, 2.5e-3, 1.25e-3, 6.25e-4], "tolerance": 1e-4,
    "lambda_times": [0.5, 1.0], "probe_points": [0.0, 3.0], "k_max": 1,
}
DATA_VALUES = {
    "amplitude": 0.5, "width": 3.0, "k0": 0.2, "chirp": 0.1, "center": [1.0],
    "n_amplitude": 0.4, "n_width": 2.5, "n_k0": 0.5, "n_center": [0.5],
    "n1_amplitude": 0.2, "n1_width": 2.5, "n1_center": [-1.0],
    "min_points_per_width": 4.0, "edge_tol": 1e-6,
}


@pytest.mark.parametrize("experiment", sorted(READS))
def test_experiment_accepts_only_the_keys_it_reads(experiment):
    # covers, e.g., solver for oracle-check and lambda for sweep
    base = {"experiment": experiment, "N": 32}
    reads = EVERY | READS[experiment]
    for key, value in VALUES.items():
        raw = {**base, key: value}
        if key in reads:
            cfg = resolve_config(raw)
            assert cfg.resolved[key] == value or key == "data", key
        else:
            with pytest.raises(ConfigError) as err:
                resolve_config(raw)
            assert err.value.path == key
            assert str(err.value) == f"{key}: not read by {experiment}"
    kinds = ["layer-decay"] if experiment == "layer-decay" else sorted(PRESET_KINDS)
    for kind in kinds:
        data_base = {} if kind == "layer-decay" else {"kind": kind}
        for key, value in DATA_VALUES.items():
            raw = {**base, "data": {**data_base, key: value}}
            if key in DATA_READS[kind]:
                assert resolve_config(raw).resolved["data"][key] == value, key
            else:
                with pytest.raises(ConfigError) as err:
                    resolve_config(raw)
                assert err.value.path == f"data.{key}"
    if experiment == "layer-decay":
        with pytest.raises(ConfigError) as err:
            resolve_config({**base, "data": {"kind": "generic"}})
        assert err.value.path == "data.kind"


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_manifest_records_only_the_keys_read(path, tmp_path):
    raw = json.loads(path.read_text())
    experiment = raw["experiment"]
    out = tmp_path / "out"
    assert run_cli([experiment, "--config", str(path), "--out", str(out), "--quiet"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert set(config) == EVERY | READS[experiment]
    owner = "layer-decay" if experiment == "layer-decay" else config["data"]["kind"]
    assert set(config["data"]) == DATA_READS[owner]
