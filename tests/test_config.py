import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qzak.config import apply_overrides, resolve_config
from qzak.dynamics import oracle_evolve
from qzak.errors import ConfigError, ParameterError, QzakError
from qzak.field import real_field
from qzak.grid import make_grid
from qzak.cli import run_cli
from qzak.harness import SweepRecord, fit_rate, lambda_sweep, self_convergence
from qzak.layer import decay_probe
from qzak.state import (PRESET_KINDS, PresetParams, SimConfig, _gaussian,
                        preset_initial_data)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def test_minimal_sweep_config_gets_defaults():
    cfg = resolve_config({"experiment": "sweep"})
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
        resolve_config({"experiment": "sweep", "epsilon": 1.5})
    assert err.value.path == "epsilon"


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "sweep", "lambda_max": 64})
    assert err.value.path == "lambda_max"
    for key in ("emit_plots", "oracle_refinement"):
        with pytest.raises(ConfigError) as err:
            resolve_config({"experiment": "sweep", key: 1})
        assert err.value.path == key


def test_unknown_data_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "sweep", "data": {"widht": 2.0}})
    assert err.value.path == "data.widht"
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "sweep", "data": {"n0_zero_mean": True}})
    assert err.value.path == "data.n0_zero_mean"


def test_bad_experiment_kind():
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "meditate"})
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
        resolve_config(json.loads(text))
    assert err.value.path == path


def test_sim_config_rejects_infinite_lambda():
    # dt = c_lam / lam would be 0, and the march would never end
    with pytest.raises(ParameterError):
        SimConfig(eps=1.0, lam=float("inf"), T=0.1, grid=make_grid(1, 16, 10.0))


def test_lambda_list_must_be_sorted():
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "sweep", "lambdas": [8, 4]})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "sweep", "lambdas": [0.5, 4]})
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "sweep", "lambdas": [0.5]})
    assert err.value.path == "lambdas"


@pytest.mark.parametrize("lambdas", ["[4, 8]", "[4, 4, 4]", "[4, 8, 8, 16]"])
def test_sweep_needs_three_increasing_lambdas(lambdas):
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "sweep", "lambdas": json.loads(lambdas)})
    assert err.value.path == "lambdas"


def test_oracle_check_requires_small_grid():
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "oracle-check"})
    assert err.value.path == "N"
    cfg = resolve_config({"experiment": "oracle-check", "N": 32, "L": 25.0,
                          "data": {"width": 5.0, "min_points_per_width": 3.0,
                                   "edge_tol": 1e-2}})
    assert cfg.sim.grid.N == 32


@pytest.mark.parametrize("experiment", ["simulate", "self-converge"])
def test_solver_must_be_known(experiment):
    # sweep, where test_range_violations sets it, does not read solver
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": experiment, "solver": "spooky"})
    assert str(err.value) == "solver: must be one of qz/qmnls, got 'spooky'"


@pytest.mark.parametrize("experiment", ["layer-decay"])
def test_dimension_two_rejected(experiment):
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": experiment, "dimension": 2, "N": 32})
    assert err.value.path == "dimension"


def test_self_converge_dt_list_validation():
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "self-converge", "dt_list": [1e-3, 2e-3]})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "self-converge", "T": 0.5,
                        "dt_list": [3e-3, 1e-3, 5e-4, 2.5e-4]})


@pytest.mark.parametrize("dt_list,message", [
    ([4e-3, 2e-3, 1e-3], "needs >= 4 entries"),
    ([4e-3, 2e-3, 2e-3, 1e-3], "must be strictly decreasing"),
])
def test_self_converge_dt_list_names_the_key(dt_list, message):
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "self-converge", "T": 0.02, "dt_list": dt_list})
    assert err.value.path == "dt_list"
    assert message in str(err.value)


def _data(cfg):
    return preset_initial_data(cfg.data_kind, cfg.data_params, cfg.sim.grid, cfg.sim.eps)


def _probe(cfg, grid=None):
    grid = grid or cfg.sim.grid
    p = cfg.data_params
    return real_field(grid, _gaussian(grid, p.amplitude, p.width, p.center))


def _records(lams):
    return [SweepRecord(lam=lam, dt=1e-3, sup_err_E_Hm=1.0, sup_err_Q_Hm=1.0,
                        sup_Q_Hm=1.0, walltime_s=0.0, max_tail_E=0.0, mass_drift=0.0,
                        steps=1) for lam in lams]


SWEEP = {"experiment": "sweep"}
SELFCONV = {"experiment": "self-converge", "T": 0.02}
ORACLE = json.loads((CONFIG_DIR / "oracle_check.json").read_text())
DECAY = {"experiment": "layer-decay"}

# Each precondition that resolve_config takes from the library function
# that needs it: a valid config, the values that break the rule, the key
# the config error names, and the library call on the same values.
MOVED_RULES = {
    "ladder": (SWEEP, {"lambdas": [8.0, 4.0, 16.0]}, "lambdas",
               lambda cfg: lambda_sweep(cfg.sim, _data(cfg), [8.0, 4.0, 16.0], 2)),
    "rate-fit": (SWEEP, {"lambdas": [4.0, 8.0]}, "lambdas",
                 lambda cfg: fit_rate(_records([4.0, 8.0]))),
    "dt-list-length": (SELFCONV, {"dt_list": [4e-3, 2e-3, 1e-3]}, "dt_list",
                       lambda cfg: self_convergence(cfg.sim, _data(cfg), [4e-3, 2e-3, 1e-3])),
    "dt-list-order": (SELFCONV, {"dt_list": [4e-3, 2e-3, 2e-3, 1e-3]}, "dt_list",
                      lambda cfg: self_convergence(cfg.sim, _data(cfg),
                                                   [4e-3, 2e-3, 2e-3, 1e-3])),
    "dt-divides-T": (SELFCONV, {"dt_list": [4e-3, 3e-3, 1e-3, 5e-4]}, "dt_list[1]",
                     lambda cfg: self_convergence(cfg.sim, _data(cfg),
                                                  [4e-3, 3e-3, 1e-3, 5e-4])),
    "grid-dimension": (SWEEP, {"dimension": 3}, "dimension",
                       lambda cfg: make_grid(3, 1024, cfg.sim.grid.L)),
    "grid-size": (SWEEP, {"N": 1000}, "N",
                  lambda cfg: make_grid(1, 1000, cfg.sim.grid.L)),
    "resolution": (SWEEP, {"data": {"width": 0.01}}, "data.width",
                   lambda cfg: preset_initial_data(
                       "generic", PresetParams(width=0.01), cfg.sim.grid, 1.0)),
    "carrier": (SWEEP, {"data": {"n_k0": 100.0}}, "data.n_k0",
                lambda cfg: preset_initial_data(
                    "generic", PresetParams(n_k0=100.0), cfg.sim.grid, 1.0)),
    "center-length": (SWEEP, {"data": {"center": [0.0, 5.0]}}, "data.center",
                      lambda cfg: preset_initial_data(
                          "generic", PresetParams(center=(0.0, 5.0)), cfg.sim.grid, 1.0)),
    "oracle-size": (ORACLE, {"N": 128}, "N",
                    lambda cfg: oracle_evolve(
                        replace(cfg.sim, grid=make_grid(1, 128, cfg.sim.grid.L)),
                        _data(cfg))),
    "probe-dimension": (DECAY, {"dimension": 2, "N": 32}, "dimension",
                        lambda cfg: decay_probe(
                            _probe(cfg, make_grid(2, 32, cfg.sim.grid.L)), 1.0,
                            [0.8], 2, [0.0])),
    "probe-time": (DECAY, {"lambda_times": [1.0, 0.0]}, "lambda_times[1]",
                   lambda cfg: decay_probe(_probe(cfg), 1.0, [1.0, 0.0], 2,
                                           cfg.probe_points)),
    "probe-point": (DECAY, {"probe_points": [0.0, 1000.0]}, "probe_points[1]",
                    lambda cfg: decay_probe(_probe(cfg), 1.0, [0.8], 2, [0.0, 1000.0])),
    "probe-data": (DECAY, {"data": {"amplitude": 0.0}}, "data.amplitude",
                   lambda cfg: decay_probe(real_field(cfg.sim.grid, np.zeros(cfg.sim.grid.N)),
                                           1.0, [0.8], 2, cfg.probe_points)),
    "decay-k-max": (DECAY, {"k_max": 8}, "k_max",
                    lambda cfg: decay_probe(_probe(cfg), 1.0, [0.25, 1.0, 4.0], 8,
                                            [0.0, 20.0])),
    "probe-horizon": (DECAY, {"lambda_times": [1000.0]}, "lambda_times",
                      lambda cfg: decay_probe(_probe(cfg), 1.0, [1000.0], 2,
                                              cfg.probe_points)),
}


@pytest.mark.parametrize("rule", sorted(MOVED_RULES))
def test_config_error_is_the_library_error(rule):
    # one copy of each rule: the config reports what the library raises
    base, bad, path, call = MOVED_RULES[rule]
    with pytest.raises(ConfigError) as config_err:
        resolve_config({**base, **bad})
    with pytest.raises(QzakError) as library_err:
        call(resolve_config(base))
    assert config_err.value.path == path
    assert str(config_err.value) == f"{path}: {library_err.value}"


def test_layer_decay_defaults():
    cfg = resolve_config({"experiment": "layer-decay"})
    assert cfg.lambda_times == (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0)
    assert "lambdas" not in cfg.resolved
    assert cfg.data_params.width == 4.5
    assert cfg.k_max == 2


@pytest.mark.parametrize("box,largest", [
    ({}, 12.2),
    ({"L": 40.0, "probe_points": [0.0, 1.0, 2.0], "data": {"edge_tol": 1e-8}}, 4.7),
    ({"L": 10.0 * np.pi, "probe_points": [0.0, 1.0, 2.0], "data": {"edge_tol": 1e-5}},
     4.9),
], ids=["default", "L40", "L10pi"])
def test_layer_decay_horizon_cutoff_follows_the_data(tmp_path, box, largest):
    # a Gaussian that edge_tol lets reach the box edge jumps at the seam, and
    # the jump spreads a tail of its relative height over every mode: the
    # band cutoff stands above that tail, so the largest lam t these boxes
    # allow is a few units and not the top mode's 0.22 or 0.069
    raw = {"experiment": "layer-decay", **box}
    with pytest.raises(ConfigError) as err:
        resolve_config({**raw, "lambda_times": [largest + 0.1]})
    assert err.value.path == "lambda_times"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, "lambda_times": [0.5, 2.0, largest]}))
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--config", str(path), "--out", str(out),
                    "--quiet"]) == 0
    fit = json.loads((out / "decayfit.json").read_text())
    assert np.isfinite(fit["inner_exponent"])


def test_layer_decay_probe_points_must_lie_in_box():
    # lam t <= 0.2 keeps the probe's horizon inside this box
    base = {"experiment": "layer-decay", "L": 40.0, "lambda_times": [0.1, 0.2],
            "data": {"edge_tol": 1e-8}}
    for points, bad in (([0.0, 20.0], 1), ([-20.5, 0.0], 0)):
        with pytest.raises(ConfigError) as err:
            resolve_config({**base, "probe_points": points})
        assert err.value.path == f"probe_points[{bad}]"
    assert resolve_config({**base, "probe_points": [-20.0, 0.0]}).probe_points == (-20.0, 0.0)


def test_layer_decay_k_max_bounded_by_rounding_growth():
    # eps_mach (pi N / L)^k_max <= 1e-6: k_max <= 6 at the default
    # xi_max = 25.6, and <= 4 at N=1024, L=10 pi (xi_max = 102.4), whose
    # box needs probe points nearer the center and lam t nearer 0 than the
    # defaults
    small = {"L": 10.0 * np.pi, "probe_points": [0.0, 1.0, 2.0],
             "lambda_times": [0.025, 0.05], "data": {"edge_tol": 1e-5}}
    assert resolve_config({"experiment": "layer-decay", "k_max": 6}).k_max == 6
    assert resolve_config({"experiment": "layer-decay", "k_max": 4, **small}).k_max == 4
    for raw in ({"k_max": 7}, {"k_max": 5, **small}):
        with pytest.raises(ConfigError) as err:
            resolve_config({"experiment": "layer-decay", **raw})
        assert err.value.path == "k_max"


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
    cfg = resolve_config({"experiment": "sweep", "epsilon": 0.5})
    again = resolve_config(json.loads(json.dumps(cfg.resolved)))
    assert again.sim.eps == 0.5
    assert again.resolved == cfg.resolved


# The keys each experiment reads besides the ones every experiment reads,
# and the data keys each preset kind (or layer-decay's Gaussian) reads.
EVERY = {"experiment", "epsilon", "dimension", "N", "L", "out_dir", "data"}
READS = {
    "simulate": {"lambda", "T", "dt0", "c_lambda", "dealias", "num_samples", "solver"},
    "sweep": {"lambdas", "T", "dt0", "c_lambda", "m", "dealias", "num_samples"},
    "layer-decay": {"lambda_times", "probe_points", "k_max"},
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
# A valid value of every key any experiment reads besides data; N = 32 suits
# oracle-check, and L = 100 keeps the default layer-decay probe points inside
# the box.
VALUES = {
    "epsilon": 0.5, "dimension": 1, "N": 32, "L": 100.0, "out_dir": "runs/x",
    "lambda": 8.0, "lambdas": [4.0, 8.0, 16.0], "T": 1.0, "dt0": 2e-3,
    "c_lambda": 0.1, "m": 1, "dealias": False, "num_samples": 5, "solver": "qmnls",
    "dt_list": [5e-3, 2.5e-3, 1.25e-3, 6.25e-4], "tolerance": 1e-4,
    "lambda_times": [0.5, 1.0], "probe_points": [0.0, 3.0], "k_max": 1,
}
DATA_VALUES = {
    "amplitude": 0.5, "width": 4.0, "k0": 0.2, "chirp": 0.005, "center": [1.0],
    "n_amplitude": 0.4, "n_width": 4.5, "n_k0": 0.5, "n_center": [0.5],
    "n1_amplitude": 0.2, "n1_width": 4.5, "n1_center": [-1.0],
    "min_points_per_width": 1.25, "edge_tol": 1e-6,
}
# Gaussians that the N = 32 grids above resolve (dx <= 40 pi / 32 = 3.93),
# with each value of DATA_VALUES in place of theirs, whose carriers stay in
# the 2/3 band (2/3) pi/dx = 0.53: resolve_config rejects data that the run
# could not build.
RESOLVED = {"width": 5.0, "min_points_per_width": 1.0}
RESOLVED_DATA = {"generic": {**RESOLVED, "n_width": 5.0, "n1_width": 5.0},
                 "compatible": RESOLVED, "well-prepared": RESOLVED,
                 "layer-decay": RESOLVED}


@pytest.mark.parametrize("experiment", sorted(READS))
def test_experiment_accepts_only_the_keys_it_reads(experiment):
    # covers, e.g., solver for oracle-check and lambda for sweep
    owner = "layer-decay" if experiment == "layer-decay" else "generic"
    base = {"experiment": experiment, "N": 32, "data": RESOLVED_DATA[owner]}
    reads = EVERY | READS[experiment]
    for key, value in VALUES.items():
        raw = {**base, key: value}
        if key in reads:
            cfg = resolve_config(raw)
            assert cfg.resolved[key] == value, key
        else:
            with pytest.raises(ConfigError) as err:
                resolve_config(raw)
            assert err.value.path == key
            assert str(err.value) == f"{key}: not read by {experiment}"
    kinds = ["layer-decay"] if experiment == "layer-decay" else sorted(PRESET_KINDS)
    for kind in kinds:
        data_base = dict(RESOLVED_DATA[kind])
        if kind != "layer-decay":
            data_base["kind"] = kind
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
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == sorted(p.name for p in out.iterdir())
    config = manifest["config"]
    assert set(config) == EVERY | READS[experiment]
    owner = "layer-decay" if experiment == "layer-decay" else config["data"]["kind"]
    assert set(config["data"]) == DATA_READS[owner]
