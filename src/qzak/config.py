"""Experiment-file schema, validation, and defaults.

Configs are JSON objects. Unknown keys are rejected with the offending
path; range violations name the field. Documented defaults: dt0=1e-3,
c_lambda=0.2, m=2, N=1024, L=40*pi, T=0.5, epsilon=1, 64 sample times.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from .errors import ConfigError
from .grid import make_grid
from .state import PresetParams, SimConfig

DEFAULT_L = 40.0 * math.pi

EXPERIMENTS = ("simulate", "sweep", "layer-decay", "oracle-check", "self-converge")

_TOP_KEYS = {
    "experiment", "epsilon", "lambda", "lambdas", "T", "dt0", "c_lambda", "m",
    "dimension", "N", "L", "dealias", "num_samples", "solver", "data",
    "dt_list", "oracle_refinement", "tolerance", "lambda_times",
    "probe_points", "k_max", "out_dir", "emit_plots",
}

_DATA_KEYS = {"kind"} | {f.name for f in fields(PresetParams)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    experiment: str
    sim: SimConfig
    data_kind: str
    data_params: PresetParams
    lambdas: tuple[float, ...]
    solver: str
    dt_list: tuple[float, ...]
    oracle_refinement: int
    tolerance: float
    lambda_times: tuple[float, ...]
    probe_points: tuple[float, ...]
    k_max: int
    out_dir: str | None
    emit_plots: bool
    resolved: dict = dc_field(repr=False, default_factory=dict)


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _get_number(raw: dict, key: str, default, *, low=None, high=None,
                low_open=False, high_open=False, integer=False, prefix=""):
    path = prefix + key
    value = raw.get(key, default)
    if integer:
        _expect(isinstance(value, int) and not isinstance(value, bool),
                path, f"expected an integer, got {value!r}")
    else:
        _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
                path, f"expected a number, got {value!r}")
        value = float(value)
    if low is not None:
        _expect(value > low if low_open else value >= low,
                path, f"must be {'>' if low_open else '>='} {low}, got {value}")
    if high is not None:
        _expect(value < high if high_open else value <= high,
                path, f"must be {'<' if high_open else '<='} {high}, got {value}")
    return value


def _get_bool(raw: dict, key: str, default: bool, prefix: str = "") -> bool:
    value = raw.get(key, default)
    _expect(isinstance(value, bool), prefix + key,
            f"expected true/false, got {value!r}")
    return value


def _get_float_list(raw: dict, key: str, default, path=None):
    path = path or key
    value = raw.get(key, default)
    _expect(isinstance(value, (list, tuple)) and len(value) > 0,
            path, f"expected a nonempty list, got {value!r}")
    out = []
    for i, v in enumerate(value):
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                f"{path}[{i}]", f"expected a number, got {v!r}")
        out.append(float(v))
    return tuple(out)


def _parse_data(raw_data: dict) -> tuple[str, PresetParams]:
    _expect(isinstance(raw_data, dict), "data", "expected an object")
    unknown = set(raw_data) - _DATA_KEYS
    if unknown:
        raise ConfigError(f"data.{sorted(unknown)[0]}", "unknown key")
    kind = raw_data.get("kind", "generic")
    _expect(kind in ("generic", "compatible", "well-prepared"), "data.kind",
            f"must be one of generic/compatible/well-prepared, got {kind!r}")

    def num(key, default, **kw):
        return _get_number(raw_data, key, default, prefix="data.", **kw)

    def center(key):
        value = raw_data.get(key, [0.0])
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return (float(value),)
        return _get_float_list({key: value}, key, value, path=f"data.{key}")

    params = PresetParams(
        amplitude=num("amplitude", 1.0),
        width=num("width", 2.0, low=0.0, low_open=True),
        k0=num("k0", 0.0),
        chirp=num("chirp", 0.0),
        center=center("center"),
        n_amplitude=num("n_amplitude", 0.5),
        n_width=num("n_width", 3.0, low=0.0, low_open=True),
        n_k0=num("n_k0", 0.0),
        n_center=center("n_center"),
        n1_amplitude=num("n1_amplitude", 0.3),
        n1_width=num("n1_width", 3.0, low=0.0, low_open=True),
        n1_center=center("n1_center"),
        n0_zero_mean=_get_bool(raw_data, "n0_zero_mean", False, prefix="data."),
        min_points_per_width=num("min_points_per_width", 8.0, low=1.0),
        edge_tol=num("edge_tol", 1e-12, low=0.0, low_open=True, high=1.0),
    )
    return kind, params


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object and fill documented defaults."""
    _expect(isinstance(raw, dict), "$", "top-level config must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")

    experiment = raw.get("experiment")
    _expect(experiment in EXPERIMENTS, "experiment",
            f"must be one of {'/'.join(EXPERIMENTS)}, got {experiment!r}")

    epsilon = _get_number(raw, "epsilon", 1.0, low=0.0, low_open=True, high=1.0)
    T = _get_number(raw, "T", 0.5, low=0.0, low_open=True)
    dt0 = _get_number(raw, "dt0", 1e-3, low=0.0, low_open=True)
    c_lambda = _get_number(raw, "c_lambda", 0.2, low=0.0, low_open=True)
    m = _get_number(raw, "m", 2, low=0, integer=True)
    dimension = _get_number(raw, "dimension", 1, integer=True)
    _expect(dimension in (1, 2), "dimension", f"must be 1 or 2, got {dimension}")
    N = _get_number(raw, "N", 1024, integer=True)
    _expect(N >= 16 and (N & (N - 1)) == 0, "N",
            f"must be a power of two >= 16, got {N}")
    L = _get_number(raw, "L", DEFAULT_L, low=0.0, low_open=True)
    dealias = _get_bool(raw, "dealias", True)
    num_samples = _get_number(raw, "num_samples", 64, low=2, integer=True)
    solver = raw.get("solver", "qz")
    _expect(solver in ("qz", "qmnls"), "solver",
            f"must be 'qz' or 'qmnls', got {solver!r}")

    if experiment == "sweep":
        lambdas = _get_float_list(raw, "lambdas", [4.0, 8.0, 16.0, 32.0, 64.0])
    elif experiment == "layer-decay":
        lambdas = _get_float_list(raw, "lambdas", [8.0, 16.0, 32.0])
    else:
        lambdas = (_get_number(raw, "lambda", 4.0, low=1.0),)
    _expect(list(lambdas) == sorted(lambdas) and lambdas[0] >= 1.0,
            "lambdas" if len(lambdas) > 1 else "lambda",
            "must be sorted with every entry >= 1")

    raw_data = dict(raw.get("data", {}))
    if experiment == "layer-decay":
        # Plain probe Gaussian; default width sized so the default probe
        # horizon stays inside the box.
        raw_data.setdefault("width", 4.5)
    kind, params = _parse_data(raw_data)

    dt_list = _get_float_list(raw, "dt_list", [4e-3, 2e-3, 1e-3, 2.5e-4])
    oracle_refinement = _get_number(raw, "oracle_refinement", 50, low=50, integer=True)
    tolerance = _get_number(raw, "tolerance", 1e-5, low=0.0, low_open=True)
    lambda_times = _get_float_list(
        raw, "lambda_times", [0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0])
    probe_points = _get_float_list(raw, "probe_points",
                                   [0.0, 1.0, 2.0, 20.0, 30.0, 40.0])
    k_max = _get_number(raw, "k_max", 2, low=0, integer=True)

    if experiment == "oracle-check":
        _expect(dimension == 1, "dimension", "oracle-check requires dimension 1")
        _expect(N <= 64, "N", f"oracle-check requires N <= 64, got {N}")
    if experiment == "self-converge":
        _expect(all(b < a for a, b in zip(dt_list, dt_list[1:])), "dt_list",
                "must be strictly decreasing")
        for i, dt in enumerate(dt_list):
            steps = T / dt
            _expect(abs(steps - round(steps)) <= 1e-9 * steps, f"dt_list[{i}]",
                    f"{dt} does not divide T = {T}")

    out_dir = raw.get("out_dir")
    if out_dir is not None:
        _expect(isinstance(out_dir, str) and out_dir != "", "out_dir",
                f"expected a nonempty string, got {out_dir!r}")
    emit_plots = _get_bool(raw, "emit_plots", True)

    sim = SimConfig(eps=epsilon, lam=lambdas[0], T=T,
                    grid=make_grid(dimension, N, L), dt0=dt0, c_lam=c_lambda,
                    m=m, dealias=dealias,
                    sample_times=tuple(np.linspace(0.0, T, num_samples)))

    resolved = {
        "experiment": experiment, "epsilon": epsilon, "T": T, "dt0": dt0,
        "c_lambda": c_lambda, "m": m, "dimension": dimension, "N": N, "L": L,
        "dealias": dealias, "num_samples": num_samples, "solver": solver,
        "lambdas": list(lambdas),
        "data": {"kind": kind, **asdict(params)},
        "dt_list": list(dt_list), "oracle_refinement": oracle_refinement,
        "tolerance": tolerance, "lambda_times": list(lambda_times),
        "probe_points": list(probe_points), "k_max": k_max,
        "out_dir": out_dir, "emit_plots": emit_plots,
    }

    return ExperimentConfig(
        experiment=experiment, sim=sim, data_kind=kind, data_params=params,
        lambdas=tuple(lambdas), solver=solver, dt_list=tuple(dt_list),
        oracle_refinement=oracle_refinement, tolerance=tolerance,
        lambda_times=tuple(lambda_times), probe_points=tuple(probe_points),
        k_max=k_max, out_dir=out_dir, emit_plots=emit_plots, resolved=resolved)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    return resolve_config(raw)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply repeatable ``key=value`` overrides with dotted key paths."""
    _expect(isinstance(raw, dict), "$", "top-level config must be an object")
    out = json.loads(json.dumps(raw))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "override path crosses a non-object value")
        node[parts[-1]] = value
    return out
