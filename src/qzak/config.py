"""Experiment-file schema, validation, and defaults.

Configs are JSON objects. Keys the experiment does not read (``_READS``),
range violations and non-finite numbers are rejected with their path, and
so is a value that a library function of the run would refuse: ``_checked``
runs that function's own precondition check. The run defaults (dt0,
c_lambda, m, dealias, 64 sample times) come from ``SimConfig`` and the
initial-data defaults from ``PresetParams``; the experiment defaults are
N=1024, L=40*pi, T=0.5 and epsilon=1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field, fields, replace

import numpy as np

from . import dynamics, harness, layer
from .errors import ConfigError, QzakError
from .field import real_field, to_spectral
from .grid import _check_dimension, _check_size, make_grid
from .state import (DEFAULT_NUM_SAMPLES, PRESET_KINDS, PresetParams, SimConfig,
                    _gaussian, _padded_center, check_amplitude, check_carrier,
                    check_resolution)

DEFAULT_L = 40.0 * math.pi

# The keys each experiment reads, and the data keys of each preset kind and of
# layer-decay's Gaussian. self-converge's m is unused, but a benchmark sets it.
_EVERY = {"experiment", "epsilon", "dimension", "N", "L", "out_dir", "data"}
_MARCH = {"T", "dt0", "c_lambda", "dealias"}
_READS = {
    "simulate": _EVERY | _MARCH | {"lambda", "num_samples", "solver"},
    "sweep": _EVERY | _MARCH | {"lambdas", "m", "num_samples"},
    "layer-decay": _EVERY | {"lambda_times", "probe_points", "k_max"},
    "oracle-check": _EVERY | _MARCH | {"lambda", "tolerance"},
    "self-converge": _EVERY | {"lambda", "T", "dealias", "solver", "dt_list", "m"},
}
EXPERIMENTS = tuple(_READS)
_PROBE = {"amplitude", "width", "center", "min_points_per_width", "edge_tol"}
_DATA_READS = {"generic": {"kind"} | {f.name for f in fields(PresetParams)},
               "compatible": {"kind", "k0", "chirp"} | _PROBE, "layer-decay": _PROBE}
_DATA_READS["well-prepared"] = _DATA_READS["compatible"]

# The bounded PresetParams fields; every other one is any finite number.
_DATA_BOUNDS = {
    "width": {"positive": True}, "n_width": {"positive": True},
    "n1_width": {"positive": True}, "min_points_per_width": {"low": 1.0},
    "edge_tol": {"positive": True, "high": 1.0},
}


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
    tolerance: float
    lambda_times: tuple[float, ...]
    probe_points: tuple[float, ...]
    k_max: int
    out_dir: str | None
    resolved: dict = dc_field(repr=False, default_factory=dict)


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _checked(path: str, check, *args) -> None:
    """Run a library precondition check; its failure names the config key."""
    try:
        check(*args)
    except QzakError as exc:
        raise ConfigError(path, str(exc)) from exc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, path: str) -> float:
    _expect(_is_number(value), path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a float
        value = math.inf
    _expect(math.isfinite(value), path, f"expected a finite number, got {value}")
    return value


class _Reader:
    """Reads the keys of one JSON object and records each resolved value.

    ``only`` rejects a key the owner does not read; such keys keep their
    defaults. ``resolved`` holds every key read, defaults filled in; it is
    what ``manifest.json`` records, and it resolves again to the same config.
    """

    def __init__(self, raw: dict, reads: set, prefix: str = ""):
        self.raw = raw
        self.reads = reads
        self.prefix = prefix
        self.resolved = {}

    def only(self, reads_of: dict, owner: str) -> None:
        self.reads = reads_of[owner]
        unread = min(set(self.raw) - self.reads, default=None)
        _expect(unread is None, f"{self.prefix}{unread}", f"not read by {owner}")

    def _get(self, key, default):
        return self.prefix + key, self.raw.get(key, default)

    def _keep(self, key, value):
        if key in self.reads:
            self.resolved[key] = list(value) if isinstance(value, tuple) else value
        return value

    def number(self, key, default, *, positive=False, low=None, high=None,
               integer=False):
        path, value = self._get(key, default)
        if integer:
            _expect(isinstance(value, int) and not isinstance(value, bool),
                    path, f"expected an integer, got {value!r}")
        else:
            value = _finite(value, path)
        if positive:
            _expect(value > 0.0, path, f"must be > 0.0, got {value}")
        if low is not None:
            _expect(value >= low, path, f"must be >= {low}, got {value}")
        if high is not None:
            _expect(value <= high, path, f"must be <= {high}, got {value}")
        return self._keep(key, value)

    def flag(self, key, default: bool) -> bool:
        path, value = self._get(key, default)
        _expect(isinstance(value, bool), path, f"expected true/false, got {value!r}")
        return self._keep(key, value)

    def choice(self, key, default, options: tuple):
        path, value = self._get(key, default)
        _expect(value in options, path,
                f"must be one of {'/'.join(options)}, got {value!r}")
        return self._keep(key, value)

    def float_list(self, key, default, *, scalar=False) -> tuple[float, ...]:
        """A nonempty list of finite numbers; ``scalar`` also takes one number."""
        path, value = self._get(key, default)
        if scalar and _is_number(value):
            value = [value]
        _expect(isinstance(value, (list, tuple)) and len(value) > 0,
                path, f"expected a nonempty list, got {value!r}")
        return self._keep(key, tuple(_finite(v, f"{path}[{i}]")
                                     for i, v in enumerate(value)))


def _parse_data(raw_data: dict, experiment: str) -> tuple[str, PresetParams, dict]:
    probe = experiment == "layer-decay"  # a plain Gaussian, no preset kind
    reader = _Reader(raw_data, {"kind"}, "data.")
    kind = "generic" if probe else reader.choice("kind", "generic", PRESET_KINDS)
    reader.only(_DATA_READS, experiment if probe else kind)
    params = {}
    for f in fields(PresetParams):
        if isinstance(f.default, tuple):
            params[f.name] = reader.float_list(f.name, f.default, scalar=True)
        else:
            params[f.name] = reader.number(f.name, f.default,
                                           **_DATA_BOUNDS.get(f.name, {}))
    return kind, PresetParams(**params), reader.resolved


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object and fill documented defaults."""
    _expect(isinstance(raw, dict), "$", "top-level config must be an object")
    read = _Reader(raw, {"experiment"})
    experiment = read.choice("experiment", None, EXPERIMENTS)
    read.only(_READS, experiment)

    epsilon = read.number("epsilon", 1.0, positive=True, high=1.0)
    T = read.number("T", 0.5, positive=True)
    dt0 = read.number("dt0", SimConfig.dt0, positive=True)
    c_lambda = read.number("c_lambda", SimConfig.c_lam, positive=True)
    m = read.number("m", SimConfig.m, low=0, integer=True)
    dimension = read.number("dimension", 1, integer=True)
    _checked("dimension", _check_dimension, dimension)
    N = read.number("N", 1024, integer=True)
    _checked("N", _check_size, N)
    _expect(16 * N**dimension <= np.iinfo(np.intp).max, "N",
            f"N^{dimension} = {N**dimension} complex points exceed numpy's size limit")
    L = read.number("L", DEFAULT_L, positive=True)
    dealias = read.flag("dealias", SimConfig.dealias)
    num_samples = read.number("num_samples", DEFAULT_NUM_SAMPLES, low=2, integer=True)
    solver = read.choice("solver", "qz", ("qz", "qmnls"))

    if experiment == "sweep":
        lambdas = read.float_list("lambdas", [4.0, 8.0, 16.0, 32.0, 64.0])
        _checked("lambdas", harness._check_ladder, lambdas)
        _checked("lambdas", harness._check_rate_lams, lambdas)
        # a repeated lam would run twice and count twice in the rate fit
        _expect(len(set(lambdas)) == len(lambdas), "lambdas",
                f"a sweep needs strictly increasing entries, got {list(lambdas)}")
    else:  # one lam >= 1 passes harness._check_ladder
        lambdas = (read.number("lambda", 4.0, low=1.0),)

    raw_data = raw.get("data", {})
    _expect(isinstance(raw_data, dict), "data", "expected an object")
    if experiment == "layer-decay":
        # Plain probe Gaussian; default width sized so the default probe
        # horizon stays inside the box.
        raw_data = {"width": 4.5, **raw_data}
    kind, params, read.resolved["data"] = _parse_data(raw_data, experiment)

    dt_list = read.float_list("dt_list", [4e-3, 2e-3, 1e-3, 2.5e-4])
    tolerance = read.number("tolerance", 1e-5, positive=True)
    lambda_times = read.float_list(
        "lambda_times", [0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0])
    probe_points = read.float_list("probe_points", [0.0, 1.0, 2.0, 20.0, 30.0, 40.0])
    k_max = read.number("k_max", 2, low=0, integer=True)

    if experiment == "oracle-check":
        _checked("N", dynamics._check_oracle_size, N)
    if experiment == "layer-decay":
        for i, t in enumerate(lambda_times):
            _checked(f"lambda_times[{i}]", layer._check_probe_time, t)
        _checked("dimension", layer._check_probe_dimension, dimension)
        for i, p in enumerate(probe_points):
            _checked(f"probe_points[{i}]", layer._check_probe_point, p, L)
    if experiment == "self-converge":
        _checked("dt_list", harness._check_dt_list, dt_list)
        for i, dt in enumerate(dt_list):
            _checked(f"dt_list[{i}]", harness._check_dt_divides, dt, T)
            # each dt_list march lands on T alone
            _checked(f"dt_list[{i}]", harness._check_steps, T, dt, 1)

    grid = make_grid(dimension, N, L)
    # each Gaussian the run builds, named by its center, width and amplitude
    # keys: the envelope, and for generic data the n0 and n1 bumps
    generic = kind == "generic" and experiment != "layer-decay"
    bumps = ("", "n_", "n1_") if generic else ("",)
    for bump in bumps:
        _checked(f"data.{bump}center", _padded_center, grid,
                 getattr(params, f"{bump}center"))
        _checked(f"data.{bump}width", check_resolution, grid,
                 getattr(params, f"{bump}width"), getattr(params, f"{bump}center"),
                 params)
        if experiment != "layer-decay":  # the probe never squares its Gaussian
            _checked(f"data.{bump}amplitude", check_amplitude, grid, params, f"{bump}amplitude")
    for key in ("k0", "chirp", "n_k0") if generic else ("k0", "chirp"):
        _checked(f"data.{key}", check_carrier, grid, params, key)
    if experiment == "layer-decay":
        _checked("k_max", layer._check_k_max, grid, k_max)
        f0 = real_field(grid, _gaussian(grid, params.amplitude, params.width,
                                        params.center))
        _checked("data.amplitude", layer._check_probe_data, f0)
        _checked("lambda_times", layer._check_horizon, f0, to_spectral(f0), epsilon,
                 max(lambda_times))

    out_dir = raw.get("out_dir")
    _expect(out_dir is None or (isinstance(out_dir, str) and out_dir != ""),
            "out_dir", f"expected a nonempty string, got {out_dir!r}")
    read.resolved["out_dir"] = out_dir

    sim = SimConfig(eps=epsilon, lam=lambdas[0], T=T,
                    grid=grid, dt0=dt0, c_lam=c_lambda,
                    m=m, dealias=dealias,
                    sample_times=tuple(np.linspace(0.0, T, num_samples)))

    if experiment in ("simulate", "sweep", "oracle-check"):
        # the finest step is that of the largest lam, set by dt0 or by lam;
        # the oracle check's split march lands on T alone
        finest = replace(sim, lam=lambdas[-1]).dt
        lam_key = "lambdas" if experiment == "sweep" else "lambda"
        _checked("dt0" if finest == dt0 else lam_key, harness._check_steps, T, finest,
                 1 if experiment == "oracle-check" else num_samples)

    return ExperimentConfig(
        experiment=experiment, sim=sim, data_kind=kind, data_params=params,
        lambdas=lambdas, solver=solver, dt_list=dt_list, tolerance=tolerance,
        lambda_times=lambda_times, probe_points=probe_points, k_max=k_max,
        out_dir=out_dir, resolved=read.resolved)


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
