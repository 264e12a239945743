"""The benchmark's tracer looks qzak functions up by name; a rename that
drops one must fail here rather than silently break ``--trace 1``."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
tracing = importlib.import_module("tracing")
workloads = importlib.import_module("workloads")


# probes.py calls the single steps directly.
@pytest.mark.parametrize("name", tracing.SPANNED + tracing.COUNTED
                         + ("dynamics.qz_step", "dynamics.qmnls_step"))
def test_traced_name_resolves(name):
    module, _, function = name.partition(".")
    assert callable(getattr(importlib.import_module(f"qzak.{module}"), function))


def test_field_class_exists():
    from qzak.field import Field

    assert isinstance(Field, type)


def test_traced_march_takes_the_counted_steps():
    # The tracer divides qz_evolve's span by count_steps; the march must
    # take exactly those steps, including the short ones that land on
    # sample times dt does not divide.
    import numpy as np
    from qzak import PresetParams, SimConfig, make_grid, preset_initial_data
    from qzak import dynamics
    from workloads import count_steps

    grid = make_grid(1, 256, 20.0 * np.pi)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.1, grid=grid, dt0=0.03, c_lam=0.2,
                    sample_times=(0.0, 0.05, 0.1))
    params = PresetParams(amplitude=0.4, width=2.0, n_amplitude=0.5, n_width=2.2,
                          n_center=(0.0,), n1_amplitude=0.3, n1_width=2.0,
                          n1_center=(-2.0,))
    data = preset_initial_data("generic", params, grid, eps=1.0)
    steps = count_steps(cfg.dt0, cfg.c_lam, cfg.lam, cfg.T, cfg.sample_times)
    assert steps == 4
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches)
    try:
        before = tracer.counts["fft.calls"]
        dynamics.qz_step(data.initial_state(), cfg.dt, cfg.eps, cfg.lam)
        ffts_per_step = tracer.counts["fft.calls"] - before
        before = tracer.counts["fft.calls"]
        traj = dynamics.qz_evolve(cfg, data)
        march_ffts = tracer.counts["fft.calls"] - before
    finally:
        patches.restore()
    assert traj.times == list(cfg.sample_times)
    assert tracer.counts["dynamics.qz_evolve.steps"] == steps
    assert tracer.counts["dynamics.trajectory_bytes"] > 0
    # a tracer that saw no FFT would pass the equality below as 0 == 0
    assert ffts_per_step > 0
    assert march_ffts == steps * ffts_per_step


_TINY_DATA = {"kind": "generic", "amplitude": 0.4, "width": 2.0,
              "n_amplitude": 0.5, "n_width": 2.2, "n1_amplitude": 0.3,
              "n1_width": 2.0, "n1_center": [-2.0]}
_TINY_RUNS = {
    "simulate": {"experiment": "simulate", "N": 256, "L": 20.0 * 3.141592653589793,
                 "T": 0.02, "lambda": 8.0, "num_samples": 3, "data": _TINY_DATA},
    "sweep": {"experiment": "sweep", "N": 256, "L": 20.0 * 3.141592653589793,
              "T": 0.02, "num_samples": 3, "lambdas": [4.0, 8.0, 16.0],
              "data": _TINY_DATA},
}


@pytest.mark.parametrize("command", sorted(_TINY_RUNS))
def test_traced_cli_run_yields_layer_metrics(tmp_path, command):
    # --trace 1 divides the qz_evolve span by the steps counted on
    # qz_evolve: a CLI path that stops calling it breaks the trace.
    import json

    from qzak.cli import run_cli

    path = tmp_path / "config.json"
    path.write_text(json.dumps(_TINY_RUNS[command]))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches)
    try:
        with tracer.operation(0), tracer.span("cli.run_cli"):
            code = run_cli(argv)
    finally:
        patches.restore()
    assert code == 0
    assert tracer.counts["dynamics.qz_evolve.steps"] > 0
    layers = tracing.operation_layers(tracer.spans, tracer.counts, samples=3)
    assert layers["dynamics.qz_evolve_us_per_step"] > 0.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_resolves(name, seed):
    # A key the config stops accepting (m for self-converge, say) would fail
    # every operation of the workload.
    from qzak.config import resolve_config

    workload = workloads.WORKLOADS[name]
    assert resolve_config(workload.config(seed)).experiment == workload.command
