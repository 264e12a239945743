"""The benchmark's tracer looks qzak functions up by name; a rename that
drops one must fail here rather than silently break ``--trace 1``."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
tracing = importlib.import_module("tracing")


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
