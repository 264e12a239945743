"""Warm per-call timings of single layers on the workload seed's inputs.

d=1 probes use the sweep-1d data (N=1024) and d=2 probes the
simulate-2d data (N=256), both generated from the run's seed, so every
traced run reports every layer whatever its workload.
"""

from __future__ import annotations

import time
from statistics import median

from workloads import WORKLOADS

REPEATS = 7
MIN_BATCH_S = 0.02


def per_call_s(fn) -> float:
    """Median seconds per call over REPEATS batches of at least MIN_BATCH_S."""
    fn()
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= MIN_BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return median(samples)


def _inputs(seed: int):
    """(sim, initial data) of the sweep-1d and simulate-2d configs."""
    from qzak.config import resolve_config
    from qzak.state import preset_initial_data

    out = []
    for workload in ("sweep-1d", "simulate-2d"):
        cfg = resolve_config(WORKLOADS[workload].config(seed))
        sim = cfg.sim
        out.append((sim, preset_initial_data(cfg.data_kind, cfg.data_params,
                                             sim.grid, sim.eps)))
    return out


def kernel_build_s(state, sim) -> float:
    """First qz_step at a fresh dt minus a warm step at that dt, median."""
    from qzak.dynamics import qz_step

    samples = []
    for i in range(5):
        # A dt no march or earlier probe uses, so the kernel cache misses.
        dt = sim.dt * (1.0 - 1e-6 * (i + 1))
        start = time.perf_counter()
        qz_step(state, dt, sim.eps, sim.lam)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        qz_step(state, dt, sim.eps, sim.lam)
        samples.append(cold - (time.perf_counter() - start))
    return median(samples)


def fft_per_call(fn, tracer) -> tuple[int, float]:
    """FFT calls and computed MB of one call, read from the FFT counter."""
    calls, nbytes = tracer.counts["fft.calls"], tracer.counts["fft.bytes"]
    fn()
    return (tracer.counts["fft.calls"] - calls,
            (tracer.counts["fft.bytes"] - nbytes) / 1e6)


def timed_probes(seed: int) -> dict:
    """Per-call times of the kernels and measurements, tracing off."""
    from qzak.diagnostics import hamiltonian_qz, spectral_tail
    from qzak.dynamics import qmnls_step, qz_step
    from qzak.layer import layer_initial_fields, q0_exact, q_field
    from qzak.norms import sobolev_norm
    from qzak.state import SchrodingerState

    (sim1, data1), (sim2, data2) = _inputs(seed)
    s1, s2 = data1.initial_state(), data2.initial_state()
    schrod1 = SchrodingerState(t=0.0, E=data1.E0)
    f0, _ = layer_initial_fields(data1, sim1.eps)
    t = 0.5 * sim1.T
    return {
        "dynamics.qz_step_us.d1": 1e6 * per_call_s(
            lambda: qz_step(s1, sim1.dt, sim1.eps, sim1.lam)),
        "dynamics.qz_step_us.d2": 1e6 * per_call_s(
            lambda: qz_step(s2, sim2.dt, sim2.eps, sim2.lam)),
        "dynamics.qmnls_step_us.d1": 1e6 * per_call_s(
            lambda: qmnls_step(schrod1, sim1.dt, sim1.eps)),
        "dynamics.kernel_build_ms.d2": 1e3 * kernel_build_s(s2, sim2),
        "layer.q_field_us": 1e6 * per_call_s(lambda: q_field(s1, sim1.eps)),
        "layer.q0_exact_us": 1e6 * per_call_s(
            lambda: q0_exact(t, sim1.lam, sim1.eps, f0)),
        "norms.sobolev_norm_us": 1e6 * per_call_s(
            lambda: sobolev_norm(data1.E0, sim1.m)),
        "diagnostics.spectral_tail_us": 1e6 * per_call_s(
            lambda: spectral_tail(data1.E0, 2.0 / 3.0)),
        "diagnostics.hamiltonian_qz_ms.d2": 1e3 * per_call_s(
            lambda: hamiltonian_qz(s2, sim2.eps, sim2.lam)),
    }


def counted_probes(seed: int, tracer) -> dict:
    """FFT counts per step; the tracer's FFT counter must be installed."""
    from qzak.dynamics import qmnls_step, qz_step
    from qzak.state import SchrodingerState

    (sim1, data1), (sim2, data2) = _inputs(seed)
    s1, s2 = data1.initial_state(), data2.initial_state()
    schrod1 = SchrodingerState(t=0.0, E=data1.E0)
    qz1, mb1 = fft_per_call(lambda: qz_step(s1, sim1.dt, sim1.eps, sim1.lam), tracer)
    _, mb2 = fft_per_call(lambda: qz_step(s2, sim2.dt, sim2.eps, sim2.lam), tracer)
    qm1, _ = fft_per_call(lambda: qmnls_step(schrod1, sim1.dt, sim1.eps), tracer)
    return {"dynamics.fft_calls_per_qz_step": qz1,
            "dynamics.fft_calls_per_qmnls_step": qm1,
            "dynamics.fft_mb_per_qz_step.d1": mb1,
            "dynamics.fft_mb_per_qz_step.d2": mb2}
