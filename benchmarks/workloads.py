"""Workload definitions: what each one runs, why it exists, and the
layer-metric -> end-to-end-metric map that later changes cite by name.

One operation is one fresh process running a ``qzak`` subcommand to
completion on a config this module generates from the workload seed.
Seed 0 reproduces the repository's committed configs exactly (the
simulate workload applies the overrides listed below); any other seed
jitters the Gaussian data parameters within ranges that stay resolved
on the workload's grid, so no operation fails its resolution checks.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import Callable

_GENERIC_1D_DATA = {
    "kind": "generic",
    "amplitude": 0.25,
    "width": 1.75,
    "n_amplitude": 0.5,
    "n_width": 2.2,
    "n_k0": 1.6,
    "n_center": [0.0],
    "n1_amplitude": 0.3,
    "n1_width": 2.0,
    "n1_center": [-2.0],
}

# configs/sweep_generic.json at the commit that introduced the benchmark.
_SWEEP_GENERIC = {
    "experiment": "sweep",
    "epsilon": 1.0,
    "T": 0.5,
    "dt0": 0.001,
    "c_lambda": 0.2,
    "m": 2,
    "dimension": 1,
    "N": 1024,
    "L": 125.66370614359172,
    "num_samples": 64,
    "lambdas": [4.0, 8.0, 16.0, 32.0, 64.0],
    "data": _GENERIC_1D_DATA,
}

# configs/self_converge.json at the same commit.
_SELF_CONVERGE = {
    "experiment": "self-converge",
    "epsilon": 1.0,
    "T": 0.5,
    "lambda": 8.0,
    "m": 2,
    "dimension": 1,
    "N": 1024,
    "L": 125.66370614359172,
    "dt_list": [0.004, 0.002, 0.001, 0.00025],
    "data": _GENERIC_1D_DATA,
}

# configs/simulate.json with dimension=2, N=256, L=16*pi, num_samples=64,
# T=0.05: 63 steps, every one landing on a sample time.
_SIMULATE_2D = {
    "experiment": "simulate",
    "epsilon": 1.0,
    "T": 0.05,
    "lambda": 16.0,
    "dimension": 2,
    "N": 256,
    "L": 16.0 * math.pi,
    "num_samples": 64,
    "data": {"kind": "compatible", "amplitude": 0.8, "width": 2.0},
}

# Jitter applied for seeds other than 0. Scale factors multiply the
# committed value; shifts are added to every center coordinate. The
# narrowest jittered width keeps >= 9 points per width on both grids
# (the resolution check asks for 8) and every bump stays > 10 widths
# from the box edge.
_SCALED = ("amplitude", "width", "n_amplitude", "n_width",
           "n1_amplitude", "n1_width")
_SCALE = (0.9, 1.1)
_SHIFT = (-1.0, 1.0)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the reason it exists."""

    name: str
    command: str          # the qzak subcommand
    base: dict            # the committed config (seed 0)
    why: str
    samples_measured: Callable[[dict], int]   # samples the experiment measures

    def config(self, seed: int) -> dict:
        """The config the program receives for this seed."""
        cfg = copy.deepcopy(self.base)
        if seed == 0:
            return cfg
        rng = random.Random(f"{self.name}:{seed}")
        data = cfg["data"]
        for key in _SCALED:
            if key in data:
                data[key] *= rng.uniform(*_SCALE)
        centers = ["center"] + [k for k in ("n_center", "n1_center") if k in data]
        for key in centers:
            base = list(data.get(key, [0.0]))
            base += [0.0] * (cfg["dimension"] - len(base))
            data[key] = [c + rng.uniform(*_SHIFT) for c in base]
        return cfg


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep-1d", "sweep", _SWEEP_GENERIC,
            why=("5 lam x 504 coupled steps, a 504-step limit reference and "
                 "320 per-sample H^m measurements through the default thread "
                 "pool: ladder batching, the lean step and measurement all "
                 "show here"),
            samples_measured=lambda cfg: len(cfg["lambdas"]) * cfg["num_samples"]),
        Workload(
            "selfconv-1d", "self-converge", _SELF_CONVERGE,
            why=("2,875 coupled steps at one lam with one sample and no "
                 "reference, pool or ladder: a faster step shows in full, "
                 "measurement, batching or pool changes should not"),
            samples_measured=lambda cfg: len(cfg["dt_list"]) - 1),
        Workload(
            "simulate-2d", "simulate", _SIMULATE_2D,
            why=("63 d=2 N=256 steps, each landing on a sample, 7 landing "
                 "kernels, a 64-snapshot trajectory and ~128 MB of snapshots: "
                 "memory, outputs, 2-D FFTs and kernel builds"),
            samples_measured=lambda cfg: cfg["num_samples"]),
    )
}

# Which end-to-end metric each per-layer metric should move, and on
# which workload. "-" marks a workload where the metric should not move.
LAYER_MAP = {
    "cli.import_ms": ("setup_s", "all workloads"),
    "config.resolve_ms": ("setup_s", "all workloads"),
    "state.preset_ms": ("setup_s", "all workloads, largest on simulate-2d"),
    "dynamics.qz_step_us.d1": ("wall_s, cpu_s", "selfconv-1d, sweep-1d"),
    "dynamics.qz_step_us.d2": ("wall_s, cpu_s", "simulate-2d"),
    "dynamics.qmnls_step_us.d1": ("wall_s, cpu_s", "sweep-1d only"),
    "dynamics.qz_evolve_us_per_step": (
        "wall_s", "every workload; its gap to qz_step_us is march and "
                  "snapshot overhead, so sweep-1d more than selfconv-1d"),
    "dynamics.kernel_build_ms.d2": ("wall_s", "simulate-2d"),
    "dynamics.fft_calls_per_qz_step": ("cpu_s", "all workloads"),
    "dynamics.fft_calls_per_qmnls_step": ("cpu_s", "all workloads"),
    "dynamics.fft_mb_per_qz_step.d1": ("cpu_s", "selfconv-1d, sweep-1d"),
    "dynamics.fft_mb_per_qz_step.d2": ("cpu_s", "simulate-2d"),
    "dynamics.trajectory_mb": ("peak_rss_mb", "simulate-2d"),
    "harness.lambda_sweep_s": ("wall_s vs cpu_s", "sweep-1d; - selfconv-1d"),
    "harness.reference_s": ("wall_s vs cpu_s", "sweep-1d; - selfconv-1d"),
    "harness.march_s": ("wall_s vs cpu_s", "sweep-1d; - selfconv-1d"),
    "harness.measure_us_per_sample": ("wall_s vs cpu_s", "sweep-1d; - selfconv-1d"),
    "harness.pool_overlap": ("wall_s vs cpu_s", "sweep-1d; - selfconv-1d"),
    "layer.q_field_us": ("wall_s, cpu_s", "sweep-1d"),
    "layer.q0_exact_us": ("wall_s, cpu_s", "sweep-1d"),
    "norms.sobolev_norm_us": ("wall_s, cpu_s", "sweep-1d"),
    "norms.sobolev_norm_calls": ("wall_s, cpu_s", "sweep-1d"),
    "diagnostics.spectral_tail_us": ("wall_s, cpu_s", "sweep-1d"),
    "diagnostics.hamiltonian_qz_ms.d2": ("wall_s, cpu_s", "simulate-2d"),
    "field.field_constructions": ("cpu_s", "sweep-1d, simulate-2d"),
    "field.copied_mb": ("cpu_s", "sweep-1d, simulate-2d"),
    "operators.apply_multiplier_calls": ("cpu_s", "sweep-1d, simulate-2d"),
    "outputs.write_ms": ("wall_s", "simulate-2d"),
    "outputs.bytes_written": ("wall_s", "simulate-2d"),
    "mem.peak_alloc_mb": ("peak_rss_mb", "all workloads"),
}


def count_steps(dt0: float, c_lam: float, lam: float, T: float,
                sample_times) -> int:
    """Steps a march takes under the documented dt law and landing rule.

    dt = min(dt0, c_lam / lam); the march never steps past a sample time
    and shortens the step that lands on one.
    """
    tol0 = 1e-12
    dt = min(dt0, c_lam / lam)
    targets = list(sample_times)
    if not targets or abs(targets[-1] - T) > tol0:
        targets.append(T)
    if targets[0] <= tol0:
        targets = targets[1:]
    tol = tol0 * max(1.0, T)
    t = 0.0
    steps = 0
    for target in targets:
        while t < target - tol:
            t += min(dt, target - t)
            steps += 1
        t = target
    return steps
