"""Pseudo-spectral solvers and experiments for the quantum Zakharov
system and its subsonic (large sound speed) limit on periodic boxes."""

__version__ = "0.1.0"

import os

# qzak calls no BLAS or LAPACK routine, yet numpy's bundled OpenBLAS
# starts nproc - 1 worker threads when it loads, and each spins before it
# sleeps. On a 2-vCPU host a fresh `qzak sweep` of
# configs/sweep_generic.json used 0.78 s of CPU with that pool and 0.66 s
# without it (medians of 10 alternating runs), and `qzak self-converge`
# 0.84 s against 0.74 s. OpenBLAS reads the variable once, when it loads,
# so this line must run before the first import of numpy below. setdefault
# keeps a value the user set. It does nothing if numpy was imported before
# qzak, or if numpy is linked to a BLAS other than OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .grid import Grid, make_grid
from .field import Field, complex_field, real_field, to_spectral
from .operators import apply_multiplier
from .norms import l2_norm, sobolev_norm
from .state import (InitialData, PresetParams, SchrodingerState, SimConfig,
                    ZakharovState, preset_initial_data)
from .dynamics import (Trajectory, oracle_evolve, qmnls_evolve, qmnls_step,
                       qz_evolve, qz_step)
from .layer import DecayProbeReport, decay_probe, q0_exact, q_field
from .diagnostics import hamiltonian_qz, mass, spectral_tail
from .harness import (RateFit, SelfConvergence, SweepRecord, fit_rate,
                      lambda_sweep, oracle_discrepancy, self_convergence)
from .config import ExperimentConfig
from .cli import run_cli

__all__ = [
    "Grid", "make_grid",
    "Field", "real_field", "complex_field", "to_spectral",
    "apply_multiplier",
    "l2_norm", "sobolev_norm",
    "SimConfig", "ZakharovState", "SchrodingerState", "InitialData",
    "PresetParams", "preset_initial_data",
    "Trajectory", "qz_step", "qz_evolve", "qmnls_step", "qmnls_evolve",
    "oracle_evolve",
    "q_field", "q0_exact", "decay_probe", "DecayProbeReport",
    "mass", "hamiltonian_qz", "spectral_tail",
    "SweepRecord", "RateFit", "SelfConvergence", "lambda_sweep", "fit_rate",
    "self_convergence", "oracle_discrepancy",
    "ExperimentConfig", "run_cli",
]
