"""Pseudo-spectral solvers and experiments for the quantum Zakharov
system and its subsonic (large sound speed) limit on periodic boxes."""

__version__ = "0.1.0"

from .grid import Grid, make_grid
from .field import Field, complex_field, real_field, to_spectral
from .operators import apply_multiplier
from .norms import l2_norm, sobolev_norm
from .state import (InitialData, PresetParams, SchrodingerState, SimConfig,
                    ZakharovState, compatibility_defect, preset_initial_data)
from .dynamics import (Trajectory, oracle_evolve, qmnls_evolve, qmnls_step,
                       qz_evolve, qz_step)
from .layer import DecayProbeReport, decay_probe, q0_exact, q_field
from .diagnostics import hamiltonian_qz, mass, spectral_tail
from .harness import (RateFit, SelfConvergence, SweepRecord, fit_rate,
                      lambda_sweep, oracle_discrepancy, self_convergence)
from .config import ExperimentConfig, parse_config
from .cli import run_cli

__all__ = [
    "Grid", "make_grid",
    "Field", "real_field", "complex_field", "to_spectral",
    "apply_multiplier",
    "l2_norm", "sobolev_norm",
    "SimConfig", "ZakharovState", "SchrodingerState", "InitialData",
    "PresetParams", "preset_initial_data", "compatibility_defect",
    "Trajectory", "qz_step", "qz_evolve", "qmnls_step", "qmnls_evolve",
    "oracle_evolve",
    "q_field", "q0_exact", "decay_probe", "DecayProbeReport",
    "mass", "hamiltonian_qz", "spectral_tail",
    "SweepRecord", "RateFit", "SelfConvergence", "lambda_sweep", "fit_rate",
    "self_convergence", "oracle_discrepancy",
    "ExperimentConfig", "parse_config", "run_cli",
]
