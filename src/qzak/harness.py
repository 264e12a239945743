"""Sweep experiments measuring the approach to the subsonic limit.

A sweep runs the coupled solver across a ladder of sound speeds against
one limit-equation reference computed with the same step-size law as the
slowest run, so that splitting bias is common mode and the fitted
log-log slopes measure the lam asymptotics alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import _mass, _spectral_tail, drift
from .errors import DegenerateInputError, ParameterError
from .field import Field, _forward_factor, to_spectral
from .norms import _sobolev_norm, l2_norm
from .dynamics import oracle_evolve, qmnls_evolve, qz_evolve
from .operators import potential_symbol, wave_cos
from .state import InitialData, SimConfig, q_field

@dataclass(frozen=True)
class SweepRecord:
    """Per-lam measurements of one sweep run."""

    lam: float
    dt: float
    sup_err_E_Hm: float
    sup_err_Q_Hm: float
    sup_Q_Hm: float
    walltime_s: float
    max_tail_E: float
    mass_drift: float

    def __post_init__(self):
        if min(self.sup_err_E_Hm, self.sup_err_Q_Hm, self.sup_Q_Hm) < 0.0:
            raise ParameterError("sweep errors must be nonnegative")


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log lam, log error)."""

    slope: float
    intercept: float
    residual: float
    lambdas: tuple[float, ...]


def _run_one_lambda(config: SimConfig, data: InitialData, m: int,
                    reference_E: list[np.ndarray], f0_hat: np.ndarray) -> SweepRecord:
    """March one lam, measuring each sample on the march's live arrays with
    four transforms: E - E_ref (differenced in physical space), E, n and
    |E|^2. Q and the layer cos(lam t omega_eps) f0 are formed from
    coefficients, and only running maxima and the masses are kept."""
    start = time.perf_counter()
    grid, eps, lam = config.grid, config.eps, config.lam
    factor = _forward_factor(grid)
    potential = potential_symbol(grid, eps)
    reference = iter(reference_E)
    sup_err_E = sup_err_Q = sup_Q = max_tail = 0.0
    masses = []

    def measure(t: float, arrays: tuple) -> None:
        nonlocal sup_err_E, sup_err_Q, sup_Q, max_tail
        E, n, _ = arrays
        diff_hat = np.fft.fftn(E - next(reference)) * factor
        sup_err_E = max(sup_err_E, _sobolev_norm(grid, diff_hat, m))
        S = np.abs(E) ** 2
        Q_hat = (np.fft.fftn(n) + potential * np.fft.fftn(S)) * factor
        sup_Q = max(sup_Q, _sobolev_norm(grid, Q_hat, m))
        Q_hat -= f0_hat * wave_cos(grid, eps, lam, t)
        sup_err_Q = max(sup_err_Q, _sobolev_norm(grid, Q_hat, m))
        max_tail = max(max_tail, _spectral_tail(grid, np.fft.fftn(E) * factor, 2.0 / 3.0))
        masses.append(_mass(grid, S))

    qz_evolve(config, data, sink=measure)
    return SweepRecord(lam=lam, dt=config.dt,
                       sup_err_E_Hm=sup_err_E, sup_err_Q_Hm=sup_err_Q,
                       sup_Q_Hm=sup_Q, walltime_s=time.perf_counter() - start,
                       max_tail_E=max_tail, mass_drift=drift(masses))


def lambda_sweep(config: SimConfig, data: InitialData, lambdas,
                 m: int) -> list[SweepRecord]:
    """Run the ladder of sound speeds, in order, against one common reference.

    The reference uses the step-size law of the smallest lam so its
    discretization bias is shared by every run.
    """
    lambdas = [float(l) for l in lambdas]
    if not lambdas or lambdas != sorted(lambdas) or any(l < 1.0 for l in lambdas):
        raise ParameterError("lambda list must be nonempty and sorted with every "
                             "entry >= 1")
    if data.grid != config.grid:
        raise ParameterError("data grid does not match config grid")

    reference_E = []
    qmnls_evolve(replace(config, lam=lambdas[0]), data.E0,
                 sink=lambda t, arrays: reference_E.append(arrays[0].copy()))
    f0_hat = to_spectral(q_field(data.initial_state(), config.eps))

    return [_run_one_lambda(replace(config, lam=lam), data, m, reference_E, f0_hat)
            for lam in lambdas]


def fit_rate(records: list[SweepRecord], which: str = "E-error") -> RateFit:
    """Fit log(error) against log(lam); residual is the max |deviation|."""
    if which == "E-error":
        errors = [r.sup_err_E_Hm for r in records]
    elif which == "Q-error":
        errors = [r.sup_err_Q_Hm for r in records]
    elif which == "Q-norm":
        errors = [r.sup_Q_Hm for r in records]
    else:
        raise ParameterError(f"which must be 'E-error', 'Q-error' or 'Q-norm', got {which!r}")
    lams = [r.lam for r in records]
    if len(set(lams)) < 3:
        raise DegenerateInputError("rate fit needs at least 3 distinct lam")
    if any(e <= 0.0 for e in errors):
        raise DegenerateInputError("rate fit needs strictly positive errors")
    xs = np.log(lams)
    ys = np.log(errors)
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.max(np.abs(ys - (slope * xs + intercept))))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=residual, lambdas=tuple(lams))


@dataclass(frozen=True)
class SelfConvergence:
    """Step-refinement study against the finest-dt reference."""

    dts: tuple[float, ...]
    errors: tuple[float, ...]
    order: float


def self_convergence(config: SimConfig, data: InitialData, dt_list,
                     target: str = "qz") -> SelfConvergence:
    """Measure the splitting order from final states at T.

    The last entry of dt_list is the reference; every dt must divide T.
    """
    if target not in ("qz", "qmnls"):
        raise ParameterError(
            f"self-convergence target must be 'qz' or 'qmnls', got {target!r}")
    dts = [float(dt) for dt in dt_list]
    if len(dts) < 4:
        raise ParameterError("dt list needs >= 4 entries (>= 3 plus the reference)")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ParameterError("dt list must be strictly decreasing")
    for dt in dts:
        steps = config.T / dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ParameterError(f"dt {dt} does not divide T = {config.T}")

    def final_E(dt: float) -> np.ndarray:
        run = replace(config, dt0=dt, c_lam=dt * config.lam,
                      sample_times=(config.T,))
        if target == "qz":
            return qz_evolve(run, data).final_state().E.values
        return qmnls_evolve(run, data.E0).final_state().E.values

    reference = final_E(dts[-1])
    errors = []
    for dt in dts[:-1]:
        errors.append(l2_norm(Field(config.grid, final_E(dt) - reference)))
    if min(errors) <= 0.0:
        # exact substeps (e.g. purely linear data) leave nothing to fit
        return SelfConvergence(dts=tuple(dts[:-1]), errors=tuple(errors),
                               order=float("nan"))
    xs = np.log(dts[:-1])
    ys = np.log(errors)
    order = float(np.polyfit(xs, ys, 1)[0])
    return SelfConvergence(dts=tuple(dts[:-1]), errors=tuple(errors), order=order)


def oracle_discrepancy(config: SimConfig, data: InitialData) -> float:
    """L^2 distance between the split final state and the RK4 oracle's."""
    split = qz_evolve(replace(config, sample_times=(config.T,)), data).final_state()
    reference = oracle_evolve(config, data)
    diff = Field(config.grid, split.E.values - reference.E.values)
    n_diff = Field(config.grid, split.n.values - reference.n.values)
    return float(np.hypot(l2_norm(diff), l2_norm(n_diff)))
