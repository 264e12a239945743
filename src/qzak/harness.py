"""Sweep experiments measuring the approach to the subsonic limit.

A sweep runs the coupled solver across a ladder of sound speeds against
one limit-equation reference marched with the same step-size law as the
slowest run, so that splitting bias is common mode and the fitted
log-log slopes measure the lam asymptotics alone. The reference steps
in lockstep with the coupled march and none of its samples is stored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter

import numpy as np

from .diagnostics import _fit_line, _mass, _outer_modes, _spectral_tail, drift
from .errors import DegenerateInputError, ParameterError
from .field import Field, _forward_factor, _transforms, to_spectral
from .norms import _sobolev_norm, _sobolev_weight, l2_norm
from .dynamics import _march, _qmnls_advance, oracle_evolve, qmnls_evolve, qz_evolve
from .operators import omega_eps, potential_symbol
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
    steps: int

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


def _run_group(config: SimConfig, data: InitialData, m: int, lams: tuple,
               reference: SimConfig, f0_hat: np.ndarray) -> list[SweepRecord]:
    """March the lams of one step size as one batch, measuring each sample
    of every row on the march's live arrays against the sample of a fresh
    limit march on the reference config, stepped in lockstep.

    Each sample costs one transform call on the stack of E - E_ref
    (differenced in physical space), n, |E|^2 and E, each row of which
    keeps the bits of a lone transform. Q and the layer
    cos(lam t omega_eps) f0 are formed from coefficients, and only
    running maxima and the masses are kept. The Sobolev weight, the tail
    modes, omega_eps and every grid-sized work array are built once per
    group, and each sample is reduced over the rows of the batch at
    once; every row sums to the bits of a lone field. Every record
    carries the batch's wall time: its march, the group's reference
    march and the measurement of its samples.
    """
    start = time.perf_counter()
    grid, eps = config.grid, config.eps
    fft, _, _ = _transforms(grid)
    factor = _forward_factor(grid)
    potential = potential_symbol(grid, eps)
    weight = _sobolev_weight(grid, m)
    outer = _outer_modes(grid, 2.0 / 3.0)
    om = omega_eps(grid, eps)
    lam_column = np.reshape(lams, (-1,) + (1,) * grid.d)
    reference_march = _march(reference, *_qmnls_advance(grid, eps, reference.dealias,
                                                        (data.E0.values,)))
    sup_err_E, sup_err_Q, sup_Q, max_tail = (np.zeros(len(lams)) for _ in range(4))
    masses = []
    # The work arrays of every sample. The rows of X are transformed by
    # one call; the real fields n and |E|^2 go in with zero imaginary
    # parts, which gives the bits of their real transforms. S keeps |E|^2
    # for the mass and power is the real scratch.
    shape = (len(lams),) + grid.shape
    X = np.empty((4,) + shape, dtype=np.complex128)
    diff_hat, Q_hat, S_hat, E_hat = X
    S, power = np.empty(shape), np.empty(shape)
    lam_t = np.empty_like(lam_column)

    def measure(t: float, arrays: tuple) -> None:
        E, n, _ = arrays
        _, _, (E_ref,) = next(reference_march)
        np.subtract(E, E_ref, out=diff_hat)
        np.copyto(Q_hat, n)
        np.square(np.abs(E, out=S), out=S)
        np.copyto(S_hat, S)
        np.copyto(E_hat, E)
        fft(X, out=X)
        np.multiply(diff_hat, factor, out=diff_hat)
        np.multiply(E_hat, factor, out=E_hat)
        # Q_hat = (fft(n) + potential fft(S)) factor
        np.add(Q_hat, np.multiply(potential, S_hat, out=S_hat), out=Q_hat)
        np.multiply(Q_hat, factor, out=Q_hat)
        np.maximum(sup_err_E, _sobolev_norm(grid, diff_hat, weight, power), out=sup_err_E)
        np.maximum(sup_Q, _sobolev_norm(grid, Q_hat, weight, power), out=sup_Q)
        # wave_cos of each row: cos(lam t omega_eps), with lam t formed first
        layer = np.multiply(np.multiply(lam_column, t, out=lam_t), om, out=power)
        np.cos(layer, out=layer)
        np.subtract(Q_hat, np.multiply(f0_hat, layer, out=S_hat), out=Q_hat)
        np.maximum(sup_err_Q, _sobolev_norm(grid, Q_hat, weight, power), out=sup_err_Q)
        np.maximum(max_tail, _spectral_tail(grid, E_hat, outer, power), out=max_tail)
        masses.append(_mass(grid, S))

    steps = qz_evolve(config, data, sink=measure, lams=lams).steps
    walltime = time.perf_counter() - start
    mass_rows = np.transpose(masses)
    return [SweepRecord(lam=lam, dt=config.dt, sup_err_E_Hm=float(sup_err_E[i]),
                        sup_err_Q_Hm=float(sup_err_Q[i]), sup_Q_Hm=float(sup_Q[i]),
                        walltime_s=walltime, max_tail_E=float(max_tail[i]),
                        mass_drift=drift(list(mass_rows[i])), steps=steps)
            for i, lam in enumerate(lams)]


def _check_ladder(lambdas) -> None:
    if not lambdas or list(lambdas) != sorted(lambdas) or any(l < 1.0 for l in lambdas):
        raise ParameterError("lambda list must be nonempty and sorted with every "
                             "entry >= 1")


def lambda_sweep(config: SimConfig, data: InitialData, lambdas,
                 m: int) -> list[SweepRecord]:
    """Run the ladder of sound speeds against one common reference.

    The reference uses the step-size law of the smallest lam so its
    discretization bias is shared by every run. The lams that share a
    step size run as one batched march; since the step size never grows
    along the sorted ladder, each batch is a contiguous run of it, and
    the records come back in ladder order. Each batch marches its own
    reference, so the reference is marched once per step size.
    """
    lambdas = [float(l) for l in lambdas]
    _check_ladder(lambdas)
    if data.grid != config.grid:
        raise ParameterError("data grid does not match config grid")

    reference = replace(config, lam=lambdas[0])
    f0_hat = to_spectral(q_field(data.initial_state(), config.eps))

    records = []
    runs = [replace(config, lam=lam) for lam in lambdas]
    for _, group in groupby(runs, key=attrgetter("dt")):
        group = list(group)
        records += _run_group(group[0], data, m, tuple(r.lam for r in group),
                              reference, f0_hat)
    return records


def _check_rate_lams(lams) -> None:
    if len(set(lams)) < 3:
        raise DegenerateInputError("rate fit needs at least 3 distinct lam")


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
    _check_rate_lams(lams)
    if any(e <= 0.0 for e in errors):
        raise DegenerateInputError("rate fit needs strictly positive errors")
    xs = np.log(lams)
    ys = np.log(errors)
    slope, intercept = _fit_line(xs, ys)
    residual = float(np.max(np.abs(ys - (slope * xs + intercept))))
    return RateFit(slope=slope, intercept=intercept, residual=residual,
                   lambdas=tuple(lams))


@dataclass(frozen=True)
class SelfConvergence:
    """Step-refinement study against the finest-dt reference."""

    dts: tuple[float, ...]
    errors: tuple[float, ...]
    order: float


def _check_dt_list(dts) -> None:
    if len(dts) < 4:
        raise ParameterError("dt list needs >= 4 entries (>= 3 plus the reference)")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ParameterError("dt list must be strictly decreasing")


def _check_dt_divides(dt: float, T: float) -> None:
    steps = T / dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ParameterError(f"dt {dt} does not divide T = {T}")


# the most split steps a march may take: the committed configs take at
# most 2,000, and 10^7 steps at d=1 run for more than 20 minutes
_MAX_STEPS = 10**7


def _check_steps(T: float, dt: float, samples: int) -> None:
    """Refuse a march to T by dt that lands on samples sample times, when
    its ceil(T/dt) steps of dt and one landing step a sample are more
    than _MAX_STEPS. That holds exactly when T/dt + samples is, since
    _MAX_STEPS - samples is an integer; T/dt may overflow to inf."""
    steps = T / dt + samples
    if steps > _MAX_STEPS:
        raise ParameterError(f"a march to T = {T:g} by dt = {dt:g} takes about "
                             f"{steps:.3g} steps, more than {_MAX_STEPS:.0e}")


def self_convergence(config: SimConfig, data: InitialData, dt_list,
                     target: str = "qz") -> SelfConvergence:
    """Measure the splitting order from final states at T.

    The last entry of dt_list is the reference; every dt must divide T.
    """
    if target not in ("qz", "qmnls"):
        raise ParameterError(
            f"self-convergence target must be 'qz' or 'qmnls', got {target!r}")
    dts = [float(dt) for dt in dt_list]
    _check_dt_list(dts)
    for dt in dts:
        _check_dt_divides(dt, config.T)

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
    order, _ = _fit_line(np.log(dts[:-1]), np.log(errors))
    return SelfConvergence(dts=tuple(dts[:-1]), errors=tuple(errors), order=order)


def oracle_discrepancy(config: SimConfig, data: InitialData) -> float:
    """L^2 distance between the split final state and the oracle's."""
    split = qz_evolve(replace(config, sample_times=(config.T,)), data).final_state()
    reference = oracle_evolve(config, data)
    diff = Field(config.grid, split.E.values - reference.E.values)
    n_diff = Field(config.grid, split.n.values - reference.n.values)
    return float(np.hypot(l2_norm(diff), l2_norm(n_diff)))
