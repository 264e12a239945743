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

from .diagnostics import _fit_line, _mass, _tail, _tail_weights, drift
from .errors import DegenerateInputError, ParameterError
from .field import Field, _transforms
from .norms import (_half_block, _half_shape, _norm_sq, _pair, _sobolev_weight, _sum_sq,
                    _weights, l2_norm)
from .dynamics import _march, _qmnls_advance, oracle_evolve, qmnls_evolve, qz_evolve
from .operators import _halves, _multiply, _omega_eps, potential_symbol
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

    A sample costs one rfft call on a real stack of each row's E - E_ref
    and E as (Re, Im) pairs, |E|^2 and n, whose half spectra the sums of
    norms reduce. Q and the layer cos(lam t omega_eps) f0 are formed on the
    half spectrum with symbols on stored half rows, built once per group
    like every work array, and only running maxima and the masses are
    kept. Every record carries the batch's wall time: its march, the
    group's reference march and the measurement of its samples.
    """
    start = time.perf_counter()
    grid, eps = config.grid, config.eps
    rfft = _transforms(grid)[2]
    stored = _half_block(grid)
    w_m = _weights(grid, _sobolev_weight(grid, m))
    tail_weights = _tail_weights(grid, 2.0 / 3.0)
    potential = _halves(grid, potential_symbol(grid, eps, shape=stored), True)
    om = _omega_eps(grid.k_squared_block(stored), eps, np.empty(stored))
    lam_column = np.reshape(lams, (-1,) + (1,) * grid.d)
    reference_march = _march(reference, *_qmnls_advance(grid, eps, reference.dealias,
                                                        (data.E0.values,)))
    sup_err_E, sup_err_Q, sup_Q, max_tail = (np.zeros(len(lams)) for _ in range(4))
    masses = []
    X = np.empty((6, len(lams)) + grid.shape)
    spectra = np.empty((6, len(lams)) + _half_shape(grid), dtype=np.complex128)
    work = np.empty(spectra[:2].shape)
    layer, lam_t = np.empty((len(lams),) + stored), np.empty_like(lam_column)

    def measure(t: float, arrays: tuple) -> None:
        E, n, _ = arrays
        _, _, (E_ref,) = next(reference_march)
        pair = _pair(E)
        np.subtract(pair, _pair(E_ref)[:, None], out=X[:2])
        np.copyto(X[2:4], pair)
        np.square(np.abs(E, out=X[4]), out=X[4])
        np.copyto(X[5], n)
        rfft(X, out=spectra)
        masses.append(_mass(grid, X[4]))
        np.maximum(sup_err_E, np.sqrt(_norm_sq(grid, spectra[:2], w_m, work)), out=sup_err_E)
        np.maximum(max_tail, _tail(grid, spectra[2:4], tail_weights, work), out=max_tail)
        # Q_hat = rfft(n) + potential rfft(|E|^2) in row 5, and Q_hat minus
        # cos(lam t omega_eps) f0_hat, with lam t formed first, in row 4
        S_hat = _halves(grid, spectra[4])
        _multiply(S_hat, potential, S_hat)
        np.add(spectra[5], spectra[4], out=spectra[5])
        np.cos(np.multiply(np.multiply(lam_column, t, out=lam_t), om, out=layer), out=layer)
        _multiply(_halves(grid, f0_hat), _halves(grid, layer, True), S_hat)
        np.subtract(spectra[5], spectra[4], out=spectra[4])
        err_Q, Q = np.sqrt(_sum_sq(grid, spectra[4:], w_m, work))
        np.maximum(sup_err_Q, err_Q, out=sup_err_Q)
        np.maximum(sup_Q, Q, out=sup_Q)

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
    f0_hat = _transforms(config.grid)[2](q_field(data.initial_state(), config.eps).values)

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
