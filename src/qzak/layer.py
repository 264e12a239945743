"""The initial layer of the density compatibility variable.

Q = n + I_eps |E|^2 solves a forced fourth-order wave equation. Its
cosine-propagated initial value Q0 = cos(lam t omega_eps) Q(0) carries
the fast non-decaying oscillation created by incompatible data, and the
sweep measures ||Q - Q0|| against it. The probe utilities measure the
pointwise decay of Q0 in the regions where the propagator has no
stationary phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import _fit_line
from .errors import ParameterError, WrapAroundError
from .field import Field, inverse_values, real_field, to_spectral
from .operators import _derivative_symbol, apply_multiplier, wave_cos
from .state import InitialData, layer_velocity_source, q_field

# The table multiplies f0's coefficients by |xi|^k: rounding at the top
# mode xi_max = pi N / L grows to eps_mach xi_max^k_max, and an order
# whose growth passes this bound tabulates noise.
_DECAY_NOISE_MAX = 1e-6


def q0_exact(t: float, lam: float, eps: float, f0: Field) -> Field:
    """Cosine-propagated layer: cos(lam t omega_eps) f0, evaluated in one shot.
    No module of the package calls this; it stays because ``benchmarks/`` times it."""
    return apply_multiplier(f0, wave_cos(f0.grid, eps, lam, t))


def layer_initial_fields(data: InitialData, eps: float) -> tuple[Field, Field]:
    """(f0, g): the layer's initial value and initial velocity sources.

    g is the initial velocity n1 + 2 Im(E0 conj(Delta_eps E0)). No
    module of the package calls this (the sweep takes f0 from ``q_field``
    directly); it stays because ``benchmarks/`` unpacks the pair.
    """
    f0 = q_field(data.initial_state(), eps)
    g = real_field(data.grid, data.n1.values + layer_velocity_source(data.E0, eps).values)
    return f0, g


@dataclass(frozen=True)
class ProbeRow:
    """One (lam t, probe point) evaluation of the propagated layer."""

    lam_t: float
    x0: float
    region: str
    sup_by_k: tuple[float, ...]
    weighted_sup_by_k: tuple[float, ...]


@dataclass(frozen=True)
class DecayProbeReport:
    """Pointwise decay measurements for the cosine-propagated layer."""

    rows: tuple[ProbeRow, ...]
    inner_exponent: float
    outer_envelope_factor: float


def _check_probe_dimension(d: int) -> None:
    if d != 1:
        raise ParameterError("decay_probe supports d=1 only")


def _check_probe_time(lam_t: float) -> None:
    if not lam_t > 0.0:
        raise ParameterError("lam t values must be positive")


def _check_probe_point(p, L: float) -> None:
    if not (-L / 2.0 <= float(p) < L / 2.0):
        raise ParameterError(f"probe point {p} lies outside the box "
                             f"[{-L / 2.0:.6g}, {L / 2.0:.6g})")


def _check_k_max(grid, k_max: int) -> None:
    # compared in logarithms, since xi_max^k_max overflows for large k_max
    log_xi_max = math.log(math.pi * grid.N / grid.L)
    log_bound = math.log(_DECAY_NOISE_MAX / np.finfo(float).eps)
    if k_max * log_xi_max > log_bound:
        raise ParameterError(
            f"must be <= {math.floor(log_bound / log_xi_max)} on this grid: above "
            f"it eps_mach (pi N / L)^k_max exceeds {_DECAY_NOISE_MAX:g} and "
            f"the table is rounding noise, got {k_max}")


def _check_probe_data(f0: Field) -> None:
    if not np.any(f0.values):
        raise ParameterError("the layer data is zero: its decay table measures nothing")


def _check_horizon(f0: Field, f0_hat: np.ndarray, eps: float, lam_t: float) -> None:
    """Raise WrapAroundError when the layer of the nonzero f0 reaches the
    box edge by lam t.

    The band is where |f0_hat| stands above its peak times the larger of
    1e-12 and f0's relative size at the box edge: the seam jump of data
    cut off at that size spreads a tail of that relative height over
    every mode, and that tail is not band.
    """
    grid = f0.grid
    values = np.abs(f0.values)
    floor = max(1e-12, max(values[0], values[-1]) / np.max(values))
    mags = np.abs(f0_hat)
    alive = mags > floor * np.max(mags)
    xi_eff = float(np.max(np.sqrt(grid.k_squared)[alive])) if alive.any() else 0.0
    # the group speed d omega_eps / d xi at the cutoff bounds the spreading
    e2xi2 = eps * eps * xi_eff * xi_eff
    horizon = lam_t * ((1.0 + 2.0 * e2xi2) / np.sqrt(1.0 + e2xi2))
    if horizon > 0.9 * grid.L / 2.0:
        raise WrapAroundError(
            f"probe horizon {horizon:.3g} reaches the box edge "
            f"(L/2 = {grid.L / 2.0:.3g}); shorten lam t or enlarge the box "
            f"(resolved band cutoff {xi_eff:.3g})")


def decay_probe(f0: Field, eps: float, lam_times, k_max: int,
                probe_points) -> DecayProbeReport:
    """Evaluate derivatives of cos(lam t omega) f0 at fixed probe points.

    The layer depends on lam and t only through lam t, so the probe takes
    the values of lam t. The k-th derivative is Lap^{k/2} Q0 for even k,
    d/dx Lap^{(k-1)/2} Q0 for odd k: one inverse transform per (lam t, k)
    of the transformed f0. The checks of the dimension, the data (a zero
    f0 measures nothing), lam t values, k_max (a table of rounding noise,
    which also keeps |xi|^k far from overflow), probe points and horizon
    also run in ``config.resolve_config``.

    Region per (lam t, x0): inner when lam t > 1 and |x0| <= lam t / 2,
    else outer (which also covers all early times). The inner exponent is
    the log-log slope against (1 + lam t); the outer envelope factor
    compares late outer values against the early-time constant of the
    bound (1 + lam t)^-2 (1 + |x0|)^2.
    """
    grid = f0.grid
    _check_probe_dimension(grid.d)
    _check_probe_data(f0)
    lam_times = sorted(float(lt) for lt in lam_times)
    _check_probe_time(min(lam_times, default=0.0))  # an empty list has no lam t > 0
    if k_max < 0:
        raise ParameterError(f"k_max must be >= 0, got {k_max}")
    _check_k_max(grid, k_max)
    if len(probe_points) == 0:
        raise ParameterError("probe_points must name at least one point")
    for p in probe_points:
        _check_probe_point(p, grid.L)

    f0_hat = to_spectral(f0)
    _check_horizon(f0, f0_hat, eps, lam_times[-1])

    x_axis = grid.coordinates[0]
    probe_idx = [int(np.argmin(np.abs(x_axis - float(p)))) for p in probe_points]
    probe_x = [float(x_axis[i]) for i in probe_idx]

    d_x = _derivative_symbol(grid, 0)
    rows = []
    symbols = [(-grid.k_squared) ** (k // 2) * (d_x if k % 2 else 1.0)
               for k in range(k_max + 1)]
    for lam_t in lam_times:
        q0_hat = f0_hat * wave_cos(grid, eps, 1.0, lam_t)
        at_probes = [np.abs(inverse_values(grid, symbol * q0_hat).real)[probe_idx]
                     for symbol in symbols]
        for j, x0 in enumerate(probe_x):
            inner = lam_t > 1.0 and abs(x0) <= lam_t / 2.0
            sup_by_k = tuple(float(values[j]) for values in at_probes)
            weight = (1.0 + abs(x0)) ** 2
            rows.append(ProbeRow(
                lam_t=lam_t, x0=x0, region="inner" if inner else "outer",
                sup_by_k=sup_by_k, weighted_sup_by_k=tuple(v / weight for v in sup_by_k)))

    return DecayProbeReport(rows=tuple(rows), inner_exponent=_fit_inner_exponent(rows),
                            outer_envelope_factor=_outer_envelope_factor(rows))


def _fit_inner_exponent(rows: list[ProbeRow]) -> float:
    by_time: dict[float, float] = {}
    for r in rows:
        if r.region == "inner":
            v = max(r.sup_by_k)
            by_time[r.lam_t] = max(by_time.get(r.lam_t, 0.0), v)
    pairs = sorted(by_time.items())
    peak = max((v for _, v in pairs), default=0.0)
    pairs = [(lt, v) for lt, v in pairs if v > 1e-13 * peak]
    if len(pairs) < 2:
        return float("nan")
    slope, _ = _fit_line(np.log([1.0 + lt for lt, _ in pairs]),
                         np.log([v for _, v in pairs]))
    return slope


def _outer_envelope_factor(rows: list[ProbeRow]) -> float:
    """sup of late outer values over the envelope calibrated at early times."""
    def envelope_ratio(r: ProbeRow) -> float:
        bound = (1.0 + r.lam_t) ** (-2.0) * (1.0 + abs(r.x0)) ** 2
        return max(r.sup_by_k) / bound

    early = [envelope_ratio(r) for r in rows if r.lam_t <= 1.0]
    late = [envelope_ratio(r) for r in rows if r.region == "outer" and r.lam_t > 1.0]
    if not early or not late:
        return float("nan")
    c_ref = max(early)
    if c_ref == 0.0:
        return float("inf")
    return float(max(late) / c_ref)
