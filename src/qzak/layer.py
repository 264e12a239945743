"""The initial layer of the density compatibility variable.

Q = n + I_eps |E|^2 solves a forced fourth-order wave equation. Its
cosine-propagated initial value Q0 = cos(lam t omega_eps) Q(0) carries
the fast non-decaying oscillation created by incompatible data, and the
sweep measures ||Q - Q0|| against it. The probe utilities measure the
pointwise decay of Q0 in the regions where the propagator has no
stationary phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, WrapAroundError
from .field import Field, real_field, to_spectral
from .operators import apply_multiplier, derivative_fields, wave_cos
from .state import InitialData, layer_velocity_source, q_field


def q0_exact(t: float, lam: float, eps: float, f0: Field) -> Field:
    """Cosine-propagated layer: cos(lam t omega_eps) f0, evaluated in one shot."""
    return apply_multiplier(f0, wave_cos(f0.grid, eps, lam, t))


def layer_initial_fields(data: InitialData, eps: float) -> tuple[Field, Field]:
    """(f0, g): the layer's initial value and initial velocity sources.

    g is the initial velocity n1 + 2 Im(E0 conj(Delta_eps E0)). No
    module of the package calls this (the sweep takes f0 from ``q_field``
    directly); it stays because ``benchmarks/probes.py`` unpacks the pair.
    """
    f0 = q_field(data.initial_state(), eps)
    g = real_field(data.grid, data.n1.values + layer_velocity_source(data.E0, eps).values)
    return f0, g


@dataclass(frozen=True)
class ProbeRow:
    """One (time, probe point) evaluation of the propagated layer."""

    t: float
    lam_t: float
    x0: float
    region: str
    sup_by_k: tuple[float, ...]
    weighted_sup_by_k: tuple[float, ...]


@dataclass(frozen=True)
class DecayProbeReport:
    """Pointwise decay measurements for the cosine-propagated layer."""

    lam: float
    eps: float
    rows: tuple[ProbeRow, ...]
    inner_exponent: float
    outer_envelope_factor: float


def _group_speed(eps: float, xi: float) -> float:
    return (1.0 + 2.0 * eps * eps * xi * xi) / np.sqrt(1.0 + eps * eps * xi * xi)


def _effective_cutoff(f0: Field, tol: float = 1e-12) -> float:
    """Largest wavenumber at which the data still carries amplitude."""
    mags = np.abs(to_spectral(f0))
    peak = float(np.max(mags))
    if peak == 0.0:
        return 0.0
    grid = f0.grid
    radial = np.sqrt(grid.k_squared)
    alive = mags > tol * peak
    return float(np.max(radial[alive]))


def decay_probe(f0: Field, eps: float, lam: float, times, k_max: int,
                probe_points) -> DecayProbeReport:
    """Evaluate derivatives of cos(lam t omega) f0 at fixed probe points.

    Region per (t, x0): inner when lam*t > 1 and |x0| <= lam*t/2, else
    outer (which also covers all early times). The inner exponent is the
    log-log slope against (1 + lam*t); the outer envelope factor compares
    late outer values against the early-time constant of the bound
    (1 + lam*t)^-2 (1 + |x0|)^2.
    """
    grid = f0.grid
    if grid.d != 1:
        raise ParameterError("decay_probe supports d=1 only")
    times = sorted(float(t) for t in times)
    if not times or times[0] <= 0.0:
        raise ParameterError("probe times must be positive")
    if k_max < 0:
        raise ParameterError(f"k_max must be >= 0, got {k_max}")
    if len(probe_points) == 0:
        raise ParameterError("probe_points must name at least one point")

    for p in probe_points:
        if not (-grid.L / 2.0 <= float(p) < grid.L / 2.0):
            raise ParameterError(f"probe point {p} lies outside the box "
                                 f"[{-grid.L / 2.0:.6g}, {grid.L / 2.0:.6g})")

    xi_eff = _effective_cutoff(f0)
    horizon = lam * times[-1] * _group_speed(eps, xi_eff)
    if horizon > 0.9 * grid.L / 2.0:
        raise WrapAroundError(
            f"probe horizon {horizon:.3g} reaches the box edge "
            f"(L/2 = {grid.L / 2.0:.3g}); shorten times or enlarge the box "
            f"(resolved band cutoff {xi_eff:.3g})")

    x_axis = grid.coordinates[0]
    probe_idx = [int(np.argmin(np.abs(x_axis - float(p)))) for p in probe_points]
    probe_x = [float(x_axis[i]) for i in probe_idx]

    rows = []
    for t in times:
        q0 = q0_exact(t, lam, eps, f0)
        deriv_tables = []
        for k in range(k_max + 1):
            comps = derivative_fields(q0, k)
            deriv_tables.append(np.max(np.abs(np.stack([c.values for c in comps])), axis=0))
        lam_t = lam * t
        for idx, x0 in zip(probe_idx, probe_x):
            inner = lam_t > 1.0 and abs(x0) <= lam_t / 2.0
            sup_by_k = tuple(float(tab[idx]) for tab in deriv_tables)
            weight = (1.0 + abs(x0)) ** 2
            rows.append(ProbeRow(
                t=t, lam_t=lam_t, x0=x0, region="inner" if inner else "outer",
                sup_by_k=sup_by_k,
                weighted_sup_by_k=tuple(v / weight for v in sup_by_k)))

    inner_exponent = _fit_inner_exponent(rows)
    envelope_factor = _outer_envelope_factor(rows)
    return DecayProbeReport(lam=lam, eps=eps, rows=tuple(rows),
                            inner_exponent=inner_exponent,
                            outer_envelope_factor=envelope_factor)


def _fit_inner_exponent(rows: list[ProbeRow]) -> float:
    by_time: dict[float, float] = {}
    for r in rows:
        if r.region == "inner":
            v = max(r.sup_by_k)
            by_time[r.lam_t] = max(by_time.get(r.lam_t, 0.0), v)
    if len(by_time) < 2:
        return float("nan")
    pairs = sorted(by_time.items())
    peak = max(v for _, v in pairs)
    pairs = [(lt, v) for lt, v in pairs if v > 1e-13 * peak]
    if len(pairs) < 2:
        return float("nan")
    xs = np.log([1.0 + lt for lt, _ in pairs])
    ys = np.log([v for _, v in pairs])
    return float(np.polyfit(xs, ys, 1)[0])


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
