"""Layer decomposition of the density compatibility variable.

Q = n + I_eps |E|^2 solves a forced fourth-order wave equation, so it
splits into the cosine-propagated initial value Q0, the sinc-propagated
initial velocity Q1, and a Duhamel residual Q2 = Q - Q0 - Q1 that is
computed here exactly as a residual. Q0 carries the fast non-decaying
oscillation created by incompatible data; the probe utilities measure
its pointwise decay in the regions where the propagator has no
stationary phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, WrapAroundError, ZeroModeError
from .field import (Field, complex_field, dealias_values, real_field,
                    require_same_grid, to_spectral)
from .norms import l2_norm, sobolev_norm
from .operators import (apply_multiplier, check_zero_mean, delta_eps,
                        derivative_fields, gradient, wave_cos, wave_sinc)
from .state import InitialData, layer_velocity_source, q_field
from .dynamics import Trajectory


def q0_exact(t: float, lam: float, eps: float, f0: Field) -> Field:
    """Cosine-propagated layer: cos(lam t omega_eps) f0, evaluated in one shot."""
    return apply_multiplier(f0, wave_cos(f0.grid, eps, lam, t))


def q1_exact(t: float, lam: float, eps: float, g: Field) -> Field:
    """Sinc-propagated velocity term; g must have zero mean."""
    check_zero_mean(to_spectral(g), "q1_exact")
    return apply_multiplier(g, wave_sinc(g.grid, eps, lam, t))


def layer_initial_fields(data: InitialData, eps: float) -> tuple[Field, Field]:
    """(f0, g): the layer's initial value and initial velocity sources."""
    f0 = q_field(data.initial_state(), eps)
    g = real_field(data.grid, data.n1.values + layer_velocity_source(data.E0, eps).values)
    return f0, g


@dataclass(frozen=True)
class LayerDecomposition:
    """Layer split at one time, with H^m norms of each component."""

    t: float
    q: Field
    q0: Field
    q1: Field
    q2: Field
    norm_q: float
    norm_q0: float
    norm_q1: float
    norm_q2: float


def layer_decompose(traj: Trajectory, eps: float, lam: float,
                    data: InitialData, m: int) -> list[LayerDecomposition]:
    """Split Q at every snapshot; Q2 is the exact residual Q - Q0 - Q1."""
    f0, g = layer_initial_fields(data, eps)
    g_norm = l2_norm(g)
    g_mean = abs(np.mean(g.values))
    if g_norm > 0.0 and g_mean > 1e-10 * g_norm:
        raise ZeroModeError("layer velocity source has a mean; Q1 undefined")
    out = []
    for t, state in traj.samples:
        q = q_field(state, eps)
        q0 = q0_exact(t, lam, eps, f0)
        q1 = q1_exact(t, lam, eps, g) if g_norm > 0.0 else real_field(
            data.grid, np.zeros(data.grid.shape))
        q2 = real_field(data.grid, q.values - q0.values - q1.values)
        out.append(LayerDecomposition(
            t=t, q=q, q0=q0, q1=q1, q2=q2,
            norm_q=sobolev_norm(q, m), norm_q0=sobolev_norm(q0, m),
            norm_q1=sobolev_norm(q1, m), norm_q2=sobolev_norm(q2, m)))
    return out


def compute_f2(E: Field, n: Field, eps: float) -> list[Field]:
    """Vector field whose divergence equals d^2/dt^2 |E|^2 on solutions.

    With G = Delta_eps E - n E (so that dE/dt = iG),

        f2 = 2 Re[ conj(G) grad(1 - eps^2 Lap) E + conj(E) grad(1 - eps^2 Lap)(-G) ]
           + 2 eps^2 Re sum_k [ d_k conj(G) grad d_k E + d_k conj(E) grad d_k (-G) ].
    """
    grid = require_same_grid(E, n)
    if np.iscomplexobj(n.values):
        raise ParameterError("n must be a real field")

    def deal(values):
        return dealias_values(grid, values)

    delta_E = apply_multiplier(E, delta_eps(grid, eps)).values
    G = delta_E - deal(n.values * E.values)
    G_field = complex_field(grid, G)

    def grad_ieps_inv(f: Field) -> list[np.ndarray]:
        # grad (1 - eps^2 Lap) f, all derivatives spectral
        base = apply_multiplier(f, 1.0 + eps * eps * grid.k_squared)
        return [c.values for c in gradient(base)]

    grad_ii_E = grad_ieps_inv(E)
    grad_ii_G = grad_ieps_inv(G_field)
    components = [
        2.0 * np.real(np.conj(G) * gE - np.conj(E.values) * gG)
        for gE, gG in zip(grad_ii_E, grad_ii_G)
    ]

    grad_E = [c.values for c in gradient(E)]
    grad_G = [c.values for c in gradient(G_field)]
    for k in range(grid.d):
        grad_dk_E = [c.values for c in gradient(complex_field(grid, grad_E[k]))]
        grad_dk_G = [c.values for c in gradient(complex_field(grid, grad_G[k]))]
        for j in range(grid.d):
            components[j] = components[j] + 2.0 * eps * eps * np.real(
                np.conj(grad_G[k]) * grad_dk_E[j] - np.conj(grad_E[k]) * grad_dk_G[j])

    return [real_field(grid, deal(c)) for c in components]


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

    def region_rows(self, region: str) -> list[ProbeRow]:
        return [r for r in self.rows if r.region == region]


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
