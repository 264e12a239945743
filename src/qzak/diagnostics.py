"""Conserved and monitored functionals.

Every functional uses the same (L/N)^d measure as the norms, so values
are comparable across resolutions and drifts are meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .field import Field, dealias_mask, forward_values, to_spectral
from .norms import l2_norm
from .operators import check_zero_mean, potential_symbol
from .state import ZakharovState


def mass(E: Field) -> float:
    """Squared L^2 norm of the envelope; exactly conserved by both solvers."""
    return l2_norm(E) ** 2


def hamiltonian_qz(s: ZakharovState, eps: float, lam: float) -> float:
    """Energy of the coupled system.

    ||grad E||^2 + eps^2 ||Lap E||^2 + (1/2) lam^-2 ||d_t invgrad n||^2
    + (1/2) ||n||^2 + (eps^2/2) ||grad n||^2 + int n |E|^2 dx
    """
    grid = s.grid
    k2 = grid.k_squared
    E_hat = to_spectral(s.E)
    n_hat = to_spectral(s.n)
    nt_hat = to_spectral(s.nt)
    check_zero_mean(nt_hat, "hamiltonian_qz (d_t n term)")

    grad_E = float(np.sum(k2 * np.abs(E_hat) ** 2))
    lap_E = float(np.sum(k2**2 * np.abs(E_hat) ** 2))
    inv_grad_nt = np.zeros_like(k2)
    nz = k2 > 0.0
    inv_grad_nt[nz] = np.abs(nt_hat[nz]) ** 2 / k2[nz]
    wave_kinetic = float(np.sum(inv_grad_nt))
    n_l2 = float(np.sum(np.abs(n_hat) ** 2))
    grad_n = float(np.sum(k2 * np.abs(n_hat) ** 2))
    # int n |E|^2 dx over the 2/3 band, by Plancherel. An elementwise sum,
    # not np.vdot: vdot runs on BLAS worker threads, which raised the CPU
    # time of a d=2 N=256 simulate run by a quarter on a 2-core machine.
    S_hat = forward_values(grid, np.abs(s.E.values) ** 2)
    coupling = float(np.sum((np.conj(n_hat) * S_hat).real[dealias_mask(grid)]))

    return (grad_E + eps**2 * lap_E + 0.5 * wave_kinetic / lam**2
            + 0.5 * n_l2 + 0.5 * eps**2 * grad_n + coupling)


def hamiltonian_qmnls(E: Field, eps: float) -> float:
    """Energy of the limit equation.

    (1/2)||grad E||^2 + (eps^2/2)||Lap E||^2
    - (1/4) int |E|^2 (1 - eps^2 Lap)^-1 |E|^2 dx
    """
    grid = E.grid
    k2 = grid.k_squared
    E_hat = to_spectral(E)
    grad_E = float(np.sum(k2 * np.abs(E_hat) ** 2))
    lap_E = float(np.sum(k2**2 * np.abs(E_hat) ** 2))
    S_hat = forward_values(grid, np.abs(E.values) ** 2)
    quartic = float(np.sum(potential_symbol(grid, eps) * np.abs(S_hat) ** 2))
    return 0.5 * grad_E + 0.5 * eps**2 * lap_E - 0.25 * quartic


def spectral_tail(f: Field, fraction: float) -> float:
    """Energy fraction carried by per-axis mode indices |j| >= fraction*N/2."""
    if not (0.0 < fraction < 1.0):
        raise ParameterError(f"fraction must lie in (0, 1), got {fraction}")
    grid = f.grid
    coeffs = to_spectral(f)
    j = np.abs(grid.mode_indices_1d)
    outer = j >= fraction * grid.N / 2.0
    sel = outer if grid.d == 1 else np.logical_or.outer(outer, outer)
    total = float(np.sum(np.abs(coeffs) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(coeffs[sel]) ** 2) / total)


def drift(series: list[float]) -> float:
    """Max relative drift |v - v0| / |v0| over a sampled functional."""
    if not series:
        return 0.0
    v0 = series[0]
    scale = abs(v0)
    if scale == 0.0:
        return float(max(abs(v) for v in series))
    return float(max(abs(v - v0) for v in series) / scale)
