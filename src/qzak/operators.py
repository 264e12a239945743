"""Fourier symbols for the fourth-order Schrodinger/wave calculus.

Every symbol the solvers and measurements use is built here, on the
wavenumber lattice with k2 = |xi|^2:

    delta_eps            -(k2 + eps^2 k2^2)
    i_eps                1 / (1 + eps^2 k2)
    omega_eps            sqrt(k2) sqrt(1 + eps^2 k2)
    schrodinger_group    exp(-i t (k2 + eps^2 k2^2))
    wave_cos             cos(lam t omega_eps)
    wave_sinc            sin(lam t omega_eps) / (lam omega_eps), value t at xi=0
    potential_symbol     i_eps on the 2/3 band (all of i_eps without dealiasing)
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .field import Field, dealias_mask, inverse_values, to_spectral
from .grid import Grid


def _check_eps(eps) -> float:
    if eps is None or not (0.0 < eps <= 1.0):
        raise ParameterError(f"eps must lie in (0, 1], got {eps}")
    return float(eps)


def _check_lam(lam) -> float:
    if lam is None or not (lam >= 1.0):
        raise ParameterError(f"lam must satisfy lam >= 1, got {lam}")
    return float(lam)


def _check_t(t, name: str) -> None:
    if t is None:
        raise ParameterError(f"{name} requires t")


def delta_eps(grid: Grid, eps: float) -> np.ndarray:
    """Fourth-order Laplacian Lap - eps^2 Lap^2."""
    eps = _check_eps(eps)
    k2 = grid.k_squared
    return -(k2 + eps * eps * k2 * k2)


def i_eps(grid: Grid, eps: float) -> np.ndarray:
    """Smoothing inverse (1 - eps^2 Lap)^-1."""
    eps = _check_eps(eps)
    return 1.0 / (1.0 + eps * eps * grid.k_squared)


def potential_symbol(grid: Grid, eps: float, dealias: bool = True) -> np.ndarray:
    """Takes fftn(|E|^2) to the coefficients of I_eps |E|^2, with the
    quadratic product dealiased by the 2/3 rule when ``dealias`` holds."""
    symbol = i_eps(grid, eps)
    return symbol * dealias_mask(grid) if dealias else symbol


def omega_eps(grid: Grid, eps: float) -> np.ndarray:
    """Fourth-order wave frequency |xi| sqrt(1 + eps^2 |xi|^2)."""
    eps = _check_eps(eps)
    k2 = grid.k_squared
    return np.sqrt(k2) * np.sqrt(1.0 + eps * eps * k2)


def schrodinger_group(grid: Grid, eps: float, t: float) -> np.ndarray:
    """Free propagator exp(i t Delta_eps) of the envelope."""
    eps = _check_eps(eps)
    _check_t(t, "schrodinger_group")
    k2 = grid.k_squared
    return np.exp(-1j * t * (k2 + eps * eps * k2 * k2))


def wave_cos(grid: Grid, eps: float, lam: float, t: float) -> np.ndarray:
    """Cosine propagator cos(lam t omega_eps) of the density wave."""
    lam = _check_lam(lam)
    _check_t(t, "wave_cos")
    return np.cos(lam * t * omega_eps(grid, eps))


def wave_sinc(grid: Grid, eps: float, lam: float, t: float) -> np.ndarray:
    """sin(lam t omega)/(lam omega) with the removable xi=0 limit t."""
    lam = _check_lam(lam)
    _check_t(t, "wave_sinc")
    om = omega_eps(grid, eps)
    out = np.empty_like(om)
    nz = om > 0.0
    out[nz] = np.sin(lam * t * om[nz]) / (lam * om[nz])
    out[~nz] = t
    return out


def _derivative_symbol(grid: Grid, axis: int) -> np.ndarray:
    """i xi along one axis, with the unpaired Nyquist line zeroed so that
    real fields stay real."""
    sym = 1j * grid.wavenumber_mesh[axis]
    index = [slice(None)] * grid.d
    index[axis] = grid.mode_indices_1d == -grid.N // 2
    sym[tuple(index)] = 0.0
    return sym


def apply_multiplier(f: Field, symbol: np.ndarray) -> Field:
    """Multiply the spectral coefficients of f by a symbol array.

    The result is real when both f and the symbol are real, which drops
    the rounding-level imaginary part.
    """
    phys = inverse_values(f.grid, to_spectral(f) * symbol)
    real = np.isrealobj(f.values) and np.isrealobj(symbol)
    return Field(f.grid, phys.real if real else phys)
