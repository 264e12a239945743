"""Discrete L^2 and Sobolev norms.

All physical-space functionals carry the measure (L/N)^d so that they
agree with spectral sums via Plancherel.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .field import Field, to_spectral
from .grid import Grid


def l2_norm(f: Field) -> float:
    """Discrete L^2 norm with the (L/N)^d measure."""
    return float(np.sqrt(f.grid.cell_volume * np.sum(np.abs(f.values) ** 2)))


def _sobolev_weight(grid: Grid, m: int) -> np.ndarray:
    if m < 0:
        raise ParameterError(f"Sobolev index must be >= 0, got {m}")
    return (1.0 + grid.k_squared) ** m


def _sobolev_norm(grid: Grid, coeffs: np.ndarray, weight: np.ndarray,
                  work: np.ndarray | None = None):
    """``sobolev_norm`` of the field with spectral coefficients coeffs, or
    of each field of a stack of them, with weight = _sobolev_weight(grid, m).
    Each field sums to the bits of a lone one. work, a real array of
    coeffs' shape, is used as scratch when given."""
    power = np.abs(coeffs, out=work)
    np.square(power, out=power)
    return np.sqrt(np.sum(np.multiply(weight, power, out=power), axis=grid.axes))


def sobolev_norm(f: Field, m: int) -> float:
    """Bessel-weighted H^m norm (sum_xi (1+|xi|^2)^m |fhat|^2)^(1/2)."""
    return float(_sobolev_norm(f.grid, to_spectral(f), _sobolev_weight(f.grid, m)))

