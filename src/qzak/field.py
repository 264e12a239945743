"""Sampled fields and the unitary-normalized transform pair.

Normalization fixes discrete Plancherel with the physical measure
(L/N)^d: sum_x |f(x)|^2 (L/N)^d == sum_xi |fhat(xi)|^2, so norms of
resolved fields match their continuum integrals.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentGridError, RepresentationError
from .grid import Grid


class Field:
    """Immutable sampled function on a grid, physical or spectral.

    Physical values are float64 (a real field) or complex128; spectral
    values are always complex128. The Field wraps a read-only view of
    the array it is given and copies only to convert the dtype or to make
    a strided view contiguous, so that the real part of a complex array
    does not keep the complex buffer alive.
    """

    __slots__ = ("grid", "spectral", "values")

    def __init__(self, grid: Grid, values: np.ndarray, spectral: bool = False):
        values = np.asarray(values)
        if values.shape != grid.shape:
            raise InconsistentGridError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        dtype = np.complex128 if spectral or np.iscomplexobj(values) else np.float64
        values = np.ascontiguousarray(values, dtype=dtype).view()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "spectral", bool(spectral))
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @property
    def is_physical(self) -> bool:
        return not self.spectral

    @property
    def is_spectral(self) -> bool:
        return self.spectral

    def __repr__(self):
        kind = "spectral" if self.spectral else "physical"
        return (f"Field(d={self.grid.d}, N={self.grid.N}, L={self.grid.L:g}, "
                f"{kind}, {self.values.dtype})")


def real_field(grid: Grid, values: np.ndarray) -> Field:
    values = np.asarray(values)
    if np.iscomplexobj(values):
        if np.any(values.imag != 0.0):
            raise RepresentationError("real field has nonzero imaginary part")
        values = values.real
    return Field(grid, values)


def complex_field(grid: Grid, values: np.ndarray) -> Field:
    return Field(grid, np.asarray(values, dtype=np.complex128))


def spectral_field(grid: Grid, values: np.ndarray) -> Field:
    return Field(grid, values, spectral=True)


def _forward_factor(grid: Grid) -> float:
    # fhat = L^{d/2} / N^d * FFT(f), which makes Plancherel exact.
    return grid.L ** (grid.d / 2.0) / grid.size


def forward_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Raw-array forward transform with the package normalization."""
    return np.fft.fftn(values) * _forward_factor(grid)


def inverse_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Raw-array inverse transform (complex output)."""
    return np.fft.ifftn(coeffs) / _forward_factor(grid)


def to_spectral(f: Field) -> Field:
    """Forward transform; requires a physical-representation field."""
    if not f.is_physical:
        raise RepresentationError("to_spectral expects a physical field")
    return spectral_field(f.grid, forward_values(f.grid, f.values))


def to_physical(f: Field) -> Field:
    """Inverse transform; the result is complex whatever the data."""
    if not f.is_spectral:
        raise RepresentationError("to_physical expects a spectral field")
    return Field(f.grid, inverse_values(f.grid, f.values))


def ensure_spectral(f: Field) -> Field:
    return f if f.is_spectral else to_spectral(f)


def ensure_physical(f: Field) -> Field:
    return f if f.is_physical else to_physical(f)


def dealias_mask(grid: Grid) -> np.ndarray:
    """2/3-rule retention mask: keep per-axis mode indices |j| <= N/3."""
    j = np.abs(grid.mode_indices_1d)
    keep = j <= grid.N / 3.0
    if grid.d == 1:
        return keep
    return np.logical_and.outer(keep, keep)


def dealias(f: Field) -> Field:
    """Zero all coefficients with any axis index |j| > N/3. Idempotent."""
    if not f.is_spectral:
        raise RepresentationError("dealias expects a spectral field")
    return spectral_field(f.grid, f.values * dealias_mask(f.grid))


def dealias_values(grid: Grid, phys_values: np.ndarray) -> np.ndarray:
    """Dealias a physical-space product, returning physical values."""
    coeffs = np.fft.fftn(phys_values)
    coeffs *= dealias_mask(grid)
    out = np.fft.ifftn(coeffs)
    if not np.iscomplexobj(phys_values):
        return out.real
    return out


def require_same_grid(*fields: Field) -> Grid:
    grid = fields[0].grid
    for g in fields[1:]:
        if g.grid != grid:
            raise InconsistentGridError("fields live on different grids")
    return grid
