"""Sampled fields and the unitary-normalized transform pair.

Normalization fixes discrete Plancherel with the physical measure
(L/N)^d: sum_x |f(x)|^2 (L/N)^d == sum_xi |fhat(xi)|^2, so norms of
resolved fields match their continuum integrals.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import InconsistentGridError, RepresentationError
from .grid import Grid


class Field:
    """Immutable physical sampled function on a grid, float64 or complex128.

    Spectral coefficients are plain arrays (see ``to_spectral``). The Field
    wraps a read-only view of the array it is given and copies only to
    convert the dtype or to make a strided view contiguous, so that the
    real part of a complex array does not keep the complex buffer alive.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values)
        if values.shape != grid.shape:
            raise InconsistentGridError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        values = np.ascontiguousarray(values, dtype=dtype).view()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __repr__(self):
        return (f"Field(d={self.grid.d}, N={self.grid.N}, L={self.grid.L:g}, "
                f"{self.values.dtype})")


def real_field(grid: Grid, values: np.ndarray) -> Field:
    values = np.asarray(values)
    if np.iscomplexobj(values):
        if np.any(values.imag != 0.0):
            raise RepresentationError("real field has nonzero imaginary part")
        values = values.real
    return Field(grid, values)


def complex_field(grid: Grid, values: np.ndarray) -> Field:
    return Field(grid, np.asarray(values, dtype=np.complex128))


def _forward_factor(grid: Grid) -> float:
    # fhat = L^{d/2} / N^d * FFT(f), which makes Plancherel exact.
    return grid.L ** (grid.d / 2.0) / grid.size


def _transforms(grid: Grid) -> tuple:
    """(fft, ifft, rfft) over the grid axes, so that every row of a batch
    is transformed on its own. At d=1 they are np.fft.fft/ifft/rfft along
    the last axis, which give the bits of fftn/ifftn/rfftn without their
    per-call axis bookkeeping. Looked up on each call, not at import, so
    that a wrapper in numpy.fft (a counter or a tracer) sees every
    transform."""
    if grid.d == 1:
        return np.fft.fft, np.fft.ifft, np.fft.rfft
    return tuple(partial(f, axes=grid.axes)
                 for f in (np.fft.fftn, np.fft.ifftn, np.fft.rfftn))


def inverse_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Raw-array inverse transform (complex output)."""
    return np.fft.ifftn(coeffs) / _forward_factor(grid)


def to_spectral(f: Field) -> np.ndarray:
    """Forward transform: the complex coefficient array of a field."""
    return np.fft.fftn(f.values) * _forward_factor(f.grid)


def dealias_mask(grid: Grid, shape: tuple | None = None) -> np.ndarray:
    """2/3-rule retention mask: keep per-axis mode indices |j| <= N/3. With
    a shape, on the leading block of the lattice of that shape (see
    ``Grid.k_squared_block``)."""
    j = np.abs(grid.mode_indices_1d)
    keep = j <= grid.N / 3.0
    rows, *cols = shape or grid.shape
    if grid.d == 1:
        return keep[:rows]
    return np.logical_and.outer(keep[:rows], keep[:cols[0]])


def require_same_grid(*fields: Field) -> Grid:
    grid = fields[0].grid
    for g in fields[1:]:
        if g.grid != grid:
            raise InconsistentGridError("fields live on different grids")
    return grid
