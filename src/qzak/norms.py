"""Discrete L^2 and Sobolev norms, and the weighted spectral sums that
every measurement reduces through.

Physical-space functionals carry the measure (L/N)^d, so that they agree
with spectral sums via Plancherel. A spectral sum sum_xi symbol |fhat|^2,
for a symbol even in xi, is taken over real-transform (rfftn) half
spectra: each column holding a conjugate pair counts twice, the zero and
Nyquist columns once, and a complex f is measured as the pair
(Re f, Im f), whose cross terms cancel in an even sum. A weight folds in
those column factors and the squared transform normalization, and is
stored on half the rows at d=2 (operators._halves), to the bits of a
weight held on every row.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .field import Field, _forward_factor, _transforms
from .grid import Grid
from .operators import _halves, _multiply, _stored


def l2_norm(f: Field) -> float:
    """Discrete L^2 norm with the (L/N)^d measure."""
    return float(np.sqrt(f.grid.cell_volume * np.sum(np.abs(f.values) ** 2)))


def _half_shape(grid: Grid) -> tuple:
    return grid.shape[:-1] + (grid.N // 2 + 1,)


def _half_block(grid: Grid) -> tuple:  # a symbol's stored shape on the half spectrum
    return _stored(grid, _half_shape(grid))


def _column_weights(grid: Grid) -> np.ndarray:
    col = np.full(grid.N // 2 + 1, 2.0)
    col[0] = col[-1] = 1.0
    return col


def _weights(grid: Grid, symbol: np.ndarray) -> list:
    """The _halves views of the weights w with sum(w |rfftn(f)|^2) =
    sum(symbol |fhat|^2) for a real f, for a symbol even in xi on the
    half spectrum's stored rows."""
    return _halves(grid, symbol * _column_weights(grid) * _forward_factor(grid) ** 2, True)


def _pair(a: np.ndarray) -> np.ndarray:
    """A read-only real view (Re a, Im a) of the complex array a."""
    re = a.real
    return np.lib.stride_tricks.as_strided(re, (2,) + re.shape, (re.itemsize,) + re.strides,
                                           writeable=False)


def _sum_sq(grid: Grid, x: np.ndarray, w: list, work: np.ndarray) -> np.ndarray:
    """sum(w |x|^2) over the grid axes, one sum per field of a stack, for
    the _halves views w of a stored weight, with the real array work of
    x's shape as scratch."""
    np.abs(x, out=work)
    np.square(work, out=work)
    views = _halves(grid, work)
    _multiply(views, w, views)
    return np.sum(work, axis=grid.axes)


def _half_spectra(grid: Grid, f: np.ndarray) -> tuple:
    """The half spectra of a real f, or of the pair of a complex f, on a
    leading axis, and a real work array of their shape."""
    spectra = _transforms(grid)[2](_pair(f) if np.iscomplexobj(f) else f[None])
    return spectra, np.empty(spectra.shape)


def _norm_sq(grid: Grid, spectra: np.ndarray, w: list, work: np.ndarray) -> np.ndarray:
    """sum(symbol |fhat|^2) of each field whose half spectra stack on the
    leading axis of spectra (see _half_spectra), for w = _weights(symbol).
    Each field sums to the bits of a lone one."""
    return np.sum(_sum_sq(grid, spectra, w, work), axis=0)


def _sobolev_weight(grid: Grid, m: int) -> np.ndarray:
    """(1 + |xi|^2)^m on the half spectrum's stored block."""
    if m < 0:
        raise ParameterError(f"Sobolev index must be >= 0, got {m}")
    return (1.0 + grid.k_squared_block(_half_block(grid))) ** m


def sobolev_norm(f: Field, m: int) -> float:
    """Bessel-weighted H^m norm (sum_xi (1+|xi|^2)^m |fhat|^2)^(1/2)."""
    w = _weights(f.grid, _sobolev_weight(f.grid, m))
    spectra, work = _half_spectra(f.grid, f.values)
    return float(np.sqrt(_norm_sq(f.grid, spectra, w, work)))
