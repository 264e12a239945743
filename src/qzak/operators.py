"""Fourier symbols for the fourth-order Schrodinger/wave calculus.

Each symbol's formula is written once, here, on the wavenumber lattice
with k2 = |xi|^2, and every solver and measurement takes it from there:

    delta_eps            -(k2 + eps^2 k2^2), from _dispersion
    i_eps                1 / (1 + eps^2 k2)
    _omega_eps           omega_eps = sqrt(k2) sqrt(1 + eps^2 k2)
    _schrodinger_group   exp(-i t (k2 + eps^2 k2^2)), from _dispersion
    _wave_cos            cos(lam t omega_eps)
    wave_propagator      the exact wave step: _wave_cos,
                         sin(lam t omega_eps) / (lam omega_eps) (value t
                         at xi=0) and -lam omega_eps sin(lam t omega_eps)
    _DEALIAS_BAND        the 2/3 band, per-axis |j| <= (2/3) N/2 (|xi_i| <= (2/3) pi/dx)
    potential_symbol     i_eps on the 2/3 band (all of i_eps without dealiasing)

dynamics.oracle_evolve and oracle-check's plane wave write their own,
because they check the kernels built from these. delta_eps, i_eps,
dealias_mask and potential_symbol take the shape of a leading block of the
lattice to evaluate them on (Grid.k_squared_block), the whole by default.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .field import Field, inverse_values, to_spectral
from .grid import Grid


def _check_eps(eps) -> float:
    if eps is None or not (0.0 < eps <= 1.0):
        raise ParameterError(f"eps must lie in (0, 1], got {eps}")
    return float(eps)


def _check_lam(lam) -> float:
    if lam is None or not (lam >= 1.0):
        raise ParameterError(f"lam must satisfy lam >= 1, got {lam}")
    return float(lam)


def _dispersion(k2: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """Write k2 + eps^2 k2^2, which is -delta_eps, into out (not k2)."""
    x = np.multiply(eps * eps, k2, out=out)
    np.multiply(x, k2, out=x)
    return np.add(k2, x, out=x)


def delta_eps(grid: Grid, eps: float, shape: tuple | None = None) -> np.ndarray:
    """Fourth-order Laplacian Lap - eps^2 Lap^2."""
    k2 = grid.k_squared_block(shape or grid.shape)
    return -_dispersion(k2, _check_eps(eps), np.empty_like(k2))


def i_eps(grid: Grid, eps: float, shape: tuple | None = None) -> np.ndarray:
    """Smoothing inverse (1 - eps^2 Lap)^-1."""
    eps = _check_eps(eps)
    return 1.0 / (1.0 + eps * eps * grid.k_squared_block(shape or grid.shape))


_DEALIAS_BAND = 2.0 / 3.0  # the 2/3 rule (Orszag 1971), a fraction of the Nyquist mode


def dealias_mask(grid: Grid, shape: tuple | None = None) -> np.ndarray:
    """2/3-rule retention mask, keeping per-axis |j| <= N/3, with a shape on
    the leading block of the lattice of that shape (Grid.k_squared_block)."""
    keep = np.abs(grid.mode_indices_1d) <= _DEALIAS_BAND * grid.N / 2.0
    rows, *cols = shape or grid.shape
    if grid.d == 1:
        return keep[:rows]
    return np.logical_and.outer(keep[:rows], keep[:cols[0]])


def potential_symbol(grid: Grid, eps: float, dealias: bool = True,
                     shape: tuple | None = None) -> np.ndarray:
    """Takes fftn(|E|^2) to the coefficients of I_eps |E|^2, with the
    quadratic product dealiased by the 2/3 rule when ``dealias`` holds."""
    symbol = i_eps(grid, eps, shape)
    return symbol * dealias_mask(grid, shape) if dealias else symbol


# A symbol that a march or a monitor keeps for the run is stored at d=2
# on rows 0..N/2 of the first axis only: every symbol is a function of
# |xi|^2, which has the bits of mode j at mode -j, so rows N/2+1..N-1 are
# rows N/2-1..1 reversed. An array is multiplied by it in two products,
# over the views _halves pairs up (_multiply). At d=1 the reversed view
# would run backwards along the contiguous axis, which costs more time
# than the memory is worth, so d=1 symbols are whole.

def _stored(grid: Grid, shape: tuple) -> tuple:
    """The stored shape of a symbol for arrays of shape, grid.shape or the
    half spectrum's."""
    return (grid.N // 2 + 1,) + shape[1:] if grid.d == 2 else shape


def _halves(grid: Grid, a: np.ndarray, stored: bool = False) -> list:
    """The views of a grid array a that pair up with a stored symbol's: a
    at d=1; at d=2 rows 0..N/2 and N/2+1..N-1 of the first grid axis, or
    for a stored symbol a, its rows 0..N/2 and N/2-1..1 reversed."""
    if grid.d == 1:
        return [a]
    h = grid.N // 2
    return [a[..., :h + 1, :], a[..., h - 1:0:-1, :] if stored else a[..., h + 1:, :]]


def _multiply(views: list, symbol: list, out: list) -> None:
    """out = views * symbol, view by view, over _halves views."""
    for a, s, o in zip(views, symbol, out):
        np.multiply(a, s, out=o)


def _omega_eps(k2: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """Write the fourth-order wave frequency omega_eps = sqrt(k2)
    sqrt(1 + eps^2 k2) into out and return it, consuming k2, which it
    overwrites with sqrt(k2)."""
    np.multiply(eps * eps, k2, out=out)
    np.sqrt(np.add(1.0, out, out=out), out=out)
    return np.multiply(np.sqrt(k2, out=k2), out, out=out)


def unit_phase(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write exp(i x) for real x into the complex array out and return it.

    cos x goes into out.real and sin x into out.imag, which costs about
    two thirds of np.exp on the complex argument. The values are those of
    np.exp(-1j * t * y) and np.exp(-0.5j * h * n) with x = -t * y and
    x = -0.5 * h * n: the complex argument has a real part of zero, and
    numpy's complex exp returns (cos, sin) of its imaginary part (where
    x is zero, the zero imaginary part may differ in sign). x may be
    out.imag itself, and must not otherwise share memory with out.
    """
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _schrodinger_group(k2: np.ndarray, eps: float, t: float, out: np.ndarray) -> np.ndarray:
    """Write the free propagator exp(i t Delta_eps) of the envelope on
    k2 = |xi|^2 into the complex array out of k2's shape and return it."""
    # -t (k2 + eps^2 k2^2), formed in out.imag with no temporary
    x = _dispersion(k2, eps, out.imag)
    return unit_phase(np.multiply(-t, x, out=x), out)


def _wave_cos(lam_t, om: np.ndarray, angle=None, out=None) -> np.ndarray:
    """The wave cosine cos(lam t omega_eps) for om = omega_eps and lam_t =
    lam t formed first (a float, or a column for a stack), with the angle
    lam_t om written into angle (a new array by default) and the cosine
    into out (angle by default)."""
    angle = np.multiply(lam_t, om, out=angle)
    return np.cos(angle, out=angle if out is None else out)


def wave_propagator(om: np.ndarray, lam: float, t: float, cos: np.ndarray,
                    sinc: np.ndarray, rate: np.ndarray, lam_om: np.ndarray) -> None:
    """Write the exact wave step over time t for om = omega_eps: the
    cosine propagator cos(lam t om) into cos, sin(lam t om)/(lam om),
    with the removable limit t where om = 0, into sinc, and
    -lam om sin(lam t om) into rate. lam_om, a real array of om's shape,
    is scratch.

    One sin serves both sin symbols, and each element has the bits of a
    lone evaluation of its expression. The angle and the sin are formed
    in sinc, so the only temporary is the boolean mask of om > 0.
    """
    lam = _check_lam(lam)
    _wave_cos(lam * t, om, sinc, cos)
    sin = np.sin(sinc, out=sinc)
    np.multiply(lam, om, out=lam_om)
    np.negative(np.multiply(lam_om, sin, out=rate), out=rate)
    nz = om > 0.0
    np.divide(sin, lam_om, out=sinc, where=nz)
    sinc[np.logical_not(nz, out=nz)] = t


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
