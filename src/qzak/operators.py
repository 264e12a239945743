"""Fourier symbols for the fourth-order Schrodinger/wave calculus.

Every symbol the solvers and measurements use is built here, on the
wavenumber lattice with k2 = |xi|^2:

    delta_eps            -(k2 + eps^2 k2^2)
    i_eps                1 / (1 + eps^2 k2)
    omega_eps            sqrt(k2) sqrt(1 + eps^2 k2)
    _schrodinger_group   exp(-i t (k2 + eps^2 k2^2)), built by unit_phase
    wave_cos             cos(lam t omega_eps)
    wave_propagator      the exact wave step: cos(lam t omega_eps),
                         sin(lam t omega_eps) / (lam omega_eps) (value t
                         at xi=0) and -lam omega_eps sin(lam t omega_eps)
    potential_symbol     i_eps on the 2/3 band (all of i_eps without dealiasing)

delta_eps, i_eps and potential_symbol take the shape of a leading block of
the lattice to evaluate them on (Grid.k_squared_block), the whole by default.
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


def delta_eps(grid: Grid, eps: float, shape: tuple | None = None) -> np.ndarray:
    """Fourth-order Laplacian Lap - eps^2 Lap^2."""
    eps = _check_eps(eps)
    k2 = grid.k_squared_block(shape or grid.shape)
    return -(k2 + eps * eps * k2 * k2)


def i_eps(grid: Grid, eps: float, shape: tuple | None = None) -> np.ndarray:
    """Smoothing inverse (1 - eps^2 Lap)^-1."""
    eps = _check_eps(eps)
    return 1.0 / (1.0 + eps * eps * grid.k_squared_block(shape or grid.shape))


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


def omega_eps(grid: Grid, eps: float) -> np.ndarray:
    """Fourth-order wave frequency |xi| sqrt(1 + eps^2 |xi|^2)."""
    eps = _check_eps(eps)
    k2 = grid.k_squared
    return _omega_eps(k2, eps, np.empty(k2.shape))


def _omega_eps(k2: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """Write sqrt(k2) sqrt(1 + eps^2 k2) into out and return it, consuming
    k2, which it overwrites with sqrt(k2): the core of omega_eps, for a
    caller that lends the memory (a kernel refill)."""
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
    x = np.multiply(eps * eps, k2, out=out.imag)
    np.multiply(x, k2, out=x)
    np.add(k2, x, out=x)
    return unit_phase(np.multiply(-t, x, out=x), out)


def wave_cos(grid: Grid, eps: float, lam: float, t: float) -> np.ndarray:
    """Cosine propagator cos(lam t omega_eps) of the density wave."""
    lam = _check_lam(lam)
    _check_t(t, "wave_cos")
    return np.cos(lam * t * omega_eps(grid, eps))


def wave_propagator(om: np.ndarray, lam: float, t: float, cos: np.ndarray,
                    sinc: np.ndarray, rate: np.ndarray, lam_om: np.ndarray) -> None:
    """Write the exact wave step over time t for om = omega_eps: the
    cosine propagator cos(lam t om) into cos, sin(lam t om)/(lam om),
    with the removable limit t where om = 0, into sinc, and
    -lam om sin(lam t om) into rate. lam_om, a real array of om's shape,
    is scratch.

    One sin serves both sin symbols. cos has the bits of wave_cos, and
    each element the bits of a lone evaluation of its expression. The
    angle and the sin are formed in sinc, so the only temporary is the
    boolean mask of om > 0.
    """
    lam = _check_lam(lam)
    _check_t(t, "wave_propagator")
    angle = np.multiply(lam * t, om, out=sinc)
    np.cos(angle, out=cos)
    sin = np.sin(angle, out=angle)
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
