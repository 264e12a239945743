"""Conserved and monitored functionals.

Every functional uses the same (L/N)^d measure as the norms, so values
are comparable across resolutions and drifts are meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ZeroModeError
from .field import Field, _forward_factor, dealias_mask, to_spectral
from .grid import Grid
from .operators import delta_eps, i_eps, potential_symbol
from .state import ZakharovState

ZERO_MODE_TOL = 1e-10


def _mass(grid: Grid, S: np.ndarray):
    """The mass from the samples S = |E|^2: the squared l2_norm of E, or of
    each envelope of a stack of them. float_power squares with libm's pow,
    as float(l2_norm) ** 2 does; x * x, which ``** 2`` on an array
    computes, rounds differently in about one case in a thousand."""
    return np.float_power(np.sqrt(grid.cell_volume * np.sum(S, axis=grid.axes)), 2)


def mass(E: Field) -> float:
    """Squared L^2 norm of the envelope; exactly conserved by both solvers."""
    return float(_mass(E.grid, np.abs(E.values) ** 2))


# The energies are sums over the spectrum, evaluated by per-run monitors:
# qz_monitor and qmnls_monitor build their weights and work buffers once
# and return measure(arrays) -> (mass, energy), which allocates no
# grid-sized array per call. The complex E takes a full transform; the
# real fields n, nt and |E|^2 take a real one (rfftn), whose half
# spectrum stands for the full one with each column weighted 2 when it
# holds a conjugate pair and 1 for the zero and Nyquist columns. Every
# weight includes the square of the transform normalization.

def _transforms(grid: Grid) -> tuple:
    # looked up per monitor, so that a wrapper in numpy.fft sees the calls
    if grid.d == 1:
        return np.fft.fft, np.fft.rfft
    return np.fft.fftn, np.fft.rfftn


def _half_shape(grid: Grid) -> tuple:
    return grid.shape[:-1] + (grid.N // 2 + 1,)


def _column_weights(grid: Grid) -> np.ndarray:
    col = np.full(grid.N // 2 + 1, 2.0)
    col[0] = col[-1] = 1.0
    return col


def _real_weights(grid: Grid, symbol: np.ndarray) -> np.ndarray:
    """Weights w with sum(w |rfftn(f)|^2) = sum(symbol |fhat|^2) over the
    full lattice, for real f and a symbol even in xi."""
    half = grid.N // 2 + 1
    return symbol[..., :half] * _column_weights(grid) * _forward_factor(grid) ** 2


def _sum_sq(x: np.ndarray, w: np.ndarray, work: np.ndarray) -> float:
    """sum(w |x|^2), with the real array work of x's shape as scratch."""
    np.abs(x, out=work)
    np.square(work, out=work)
    np.multiply(work, w, out=work)
    return float(np.sum(work))


def qz_monitor(grid: Grid, eps: float, lam: float):
    """Per-run measure(E, n, nt) -> (mass, Hamiltonian of the coupled system).

    ||grad E||^2 + eps^2 ||Lap E||^2 + (1/2) lam^-2 ||d_t invgrad n||^2
    + (1/2) ||n||^2 + (eps^2/2) ||grad n||^2 + int n |E|^2 dx

    The coupling integral is taken over the 2/3 band, by Plancherel.
    Raises ZeroModeError unless nt has zero mean. Not thread-safe: the
    monitor owns its buffers, so one thread at a time may call it (in
    ``qzak simulate``, the one worker thread that handles the samples).
    """
    fft, rfft = _transforms(grid)
    k2 = grid.k_squared
    inv_k2 = np.zeros_like(k2)
    np.divide(1.0, k2, out=inv_k2, where=k2 > 0.0)
    w_E = -delta_eps(grid, eps) * _forward_factor(grid) ** 2
    w_n = _real_weights(grid, 0.5 / i_eps(grid, eps))
    w_nt = _real_weights(grid, (0.5 / lam**2) * inv_k2)
    w_coupling = _real_weights(grid, dealias_mask(grid).astype(float))
    w_unit = _real_weights(grid, np.ones(grid.shape))
    origin = (0,) * grid.d
    S, E_hat = np.empty(grid.shape), np.empty(grid.shape, dtype=np.complex128)
    S_hat, n_hat, nt_hat = (np.empty(_half_shape(grid), dtype=np.complex128)
                            for _ in range(3))
    work = np.empty(_half_shape(grid))

    def measure(E: np.ndarray, n: np.ndarray, nt: np.ndarray) -> tuple:
        rfft(nt, out=nt_hat)
        zero = abs(nt_hat[origin]) * _forward_factor(grid)
        total = np.sqrt(_sum_sq(nt_hat, w_unit, work))
        if total > 0.0 and zero > ZERO_MODE_TOL * total:
            raise ZeroModeError(
                "hamiltonian_qz (d_t n term) requires a zero-mean field "
                f"(|zero mode| = {zero:.3e}, norm = {total:.3e})")
        energy = _sum_sq(nt_hat, w_nt, work)
        np.abs(E, out=S)
        np.square(S, out=S)
        m = float(_mass(grid, S))
        rfft(S, out=S_hat)
        fft(E, out=E_hat)
        energy += _sum_sq(E_hat, w_E, S)
        rfft(n, out=n_hat)
        energy += _sum_sq(n_hat, w_n, work)
        # Re(conj(n_hat) S_hat), in the spent nt_hat
        np.conjugate(n_hat, out=nt_hat)
        np.multiply(nt_hat, S_hat, out=nt_hat)
        np.multiply(nt_hat.real, w_coupling, out=work)
        return m, energy + float(np.sum(work))
    return measure


def qmnls_monitor(grid: Grid, eps: float):
    """Per-run measure(E) -> (mass, Hamiltonian of the limit equation).

    (1/2)||grad E||^2 + (eps^2/2)||Lap E||^2
    - (1/4) int |E|^2 (1 - eps^2 Lap)^-1 |E|^2 dx

    Not thread-safe: the monitor owns its buffers, so one thread at a
    time may call it (in ``qzak simulate``, the one worker thread that
    handles the samples).
    """
    fft, rfft = _transforms(grid)
    w_E = -0.5 * delta_eps(grid, eps) * _forward_factor(grid) ** 2
    w_quartic = _real_weights(grid, 0.25 * potential_symbol(grid, eps))
    S, E_hat = np.empty(grid.shape), np.empty(grid.shape, dtype=np.complex128)
    S_hat = np.empty(_half_shape(grid), dtype=np.complex128)
    work = np.empty(_half_shape(grid))

    def measure(E: np.ndarray) -> tuple:
        np.abs(E, out=S)
        np.square(S, out=S)
        m = float(_mass(grid, S))
        rfft(S, out=S_hat)
        fft(E, out=E_hat)
        energy = _sum_sq(E_hat, w_E, S)
        return m, energy - _sum_sq(S_hat, w_quartic, work)
    return measure


def hamiltonian_qz(s: ZakharovState, eps: float, lam: float) -> float:
    """Energy of the coupled system; see ``qz_monitor``."""
    return qz_monitor(s.grid, eps, lam)(s.E.values, s.n.values, s.nt.values)[1]


def hamiltonian_qmnls(E: Field, eps: float) -> float:
    """Energy of the limit equation; see ``qmnls_monitor``."""
    return qmnls_monitor(E.grid, eps)(E.values)[1]


def _outer_modes(grid: Grid, fraction: float) -> np.ndarray:
    """The flat mask of the modes with some per-axis |j| >= fraction*N/2."""
    j = np.abs(grid.mode_indices_1d)
    outer = j >= fraction * grid.N / 2.0
    return (outer if grid.d == 1 else np.logical_or.outer(outer, outer)).reshape(-1)


def _spectral_tail(grid: Grid, coeffs: np.ndarray, outer: np.ndarray):
    """``spectral_tail`` of the field with spectral coefficients coeffs, or
    of each field of a stack of them, on the modes outer = _outer_modes(...).
    np.compress keeps each field's selected modes contiguous, so that each
    field sums to the bits of a lone one."""
    power = np.abs(coeffs) ** 2
    power = power.reshape(power.shape[:power.ndim - grid.d] + (-1,))
    total = np.sum(power, axis=-1)
    tail = np.sum(np.compress(outer, power, axis=-1), axis=-1)
    return np.divide(tail, total, out=np.zeros_like(total), where=total != 0.0)


def spectral_tail(f: Field, fraction: float) -> float:
    """Energy fraction carried by per-axis mode indices |j| >= fraction*N/2."""
    if not (0.0 < fraction < 1.0):
        raise ParameterError(f"fraction must lie in (0, 1), got {fraction}")
    return float(_spectral_tail(f.grid, to_spectral(f), _outer_modes(f.grid, fraction)))


def drift(series: list[float]) -> float:
    """Max relative drift |v - v0| / |v0| over a sampled functional."""
    if not series:
        return 0.0
    v0 = series[0]
    scale = abs(v0)
    if scale == 0.0:
        return float(max(abs(v) for v in series))
    return float(max(abs(v - v0) for v in series) / scale)
