"""Conserved and monitored functionals.

Every functional uses the (L/N)^d measure of the norms, and the spectral
ones are the weighted half-spectrum sums of norms. The per-run monitors
(qz_monitor, qmnls_monitor) build their weights once and return
measure(arrays) -> (mass, energy), which only reads its arguments,
strided views among them, and allocates no grid-sized array per call, so
a caller passes its live arrays.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import ParameterError, ZeroModeError
from .field import Field, _forward_factor, _transforms
from .grid import Grid
from .norms import (_half_block, _half_shape, _half_spectra, _norm_sq, _pair, _sum_sq,
                    _weights)
from .operators import _halves, _multiply, dealias_mask, delta_eps, i_eps, potential_symbol
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


def _head(a: np.ndarray, shape: tuple) -> np.ndarray:
    """A C-contiguous view of shape over the first elements of the
    contiguous array a, as work space in a's spent memory."""
    return a.reshape(-1)[:math.prod(shape)].reshape(shape)


def _work_space(grid: Grid):
    """A function that returns a monitor's spectra, of shape (2,) + the
    half spectrum, and real half-spectrum work, allocated on its first
    call: a monitor built before a march holds none of it as it starts."""
    half = _half_shape(grid)
    return cache(lambda: (np.empty((2,) + half, dtype=np.complex128), np.empty(half)))


def _envelope(grid: Grid, rfft, E: np.ndarray, w_E: list, spectra: np.ndarray,
              work: np.ndarray) -> tuple:
    """(mass, sum(w_E |fft E|^2)) for an even weight w_E. spectra takes
    the transforms of Re E and Im E, from one call of rfft on a real view
    of both, and then |E|^2 in row 0's memory and its transform in row
    1, which it holds on return."""
    rfft(_pair(E), out=spectra)
    energy = sum(float(_sum_sq(grid, x, w_E, work)) for x in spectra)
    S = _head(spectra[0].view(np.float64), grid.shape)
    np.square(np.abs(E, out=S), out=S)
    m = float(_mass(grid, S))
    rfft(S, out=spectra[1])
    return m, energy


def qz_monitor(grid: Grid, eps: float, lam: float):
    """Per-run measure(E, n, nt) -> (mass, Hamiltonian of the coupled system).

    ||grad E||^2 + eps^2 ||Lap E||^2 + (1/2) lam^-2 ||d_t invgrad n||^2
    + (1/2) ||n||^2 + (eps^2/2) ||grad n||^2 + int n |E|^2 dx

    The coupling integral is taken over the 2/3 band, by Plancherel.
    Raises ZeroModeError unless nt has zero mean. measure takes complex
    E and real n and nt, strided views among them (the real parts of a
    march's complex buffers), and only reads them. Its spectra row 0
    holds the transform of nt, then with row 1 those of E (see
    _envelope), then the transform of n beside that of |E|^2.
    """
    rfft = _transforms(grid)[2]
    stored = _half_block(grid)
    k2 = grid.k_squared_block(stored)
    inv_k2 = np.zeros_like(k2)
    np.divide(1.0, k2, out=inv_k2, where=k2 > 0.0)
    w_E = _weights(grid, -delta_eps(grid, eps, stored))
    w_n = _weights(grid, 0.5 / i_eps(grid, eps, stored))
    w_nt = _weights(grid, (0.5 / lam**2) * inv_k2)
    w_coupling = _weights(grid, dealias_mask(grid, stored).astype(float))
    origin = (0,) * grid.d
    work_space = _work_space(grid)

    def measure(E: np.ndarray, n: np.ndarray, nt: np.ndarray) -> tuple:
        spectra, work = work_space()
        # the norm of nt, which Plancherel gives from its samples. The real
        # part of a march's buffer has a flat view, which np.dot hands to
        # BLAS; np.vdot of the strided array took 250 times as long (d=2
        # N=256, numpy 2.4).
        flat = nt.reshape(-1)
        total = math.sqrt(grid.cell_volume * np.dot(flat, flat))
        nt_hat = rfft(nt, out=spectra[0])
        zero = abs(nt_hat[origin]) * _forward_factor(grid)
        if total > 0.0 and zero > ZERO_MODE_TOL * total:
            raise ZeroModeError(
                "hamiltonian_qz (d_t n term) requires a zero-mean field "
                f"(|zero mode| = {zero:.3e}, norm = {total:.3e})")
        energy = float(_sum_sq(grid, nt_hat, w_nt, work))
        m, E_energy = _envelope(grid, rfft, E, w_E, spectra, work)
        energy += E_energy
        n_hat, S_hat = rfft(n, out=spectra[0]), spectra[1]
        energy += float(_sum_sq(grid, n_hat, w_n, work))
        # Re(conj(n_hat) S_hat), in the spent n_hat
        np.conjugate(n_hat, out=n_hat)
        np.multiply(n_hat, S_hat, out=n_hat)
        _multiply(_halves(grid, n_hat.real), w_coupling, _halves(grid, work))
        return m, energy + float(np.sum(work))
    return measure


def qmnls_monitor(grid: Grid, eps: float):
    """Per-run measure(E) -> (mass, Hamiltonian of the limit equation).

    (1/2)||grad E||^2 + (eps^2/2)||Lap E||^2
    - (1/4) int |E|^2 (1 - eps^2 Lap)^-1 |E|^2 dx

    measure takes a complex E and only reads it (see _envelope).
    """
    rfft = _transforms(grid)[2]
    stored = _half_block(grid)
    w_E = _weights(grid, -0.5 * delta_eps(grid, eps, stored))
    w_quartic = _weights(grid, 0.25 * potential_symbol(grid, eps, shape=stored))
    work_space = _work_space(grid)

    def measure(E: np.ndarray) -> tuple:
        spectra, work = work_space()
        m, energy = _envelope(grid, rfft, E, w_E, spectra, work)
        return m, energy - float(_sum_sq(grid, spectra[1], w_quartic, work))
    return measure


def hamiltonian_qz(s: ZakharovState, eps: float, lam: float) -> float:
    """Energy of the coupled system; see ``qz_monitor``."""
    return qz_monitor(s.grid, eps, lam)(s.E.values, s.n.values, s.nt.values)[1]


def hamiltonian_qmnls(E: Field, eps: float) -> float:
    """Energy of the limit equation; see ``qmnls_monitor``."""
    return qmnls_monitor(E.grid, eps)(E.values)[1]


def _tail_weights(grid: Grid, fraction: float) -> tuple:
    """The weights of spectral_tail's total and of its outer modes, those
    with some per-axis |j| >= fraction*N/2, on the stored block."""
    rows, *cols = stored = _half_block(grid)
    outer = np.abs(grid.mode_indices_1d) >= fraction * grid.N / 2.0
    mask = outer[:rows] if grid.d == 1 else np.logical_or.outer(outer[:rows], outer[:cols[0]])
    return _weights(grid, np.ones(stored)), _weights(grid, mask)


def _tail(grid: Grid, spectra: np.ndarray, weights: tuple, work: np.ndarray) -> np.ndarray:
    """spectral_tail of each field whose half spectra stack on the leading
    axis of spectra, for weights = _tail_weights(...) (see norms._norm_sq)."""
    total, tail = (_norm_sq(grid, spectra, w, work) for w in weights)
    return np.divide(tail, total, out=np.zeros_like(total), where=total != 0.0)


def spectral_tail(f: Field, fraction: float) -> float:
    """Energy fraction carried by per-axis mode indices |j| >= fraction*N/2."""
    if not (0.0 < fraction < 1.0):
        raise ParameterError(f"fraction must lie in (0, 1), got {fraction}")
    spectra, work = _half_spectra(f.grid, f.values)
    return float(_tail(f.grid, spectra, _tail_weights(f.grid, fraction), work))


def drift(series: list[float]) -> float:
    """Max relative drift |v - v0| / |v0| over a sampled functional."""
    if not series:
        return 0.0
    v0 = series[0]
    scale = abs(v0)
    if scale == 0.0:
        return float(max(abs(v) for v in series))
    return float(max(abs(v - v0) for v in series) / scale)


def _fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through (xs, ys), from
    centred sums: slope = sum(dx dy) / sum(dx^2), where dx and dy are the
    deviations from the means, and intercept = mean(ys) - slope mean(xs).
    It agrees with np.polyfit(xs, ys, 1) to rounding without calling
    LAPACK, whose first call in a process keeps its solver resident until
    exit. The caller guarantees two distinct xs, so the denominator is
    not 0."""
    x_mean, y_mean = np.mean(xs), np.mean(ys)
    dx = xs - x_mean
    slope = float(np.sum(dx * (ys - y_mean)) / np.sum(dx * dx))
    return slope, float(y_mean - slope * x_mean)
