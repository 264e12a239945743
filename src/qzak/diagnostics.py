"""Conserved and monitored functionals.

Every functional uses the same (L/N)^d measure as the norms, so values
are comparable across resolutions and drifts are meaningful.

The per-run monitors (qz_monitor, qmnls_monitor) measure in the arrays
they are given: measure consumes E, and nt for the coupled system, which
hold scratch when it returns; n is only read. Pass copies of anything
that is still needed, as hamiltonian_qz and hamiltonian_qmnls do.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, ZeroModeError
from .field import Field, _forward_factor, _transforms, dealias_mask, to_spectral
from .grid import Grid
from .operators import _halves, _multiply, _stored, delta_eps, i_eps, potential_symbol
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
# qz_monitor and qmnls_monitor build their weights and one half spectrum
# once and return measure(arrays) -> (mass, energy), which allocates no
# grid-sized array per call: its other work space is the memory of the
# arguments it consumes, once their contents are spent. The complex E
# takes a full transform, in place; the real fields n, nt and |E|^2 take
# a real one (rfftn), whose half spectrum stands for the full one with
# each column weighted 2 when it holds a conjugate pair and 1 for the
# zero and Nyquist columns. Every weight includes the square of the
# transform normalization and is stored on half the rows at d=2 (see
# operators._halves); every product and sum keeps the bits of a weight
# held on every row.

def _half_shape(grid: Grid) -> tuple:
    return grid.shape[:-1] + (grid.N // 2 + 1,)


def _head(a: np.ndarray, shape: tuple) -> np.ndarray:
    """A C-contiguous view of shape over the first elements of the
    contiguous array a, as work space in a's spent memory."""
    return a.reshape(-1)[:math.prod(shape)].reshape(shape)


def _column_weights(grid: Grid) -> np.ndarray:
    col = np.full(grid.N // 2 + 1, 2.0)
    col[0] = col[-1] = 1.0
    return col


def _weights(grid: Grid, symbol: np.ndarray, real: bool = False) -> list:
    """The _halves views of the weights w with sum(w |x|^2) = sum(symbol
    |fhat|^2) for x = fhat (a stored symbol) or, when real, x = rfftn(f)
    for a real f (a symbol even in xi, on the half spectrum's stored rows)."""
    if real:
        symbol = symbol * _column_weights(grid)
    return _halves(grid, symbol * _forward_factor(grid) ** 2, True)


def _sum_sq(grid: Grid, x: np.ndarray, w: list, work: np.ndarray) -> float:
    """sum(w |x|^2), for the _halves views w of a stored weight, with the
    real array work of x's shape as scratch."""
    np.abs(x, out=work)
    np.square(work, out=work)
    views = _halves(grid, work)
    _multiply(views, w, views)
    return float(np.sum(work))


def qz_monitor(grid: Grid, eps: float, lam: float):
    """Per-run measure(E, n, nt) -> (mass, Hamiltonian of the coupled system).

    ||grad E||^2 + eps^2 ||Lap E||^2 + (1/2) lam^-2 ||d_t invgrad n||^2
    + (1/2) ||n||^2 + (eps^2/2) ||grad n||^2 + int n |E|^2 dx

    The coupling integral is taken over the 2/3 band, by Plancherel.
    Raises ZeroModeError unless nt has zero mean. measure takes writable
    contiguous arrays, complex E and real n and nt, reads n and consumes
    E and nt: once nt is transformed its array holds the real work space
    and then |E|^2, and once E's energy is taken its array holds the
    transform of n. The monitor keeps one half spectrum and the weights.
    """
    fft, _, rfft = _transforms(grid)
    half = _half_shape(grid)
    stored = _stored(grid, half)
    k2 = grid.k_squared_block(stored)
    inv_k2 = np.zeros_like(k2)
    np.divide(1.0, k2, out=inv_k2, where=k2 > 0.0)
    w_E = _weights(grid, -delta_eps(grid, eps, _stored(grid, grid.shape)))
    w_n = _weights(grid, 0.5 / i_eps(grid, eps, stored), True)
    w_nt = _weights(grid, (0.5 / lam**2) * inv_k2, True)
    w_coupling = _weights(grid, dealias_mask(grid, stored).astype(float), True)
    origin = (0,) * grid.d
    S_hat = np.empty(half, dtype=np.complex128)

    def measure(E: np.ndarray, n: np.ndarray, nt: np.ndarray) -> tuple:
        # the norm of nt, which Plancherel gives from its samples
        total = math.sqrt(grid.cell_volume * np.vdot(nt, nt))
        nt_hat = rfft(nt, out=S_hat)
        work = _head(nt, half)  # nt is spent
        zero = abs(nt_hat[origin]) * _forward_factor(grid)
        if total > 0.0 and zero > ZERO_MODE_TOL * total:
            raise ZeroModeError(
                "hamiltonian_qz (d_t n term) requires a zero-mean field "
                f"(|zero mode| = {zero:.3e}, norm = {total:.3e})")
        energy = _sum_sq(grid, nt_hat, w_nt, work)
        S = nt
        np.abs(E, out=S)
        np.square(S, out=S)
        m = float(_mass(grid, S))
        rfft(S, out=S_hat)
        E_hat = fft(E, out=E)
        energy += _sum_sq(grid, E_hat, w_E, S)
        n_hat = rfft(n, out=_head(E, half))  # E is spent
        energy += _sum_sq(grid, n_hat, w_n, work)
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

    measure takes a writable contiguous complex E and consumes it: it
    transforms E in place.
    """
    fft, _, rfft = _transforms(grid)
    w_E = _weights(grid, -0.5 * delta_eps(grid, eps, _stored(grid, grid.shape)))
    w_quartic = _weights(grid, 0.25 * potential_symbol(
        grid, eps, shape=_stored(grid, _half_shape(grid))), True)
    S = np.empty(grid.shape)
    S_hat = np.empty(_half_shape(grid), dtype=np.complex128)
    work = _head(S, S_hat.shape)  # S is spent after E's energy

    def measure(E: np.ndarray) -> tuple:
        np.abs(E, out=S)
        np.square(S, out=S)
        m = float(_mass(grid, S))
        rfft(S, out=S_hat)
        E_hat = fft(E, out=E)
        energy = _sum_sq(grid, E_hat, w_E, S)
        return m, energy - _sum_sq(grid, S_hat, w_quartic, work)
    return measure


def hamiltonian_qz(s: ZakharovState, eps: float, lam: float) -> float:
    """Energy of the coupled system; see ``qz_monitor``."""
    return qz_monitor(s.grid, eps, lam)(s.E.values.copy(), s.n.values.copy(),
                                        s.nt.values.copy())[1]


def hamiltonian_qmnls(E: Field, eps: float) -> float:
    """Energy of the limit equation; see ``qmnls_monitor``."""
    return qmnls_monitor(E.grid, eps)(E.values.copy())[1]


def _outer_modes(grid: Grid, fraction: float) -> np.ndarray:
    """The flat mask of the modes with some per-axis |j| >= fraction*N/2."""
    j = np.abs(grid.mode_indices_1d)
    outer = j >= fraction * grid.N / 2.0
    return (outer if grid.d == 1 else np.logical_or.outer(outer, outer)).reshape(-1)


def _spectral_tail(grid: Grid, coeffs: np.ndarray, outer: np.ndarray,
                   work: np.ndarray | None = None):
    """``spectral_tail`` of the field with spectral coefficients coeffs, or
    of each field of a stack of them, on the modes outer = _outer_modes(...).
    np.compress keeps each field's selected modes contiguous, so that each
    field sums to the bits of a lone one. work, a real array of coeffs'
    shape, is used as scratch when given."""
    power = np.abs(coeffs, out=work)
    np.square(power, out=power)
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
