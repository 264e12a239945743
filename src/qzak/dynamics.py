"""Time integrators for the coupled system and its subsonic limit.

The coupled solver is a symmetric (palindromic) splitting whose wave
substep is exact for the source frozen over the step: with Q = n +
I_eps S and S = |E|^2 held fixed, Q satisfies a free fourth-order wave
equation and is rotated mode-by-mode by the (cos, sinc) propagator
pair. Freezing S at the half-evolved envelope keeps the composition
time-symmetric, hence second order. All E substeps are unitary, so the
discrete mass is conserved to rounding regardless of dt or lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InstabilityError, NonFiniteFieldError, ParameterError
from .field import Field, complex_field, dealias_mask, real_field
from .grid import Grid
from .operators import (delta_eps, i_eps, omega_eps, potential_symbol,
                        schrodinger_group, wave_cos, wave_sinc)
from .state import InitialData, SchrodingerState, SimConfig, ZakharovState

_LANDING_TOL = 1e-12
_RK4_IMAG_AXIS_LIMIT = 2.8


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of an evolution at the requested sample times."""

    config: SimConfig
    samples: tuple

    @property
    def times(self) -> list[float]:
        return [t for t, _ in self.samples]

    @property
    def states(self) -> list:
        return [s for _, s in self.samples]

    def final_state(self):
        return self.samples[-1][1]


# lru_cache on a kernel class returns the cached instance for arguments
# seen before, so each (grid, eps, lam, dt) is built once.
@lru_cache(maxsize=512)
class _QZKernel:
    """Symbol arrays for one (grid, eps, lam, dt) step."""

    __slots__ = ("schrod_half", "cos", "sinc", "lam_om_sin", "potential")

    def __init__(self, grid: Grid, eps: float, lam: float, dt: float, dealias: bool):
        om = omega_eps(grid, eps)
        self.schrod_half = schrodinger_group(grid, eps, 0.5 * dt)
        self.cos = wave_cos(grid, eps, lam, dt)
        self.sinc = wave_sinc(grid, eps, lam, dt)
        self.lam_om_sin = lam * om * np.sin(lam * dt * om)
        self.potential = potential_symbol(grid, eps, dealias)


@lru_cache(maxsize=512)
class _QMNLSKernel:
    __slots__ = ("schrod", "potential")

    def __init__(self, grid: Grid, eps: float, dt: float, dealias: bool):
        self.schrod = schrodinger_group(grid, eps, dt)
        self.potential = potential_symbol(grid, eps, dealias)


# Every march and single step shares one protocol: the fields travel as
# a tuple of plain arrays, (E, n, nt) for the coupled system and (E,) for
# the limit equation, and advance(arrays, h) returns them one step of
# size h later. No advance writes into its inputs, so a march starts
# from the read-only arrays of the initial data without copying them.

def _qz_advance(grid: Grid, eps: float, lam: float, dealias: bool):
    def advance(arrays: tuple, h: float) -> tuple:
        E, n, nt = arrays
        kern = _QZKernel(grid, eps, lam, h, dealias)
        # Palindromic sequence: kick / half linear / exact wave / half
        # linear / kick. The wave substep reads S at the half-evolved
        # (midpoint) envelope, which keeps the composition symmetric and
        # second order.
        E = E * np.exp(-0.5j * h * n)
        E = np.fft.ifftn(np.fft.fftn(E) * kern.schrod_half)
        IS_hat = np.fft.fftn(np.abs(E) ** 2) * kern.potential
        Q_hat = np.fft.fftn(n) + IS_hat
        Qt_hat = np.fft.fftn(nt)
        Q_new = kern.cos * Q_hat + kern.sinc * Qt_hat
        Qt_new = -kern.lam_om_sin * Q_hat + kern.cos * Qt_hat
        n = np.fft.ifftn(Q_new - IS_hat).real
        nt = np.fft.ifftn(Qt_new).real
        E = np.fft.ifftn(np.fft.fftn(E) * kern.schrod_half)
        E = E * np.exp(-0.5j * h * n)
        return E, n, nt
    return advance


def _qmnls_advance(grid: Grid, eps: float, dealias: bool):
    def advance(arrays: tuple, h: float) -> tuple:
        kern = _QMNLSKernel(grid, eps, h, dealias)

        def kick(E):
            # the potential is -I_eps |E|^2
            V = -np.fft.ifftn(np.fft.fftn(np.abs(E) ** 2) * kern.potential).real
            return E * np.exp(-0.5j * h * V)

        (E,) = arrays
        E = kick(E)
        E = np.fft.ifftn(np.fft.fftn(E) * kern.schrod)
        return (kick(E),)
    return advance


_FIELD_NAMES = ("E", "n", "nt")


def _arrays(E: Field, *real: Field) -> tuple:
    return (np.asarray(E.values, dtype=np.complex128),) + tuple(f.values for f in real)


def _check_finite(t: float, arrays: tuple) -> None:
    for name, arr in zip(_FIELD_NAMES, arrays):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteFieldError(f"field {name!r} became non-finite at t = {t:.6g}")


def _qz_state(grid: Grid, t: float, arrays: tuple) -> ZakharovState:
    E, n, nt = arrays
    return ZakharovState(t=t, E=complex_field(grid, E), n=real_field(grid, n),
                         nt=real_field(grid, nt))


def _qmnls_state(grid: Grid, t: float, arrays: tuple) -> SchrodingerState:
    return SchrodingerState(t=t, E=complex_field(grid, arrays[0]))


def qz_step(s: ZakharovState, dt: float, eps: float, lam: float,
            dealias: bool = True) -> ZakharovState:
    """One Strang step of the coupled system; dt may be negative."""
    if dt == 0.0:
        raise ParameterError("dt must be nonzero")
    advance = _qz_advance(s.grid, float(eps), float(lam), bool(dealias))
    arrays = advance(_arrays(s.E, s.n, s.nt), float(dt))
    t = s.t + dt
    _check_finite(t, arrays)
    return _qz_state(s.grid, t, arrays)


def qmnls_step(s: SchrodingerState, dt: float, eps: float,
               dealias: bool = True) -> SchrodingerState:
    """One Strang step of the limit equation; dt may be negative."""
    if dt == 0.0:
        raise ParameterError("dt must be nonzero")
    advance = _qmnls_advance(s.grid, float(eps), bool(dealias))
    arrays = advance(_arrays(s.E), float(dt))
    t = s.t + dt
    _check_finite(t, arrays)
    return _qmnls_state(s.grid, t, arrays)


def _march(config: SimConfig, arrays: tuple, advance) -> list:
    """Step arrays with advance, landing exactly on every sample time.

    Returns (t, arrays) per sample. A sample holds a contiguous copy of
    each array, not the step's own buffer: n and nt are real parts of
    complex step buffers, whose views keep twice their size alive, and
    kept step buffers sit between the freed step temporaries. At d=2
    N=256 with 64 samples, keeping the views of n and nt raised peak RSS
    from 336 MB to 445 MB, and keeping E's buffer raised it by 7%.
    """
    dt = config.dt
    samples = []
    t = 0.0
    targets = list(config.sample_times)
    if not targets or abs(targets[-1] - config.T) > _LANDING_TOL:
        targets.append(config.T)
    if targets[0] <= _LANDING_TOL:
        samples.append((0.0, tuple(a.copy() for a in arrays)))
        targets = targets[1:]
    tol = _LANDING_TOL * max(1.0, config.T)
    for target in targets:
        while t < target - tol:
            h = min(dt, target - t)
            arrays = advance(arrays, h)
            t += h
            _check_finite(t, arrays)
        t = target
        samples.append((t, tuple(a.copy() for a in arrays)))
    return samples


def qz_evolve(config: SimConfig, data: InitialData) -> Trajectory:
    """Evolve the coupled system, snapshotting at the config's sample times."""
    if data.grid != config.grid:
        raise ParameterError("initial data grid does not match config grid")
    advance = _qz_advance(config.grid, config.eps, config.lam, config.dealias)
    samples = _march(config, _arrays(data.E0, data.n0, data.n1), advance)
    return Trajectory(config=config, samples=tuple(
        (t, _qz_state(config.grid, t, arrays)) for t, arrays in samples))


def qmnls_evolve(config: SimConfig, E0: Field) -> Trajectory:
    """Evolve the limit equation from envelope E0."""
    if E0.grid != config.grid:
        raise ParameterError("E0 grid does not match config grid")
    advance = _qmnls_advance(config.grid, config.eps, config.dealias)
    samples = _march(config, _arrays(E0), advance)
    return Trajectory(config=config, samples=tuple(
        (t, _qmnls_state(config.grid, t, arrays)) for t, arrays in samples))


def oracle_evolve(config: SimConfig, data: InitialData, target: str = "qz",
                  refinement: int = 50, max_points: int = 64):
    """Unsplit RK4 reference integration in spectral coefficients.

    Intended for tiny grids only; refuses step sizes outside the RK4
    imaginary-axis stability region.
    """
    grid = config.grid
    if target not in ("qz", "qmnls"):
        raise ParameterError(f"oracle target must be 'qz' or 'qmnls', got {target!r}")
    if grid.d != 1:
        raise ParameterError("oracle_evolve supports d=1 only")
    if grid.N > max_points:
        raise ParameterError(f"oracle_evolve limited to N <= {max_points} (got {grid.N})")
    if refinement < 50:
        raise ParameterError("oracle refinement must be >= 50 substeps per dt")
    if data.grid != grid:
        raise ParameterError("initial data grid does not match config grid")

    dt_oracle = config.dt / refinement
    n_steps = max(1, round(config.T / dt_oracle))
    dt_oracle = config.T / n_steps

    k2 = grid.k_squared
    delta = delta_eps(grid, config.eps)
    rate = max(config.lam * float(np.max(omega_eps(grid, config.eps))),
               float(np.max(-delta)))
    if rate * dt_oracle > _RK4_IMAG_AXIS_LIMIT:
        raise InstabilityError(
            f"oracle step {dt_oracle:.3e} violates the RK4 stability bound; "
            f"requires dt <= {_RK4_IMAG_AXIS_LIMIT / rate:.3e}")

    mask = dealias_mask(grid) if config.dealias else None
    smoothing = i_eps(grid, config.eps)

    def deal(coeffs):
        return coeffs * mask if mask is not None else coeffs

    if target == "qz":
        lam2 = config.lam**2

        def rhs(y):
            E_hat, n_hat, nt_hat = y
            E = np.fft.ifftn(E_hat)
            n = np.fft.ifftn(n_hat).real
            S_hat = deal(np.fft.fftn(np.abs(E) ** 2))
            nE_hat = deal(np.fft.fftn(n * E))
            return (1j * (delta * E_hat - nE_hat),
                    nt_hat,
                    lam2 * (delta * n_hat - k2 * S_hat))

        y = (np.fft.fftn(data.E0.values.astype(np.complex128)),
             np.fft.fftn(data.n0.values).astype(np.complex128),
             np.fft.fftn(data.n1.values).astype(np.complex128))
    else:
        def rhs(y):
            (E_hat,) = y
            E = np.fft.ifftn(E_hat)
            S_hat = deal(np.fft.fftn(np.abs(E) ** 2))
            V = np.fft.ifftn(smoothing * S_hat).real
            VE_hat = deal(np.fft.fftn(V * E))
            return (1j * (delta * E_hat + VE_hat),)

        y = (np.fft.fftn(data.E0.values.astype(np.complex128)),)

    h = dt_oracle
    for _ in range(n_steps):
        k1 = rhs(y)
        k2_ = rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k2_)))
        k4 = rhs(tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2_, k3, k4))

    if target == "qz":
        E = np.fft.ifftn(y[0])
        n = np.fft.ifftn(y[1]).real
        nt = np.fft.ifftn(y[2]).real
        _check_finite(config.T, (E, n, nt))
        return _qz_state(grid, config.T, (E, n, nt))
    E = np.fft.ifftn(y[0])
    _check_finite(config.T, (E,))
    return _qmnls_state(grid, config.T, (E,))
