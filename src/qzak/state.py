"""Dynamical state, run configuration, and Gaussian initial-data presets.

Preset kinds:

    generic        independent envelope and density bumps; the density
                   error carries a genuine fast layer.
    compatible     n0 = -I_eps |E0|^2, n1 = 0, so the layer vanishes at t=0.
    well-prepared  additionally n1 = -2 Im(E0 conj(Delta_eps E0)), killing
                   the sine component of the layer as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionError
from .field import (Field, complex_field, dealias_mask, real_field,
                    require_same_grid)
from .grid import Grid
from .norms import l2_norm
from .operators import (_check_eps, _check_lam, apply_multiplier, delta_eps,
                        potential_symbol)

MEAN_TOL = 1e-12
PRESET_KINDS = ("generic", "compatible", "well-prepared")
DEFAULT_NUM_SAMPLES = 64


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a single evolution run."""

    eps: float
    lam: float
    T: float
    grid: Grid
    dt0: float = 1e-3
    c_lam: float = 0.2
    m: int = 2
    dealias: bool = True
    sample_times: tuple[float, ...] = ()

    def __post_init__(self):
        # an infinite lam gives dt = 0 and an infinite T no end: the march
        # would never finish
        for name in ("lam", "T", "dt0", "c_lam"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        _check_eps(self.eps)
        _check_lam(self.lam)
        if not (self.T > 0.0):
            raise ParameterError(f"T must be positive, got {self.T}")
        if not (self.dt0 > 0.0 and self.c_lam > 0.0):
            raise ParameterError("dt0 and c_lam must be positive")
        if self.m < 0:
            raise ParameterError(f"m must be >= 0, got {self.m}")
        times = tuple(float(t) for t in self.sample_times)
        if not times:
            times = tuple(np.linspace(0.0, self.T, DEFAULT_NUM_SAMPLES))
        # a NaN fails every comparison, so it fails the range test
        if not all(0.0 <= t <= self.T + 1e-12 for t in times) or list(times) != sorted(times):
            raise ParameterError("sample times must be finite and sorted within [0, T]")
        object.__setattr__(self, "sample_times", times)

    @property
    def dt(self) -> float:
        return min(self.dt0, self.c_lam / self.lam)


@dataclass(frozen=True)
class ZakharovState:
    """Full state (t, E, n, dn/dt) of the coupled system."""

    t: float
    E: Field
    n: Field
    nt: Field

    def __post_init__(self):
        require_same_grid(self.E, self.n, self.nt)
        if np.iscomplexobj(self.n.values) or np.iscomplexobj(self.nt.values):
            raise ParameterError("n and nt must be real fields")

    @property
    def grid(self) -> Grid:
        return self.E.grid


@dataclass(frozen=True)
class SchrodingerState:
    """State (t, E) of the limit equation."""

    t: float
    E: Field

    @property
    def grid(self) -> Grid:
        return self.E.grid


@dataclass(frozen=True)
class InitialData:
    """Initial triple (E0, n0, n1)."""

    E0: Field
    n0: Field
    n1: Field

    def __post_init__(self):
        require_same_grid(self.E0, self.n0, self.n1)
        if np.iscomplexobj(self.n0.values) or np.iscomplexobj(self.n1.values):
            raise ParameterError("n0 and n1 must be real fields")
        norm = l2_norm(self.n1)
        mean = abs(np.mean(self.n1.values))
        if norm > 0.0 and mean > MEAN_TOL * max(norm, 1.0):
            raise ParameterError("n1 must have zero mean (homogeneous H^-1 membership)")

    @property
    def grid(self) -> Grid:
        return self.E0.grid

    def initial_state(self) -> ZakharovState:
        return ZakharovState(t=0.0, E=self.E0, n=self.n0, nt=self.n1)


@dataclass(frozen=True)
class PresetParams:
    """Gaussian-family parameters for the initial-data presets."""

    amplitude: float = 1.0
    width: float = 2.0
    k0: float = 0.0
    chirp: float = 0.0
    center: tuple[float, ...] = (0.0,)
    n_amplitude: float = 0.5
    n_width: float = 3.0
    n_k0: float = 0.0
    n_center: tuple[float, ...] = (0.0,)
    n1_amplitude: float = 0.3
    n1_width: float = 3.0
    n1_center: tuple[float, ...] = (0.0,)
    min_points_per_width: float = 8.0
    edge_tol: float = 1e-12


def _padded_center(grid: Grid, center: tuple[float, ...]) -> tuple[float, ...]:
    """center with zeros appended up to one coordinate per grid axis."""
    if len(center) > grid.d:
        raise ParameterError(f"center {list(center)} has {len(center)} coordinates "
                             f"on a {grid.d}-D grid")
    return tuple(center) + (0.0,) * (grid.d - len(center))


def _gaussian(grid: Grid, amplitude: float, width: float, center: tuple[float, ...]) -> np.ndarray:
    center = _padded_center(grid, center)
    r2 = sum((x - c) ** 2 for x, c in zip(grid.coordinates, center))
    return amplitude * np.exp(-r2 / width**2)


def check_resolution(grid: Grid, width: float, center: tuple[float, ...],
                     params: PresetParams) -> None:
    """Raise ResolutionError unless the Gaussian is resolved and inside the
    box, and ParameterError for a center with more coordinates than the
    grid has axes."""
    if width < params.min_points_per_width * grid.dx:
        raise ResolutionError(
            f"Gaussian width {width:g} is under-resolved: needs >= "
            f"{params.min_points_per_width:g} points per width (dx = {grid.dx:g})"
        )
    center = _padded_center(grid, center)
    margin = min(grid.L / 2.0 - abs(c) for c in center)
    if margin <= 0.0 or np.exp(-((margin / width) ** 2)) > params.edge_tol:
        raise ResolutionError(
            f"box too small: Gaussian of width {width:g} at offset {center} "
            f"exceeds edge tolerance {params.edge_tol:g}"
        )


def check_carrier(grid: Grid, params: PresetParams, key: str) -> None:
    """Raise ResolutionError unless the largest local wavenumber of the
    carrier that key sets lies in the 2/3 band (2/3) pi/dx: |k0|, or
    |k0| + 2 |chirp| R at the radius R where the envelope falls to
    edge_tol, or |n_k0|. A sampled carrier beyond the band folds into it
    as another wave, so that the built data's spectrum cannot show it."""
    radius = params.width * math.sqrt(-math.log(params.edge_tol))
    wavenumber = {"k0": abs(params.k0), "n_k0": abs(params.n_k0),
                  "chirp": abs(params.k0) + 2.0 * (abs(params.chirp) * radius)}[key]
    band = (2.0 / 3.0) * math.pi / grid.dx
    if not wavenumber <= band:
        raise ResolutionError(f"the carrier set by {key} reaches wavenumber {wavenumber:g}, "
                              f"beyond the 2/3 band {band:g} of the grid (dx = {grid.dx:g})")


def ieps_intensity(E: Field, eps: float) -> np.ndarray:
    """Samples of I_eps |E|^2 with the dealiased quadratic product."""
    symbol = potential_symbol(E.grid, eps)
    return np.fft.ifftn(np.fft.fftn(np.abs(E.values) ** 2) * symbol).real


def q_field(s: ZakharovState, eps: float) -> Field:
    """The compatibility variable Q = n + I_eps |E|^2."""
    return real_field(s.grid, s.n.values + ieps_intensity(s.E, eps))


def layer_velocity_source(E0: Field, eps: float) -> Field:
    """2 Im(E0 conj(Delta_eps E0)), the envelope part of d/dt Q at t=0.

    With E0 = a + ib this is 2 (b Delta_eps a - a Delta_eps b). Taking a
    and b as real fields makes the source exactly zero for a real
    envelope, where the complex product would leave rounding noise.
    """
    grid = E0.grid
    symbol = delta_eps(grid, eps)
    a, b = E0.values.real, E0.values.imag
    delta_a = apply_multiplier(real_field(grid, a), symbol).values
    delta_b = apply_multiplier(real_field(grid, b), symbol).values
    product = np.fft.ifftn(np.fft.fftn(b * delta_a - a * delta_b) * dealias_mask(grid)).real
    return real_field(grid, 2.0 * product)


def preset_initial_data(kind: str, params: PresetParams, grid: Grid, eps: float) -> InitialData:
    """Deterministic Gaussian initial data for the three regimes."""
    if kind not in PRESET_KINDS:
        raise ParameterError(f"unknown preset kind {kind!r}")
    _check_eps(eps)

    check_resolution(grid, params.width, params.center, params)
    for key in ("k0", "chirp"):
        check_carrier(grid, params, key)
    envelope = _gaussian(grid, params.amplitude, params.width, params.center)
    center = _padded_center(grid, params.center)
    phase = params.k0 * (grid.coordinates[0] - center[0])
    if params.chirp != 0.0:
        phase = phase + params.chirp * sum(
            (x - c) ** 2 for x, c in zip(grid.coordinates, center)
        )
    E0 = complex_field(grid, envelope * np.exp(1j * phase))

    if kind == "generic":
        check_resolution(grid, params.n_width, params.n_center, params)
        check_resolution(grid, params.n1_width, params.n1_center, params)
        check_carrier(grid, params, "n_k0")
        n0_vals = _gaussian(grid, params.n_amplitude, params.n_width, params.n_center)
        if params.n_k0 != 0.0:
            n_center = _padded_center(grid, params.n_center)
            n0_vals = n0_vals * np.cos(params.n_k0 * (grid.coordinates[0] - n_center[0]))
        n1_center = _padded_center(grid, params.n1_center)
        bump = _gaussian(grid, params.n1_amplitude, params.n1_width, params.n1_center)
        n1_vals = bump * (-2.0 * (grid.coordinates[0] - n1_center[0]) / params.n1_width**2)
        n0 = real_field(grid, n0_vals)
        n1 = real_field(grid, _remove_tiny_mean(n1_vals))
        return InitialData(E0=E0, n0=n0, n1=n1)

    n0 = real_field(grid, -ieps_intensity(E0, eps))
    if kind == "compatible":
        n1 = real_field(grid, np.zeros(grid.shape))
    else:
        n1 = real_field(grid, _remove_tiny_mean(-layer_velocity_source(E0, eps).values))
    return InitialData(E0=E0, n0=n0, n1=n1)


def _remove_tiny_mean(values: np.ndarray) -> np.ndarray:
    mean = np.mean(values)
    if abs(mean) > MEAN_TOL:
        return values - mean
    return values
