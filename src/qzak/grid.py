"""Periodic-box grids and their wavenumber lattices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridSpecError


def _check_dimension(d) -> None:
    if d not in (1, 2):
        raise GridSpecError(f"dimension must be 1 or 2, got {d}")


def _check_size(N) -> None:
    if not isinstance(N, int) or N < 16 or (N & (N - 1)) != 0:
        raise GridSpecError(f"N must be a power of two >= 16, got {N}")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the centered box [-L/2, L/2)^d.

    The wavenumber lattice per axis is xi_j = 2*pi*j/L for integer
    j in [-N/2, N/2), stored in FFT order.
    """

    d: int
    N: int
    L: float

    def __post_init__(self):
        _check_dimension(self.d)
        _check_size(self.N)
        if not (self.L > 0):
            raise GridSpecError(f"box length must be positive, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def axes(self) -> tuple[int, ...]:
        """The trailing array axes of a field's values, so that a reduction
        over them gives one value per field of a stack."""
        return tuple(range(-self.d, 0))

    @property
    def size(self) -> int:
        return self.N**self.d

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    @cached_property
    def wavenumbers_1d(self) -> np.ndarray:
        """Wavenumber axis 2*pi*j/L in FFT order, j in [-N/2, N/2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    @cached_property
    def mode_indices_1d(self) -> np.ndarray:
        """Integer mode indices j in FFT order."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N).astype(int)

    def _mesh(self, axis: np.ndarray) -> tuple[np.ndarray, ...]:
        """Read-only views of a 1-D axis broadcast to the grid shape, one
        per dimension: at d=2 they hold no grid-sized buffer."""
        if self.d == 1:
            return (axis,)
        return (np.broadcast_to(axis[:, None], self.shape),
                np.broadcast_to(axis, self.shape))

    @cached_property
    def wavenumber_mesh(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumber arrays broadcast to the full grid shape."""
        return self._mesh(self.wavenumbers_1d)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|xi|^2 on the full lattice."""
        k2 = self.wavenumbers_1d**2
        # the leading 0 + keeps the bits of summing the per-axis squares
        return k2 if self.d == 1 else 0 + k2[:, None] + k2

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Per-axis signed coordinates in [-L/2, L/2), broadcast to the grid."""
        return self._mesh(-0.5 * self.L + self.dx * np.arange(self.N))


def make_grid(d: int, N: int, L: float) -> Grid:
    """Build a validated periodic grid."""
    return Grid(d=d, N=int(N), L=float(L))
