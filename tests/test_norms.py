import numpy as np
import pytest

from qzak import (Field, complex_field, l2_norm, make_grid, real_field, sobolev_norm,
                  spectral_tail, to_spectral)
from qzak.errors import ParameterError
from qzak.field import inverse_values
from qzak.operators import _derivative_symbol

from conftest import random_real_values


def derivative_norm_sum(f, m):
    """Brute-force sum_{k<=m} ||grad^k f||_L2, the reference for H^m.

    The k-th derivative is Lap^{k/2} f for even k and the d components of
    grad Lap^{(k-1)/2} f for odd k, each taken back to physical space.
    """
    grid = f.grid
    coeffs = to_spectral(f)
    total = 0.0
    for k in range(m + 1):
        base = (-grid.k_squared) ** (k // 2) * coeffs
        comps = [base] if k % 2 == 0 else [_derivative_symbol(grid, axis) * base
                                           for axis in range(grid.d)]
        total += np.sqrt(sum(l2_norm(Field(grid, inverse_values(grid, c))) ** 2
                             for c in comps))
    return float(total)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_constant_sobolev_norm(grid16, m):
    f = real_field(grid16, np.ones(16))
    assert np.isclose(sobolev_norm(f, m), np.sqrt(2.0 * np.pi))


def test_cosine_h1_norm(grid16):
    x = grid16.coordinates[0]
    f = real_field(grid16, np.cos(x))
    assert np.isclose(sobolev_norm(f, 1), np.sqrt(2.0) * np.sqrt(np.pi))


def test_sobolev_monotone_in_m(rng, grid64):
    f = real_field(grid64, random_real_values(rng, grid64))
    norms = [sobolev_norm(f, m) for m in range(4)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))


def test_sobolev_zero_equals_l2(rng, grid64):
    f = real_field(grid64, random_real_values(rng, grid64))
    assert np.isclose(sobolev_norm(f, 0), l2_norm(f), rtol=1e-12)


def test_sobolev_vs_derivative_sum_gaussian():
    g = make_grid(1, 256, 20.0 * np.pi)
    x = g.coordinates[0]
    f = real_field(g, np.exp(-(x**2)))
    ratio = sobolev_norm(f, 2) / derivative_norm_sum(f, 2)
    assert 1.0 / np.sqrt(3.0) <= ratio <= np.sqrt(3.0)


def test_sobolev_vs_derivative_sum_2d(rng, grid2d):
    f = real_field(grid2d, random_real_values(rng, grid2d))
    ratio = sobolev_norm(f, 2) / derivative_norm_sum(f, 2)
    assert 1.0 / np.sqrt(3.0) <= ratio <= np.sqrt(3.0)


def test_negative_arguments_rejected(grid16):
    f = real_field(grid16, np.ones(16))
    with pytest.raises(ParameterError):
        sobolev_norm(f, -2)


def _brute_sum(f, symbol):
    """sum(symbol |fhat|^2) over the full lattice."""
    return float(np.sum(symbol * np.abs(to_spectral(f)) ** 2))


def _outer_lattice(grid, fraction):
    outer = np.abs(grid.mode_indices_1d) >= fraction * grid.N / 2.0
    return outer if grid.d == 1 else np.logical_or.outer(outer, outer)


def _half_spectrum_cases(rng, grid):
    """Real and complex fields with energy in the zero and Nyquist columns,
    and at d=2 fields whose energy sits only in outer rows."""
    x = grid.coordinates[-1]
    zero_and_nyquist = 1.5 + np.cos(np.pi * x / grid.dx) + 0.1 * rng.standard_normal(grid.shape)
    cases = [zero_and_nyquist, zero_and_nyquist + 1j * rng.standard_normal(grid.shape)]
    if grid.d == 2:
        row = 2.0 * np.pi * (grid.N // 2 - 3) * grid.coordinates[0] / grid.L
        cases += [np.cos(row) + 0.5 * np.cos(np.pi * x / grid.dx), np.exp(1j * row)]
    return cases


@pytest.mark.parametrize("d,N", [(1, 64), (2, 32)])
def test_half_spectrum_sums_match_the_full_lattice(rng, d, N):
    grid = make_grid(d, N, 3.0)
    for values in _half_spectrum_cases(rng, grid):
        f = (complex_field if np.iscomplexobj(values) else real_field)(grid, values)
        for m in (0, 2):
            want = np.sqrt(_brute_sum(f, (1.0 + grid.k_squared) ** m))
            assert sobolev_norm(f, m) == pytest.approx(want, rel=1e-13, abs=0.0)
        total = _brute_sum(f, 1.0)
        for fraction in (0.5, 2.0 / 3.0):
            want = _brute_sum(f, _outer_lattice(grid, fraction)) / total
            assert spectral_tail(f, fraction) == pytest.approx(want, rel=1e-13, abs=1e-16)


def test_outer_row_energy_is_all_tail():
    # energy only in rows +-(N/2 - 3) of a d=2 lattice: the stored block's
    # mask must count rows N/2+1..N-1 as the rows they mirror
    grid = make_grid(2, 32, 3.0)
    row = 2.0 * np.pi * (grid.N // 2 - 3) * grid.coordinates[0] / grid.L
    for values in (np.cos(row), np.exp(1j * row), np.exp(-1j * row)):
        f = (complex_field if np.iscomplexobj(values) else real_field)(grid, values)
        assert spectral_tail(f, 2.0 / 3.0) == pytest.approx(1.0, rel=1e-13)
        assert spectral_tail(f, 0.9) < 1e-28
