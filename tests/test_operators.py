import numpy as np
import pytest

from qzak import apply_multiplier, complex_field, real_field
from qzak.errors import ParameterError
from qzak.field import dealias_mask, inverse_values, to_spectral
from qzak.operators import (delta_eps, i_eps, omega_eps, potential_symbol,
                            schrodinger_group, wave_cos, wave_sinc)

from conftest import random_real_values


def single_mode(grid, j):
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[grid.mode_indices_1d == j] = 1.0
    return complex_field(grid, inverse_values(grid, coeffs))


def test_delta_eps_single_mode(grid16):
    f = single_mode(grid16, 1)
    out = to_spectral(apply_multiplier(f, delta_eps(grid16, 1.0)))
    assert np.isclose(out[grid16.mode_indices_1d == 1][0], -2.0)


def test_i_eps_and_omega_single_mode(grid16):
    f = single_mode(grid16, 1)
    ieps = to_spectral(apply_multiplier(f, i_eps(grid16, 1.0)))
    om = to_spectral(apply_multiplier(f, omega_eps(grid16, 1.0)))
    sel = grid16.mode_indices_1d == 1
    assert np.isclose(ieps[sel][0], 0.5)
    assert np.isclose(om[sel][0], np.sqrt(2.0))
    # the potential symbol is I_eps, zeroed outside the 2/3 band when dealiased
    plain = i_eps(grid16, 1.0)
    np.testing.assert_array_equal(potential_symbol(grid16, 1.0, dealias=False), plain)
    keep = dealias_mask(grid16)
    banded = potential_symbol(grid16, 1.0)
    np.testing.assert_array_equal(banded[keep], plain[keep])
    assert not keep.all() and np.all(banded[~keep] == 0.0)


def test_wave_propagators_at_t0(rng, grid64):
    f = real_field(grid64, random_real_values(rng, grid64))
    zero = apply_multiplier(f, wave_sinc(grid64, 1.0, 10.0, 0.0))
    ident = apply_multiplier(f, wave_cos(grid64, 1.0, 10.0, 0.0))
    assert np.max(np.abs(zero.values)) == 0.0
    np.testing.assert_allclose(ident.values, f.values, atol=1e-14)


def test_schrodinger_group_inverse(rng, grid64):
    f = complex_field(grid64, random_real_values(rng, grid64) + 0.5j)
    fwd = apply_multiplier(f, schrodinger_group(grid64, 0.7, 0.3))
    back = apply_multiplier(fwd, schrodinger_group(grid64, 0.7, -0.3))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


def test_wave_energy_identity(grid64):
    # per-mode rotation invariant: cos^2 + (lam*omega*sinc)^2 = 1 off the zero mode
    lam, t, eps = 7.0, 0.37, 0.8
    om = omega_eps(grid64, eps)
    cos = wave_cos(grid64, eps, lam, t)
    sinc = wave_sinc(grid64, eps, lam, t)
    nz = om > 0
    np.testing.assert_allclose(cos[nz] ** 2 + (lam * om[nz] * sinc[nz]) ** 2,
                               np.ones(nz.sum()), atol=1e-12)


def test_real_symbols_preserve_realness(rng, grid64):
    f = real_field(grid64, random_real_values(rng, grid64))
    for symbol in (delta_eps(grid64, 0.5), i_eps(grid64, 0.5), omega_eps(grid64, 0.5),
                   wave_cos(grid64, 0.5, 3.0, 0.2), wave_sinc(grid64, 0.5, 3.0, 0.2)):
        out = apply_multiplier(f, symbol)
        assert out.values.dtype == np.float64


def test_realness_follows_dtype(grid64):
    x = grid64.coordinates[0]
    f = real_field(grid64, np.cos(x))
    # a complex symbol, or a complex field, gives a complex result
    assert apply_multiplier(f, schrodinger_group(grid64, 1.0, 0.1)).values.dtype == np.complex128
    E = complex_field(grid64, np.cos(x))
    assert apply_multiplier(E, i_eps(grid64, 1.0)).values.dtype == np.complex128


@pytest.mark.parametrize("kw", [dict(eps=0.0), dict(eps=1.5), dict(eps=-0.2)])
def test_invalid_eps(grid16, kw):
    for symbol in (delta_eps, i_eps, omega_eps, potential_symbol):
        with pytest.raises(ParameterError):
            symbol(grid16, **kw)
    with pytest.raises(ParameterError):
        schrodinger_group(grid16, t=0.1, **kw)
    for symbol in (wave_cos, wave_sinc):
        with pytest.raises(ParameterError):
            symbol(grid16, lam=2.0, t=0.1, **kw)


def test_invalid_lam_and_sigma(grid16):
    for symbol in (wave_cos, wave_sinc):
        with pytest.raises(ParameterError):
            symbol(grid16, 1.0, 0.5, 0.1)
        with pytest.raises(ParameterError):
            symbol(grid16, 1.0, 2.0, None)
    with pytest.raises(ParameterError):
        schrodinger_group(grid16, 1.0, None)
