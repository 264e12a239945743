import numpy as np
import pytest

from qzak import apply_multiplier, complex_field, real_field
from qzak.errors import ParameterError
from qzak.field import dealias_mask, inverse_values, to_spectral
from qzak.grid import make_grid
from qzak.operators import (_schrodinger_group, delta_eps, i_eps, omega_eps,
                            potential_symbol, unit_phase, wave_cos, wave_propagator)

from conftest import random_real_values


def wave_symbols(grid, eps, lam, t):
    """(cos, sinc, rate) of wave_propagator as fresh arrays."""
    rows = np.empty((3,) + grid.shape)
    wave_propagator(omega_eps(grid, eps), lam, t, *rows, np.empty(grid.shape))
    return rows


def schrodinger_group(grid, eps, t):
    return _schrodinger_group(grid.k_squared, eps, t, np.empty(grid.shape, complex))


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
    cos, sinc, rate = wave_symbols(grid64, 1.0, 10.0, 0.0)
    zero = apply_multiplier(f, sinc)
    ident = apply_multiplier(f, wave_cos(grid64, 1.0, 10.0, 0.0))
    assert np.max(np.abs(zero.values)) == 0.0
    assert np.max(np.abs(rate)) == 0.0
    np.testing.assert_array_equal(cos, wave_cos(grid64, 1.0, 10.0, 0.0))
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
    cos, sinc, rate = wave_symbols(grid64, eps, lam, t)
    nz = om > 0
    np.testing.assert_allclose(cos[nz] ** 2 + (lam * om[nz] * sinc[nz]) ** 2,
                               np.ones(nz.sum()), atol=1e-12)
    # rate is d/dt cos(lam t om) = -(lam om)^2 sinc
    np.testing.assert_allclose(rate[nz], -(lam * om[nz]) ** 2 * sinc[nz], rtol=1e-12)
    assert sinc[~nz][0] == t and rate[~nz][0] == 0.0


@pytest.mark.parametrize("d,N,L", [(1, 1024, 40 * np.pi), (2, 256, 16 * np.pi)])
def test_wave_propagator_has_the_bits_of_each_symbol_alone(d, N, L):
    # one sin shared by both sin symbols, written into given rows, leaves
    # every element as the lone expression of its symbol gives it
    grid = make_grid(d, N, L)
    eps, lam, t = 0.5, 16.0, 0.05 / 63
    om = omega_eps(grid, eps)
    cos, sinc, rate = wave_symbols(grid, eps, lam, t)
    nz = om > 0.0
    alone = np.full(grid.shape, t)
    alone[nz] = np.sin(lam * t * om[nz]) / (lam * om[nz])
    assert cos.tobytes() == wave_cos(grid, eps, lam, t).tobytes()
    assert sinc.tobytes() == alone.tobytes()
    assert rate.tobytes() == (-(lam * om * np.sin(lam * t * om))).tobytes()


def test_real_symbols_preserve_realness(rng, grid64):
    f = real_field(grid64, random_real_values(rng, grid64))
    for symbol in (delta_eps(grid64, 0.5), i_eps(grid64, 0.5), omega_eps(grid64, 0.5),
                   wave_cos(grid64, 0.5, 3.0, 0.2), *wave_symbols(grid64, 0.5, 3.0, 0.2)):
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
        wave_cos(grid16, lam=2.0, t=0.1, **kw)


def test_invalid_lam_and_sigma(grid16):
    with pytest.raises(ParameterError):
        wave_cos(grid16, 1.0, 0.5, 0.1)
    with pytest.raises(ParameterError):
        wave_cos(grid16, 1.0, 2.0, None)
    for lam, t in ((0.5, 0.1), (2.0, None)):
        with pytest.raises(ParameterError):
            wave_symbols(grid16, 1.0, lam, t)


# The solvers build their phases from cos and sin on the premise that
# numpy's complex exp of (0, x) returns exactly (cos x, sin x); a numpy
# upgrade that breaks it must fail here. The grids are those of the
# committed d=1 configs and of the d=2 benchmark workload; t covers the
# half steps of their dt values and short landing steps, and the kick
# arguments h/2 n cover |n| up to 1e3. Signed zeros compare equal.
@pytest.mark.parametrize("d,N,L", [(1, 1024, 40.0 * np.pi), (2, 256, 16.0 * np.pi)])
def test_unit_phase_equals_complex_exp(rng, d, N, L):
    grid = make_grid(d, N, L)
    out = np.empty(grid.shape, dtype=complex)
    k2 = grid.k_squared
    y = k2 + k2 * k2
    for t in (2e-3, 1e-3, 5e-4, 3.125e-4, 1.25e-4, 1e-7):
        np.testing.assert_array_equal(schrodinger_group(grid, 1.0, t), np.exp(-1j * t * y))
        np.testing.assert_array_equal(unit_phase(-t * y, out), np.exp(1j * (-t * y)))
    for h in (4e-3, 1e-3, 6.25e-4, 1e-6):
        n = rng.uniform(-1e3, 1e3, grid.shape)
        np.testing.assert_array_equal(unit_phase(-0.5 * h * n, out),
                                      np.exp(-0.5j * h * n))
        np.testing.assert_array_equal(unit_phase(0.5 * h * n, out),
                                      np.exp(-0.5j * h * -n))

