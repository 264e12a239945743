import numpy as np
import pytest

from qzak import real_field, complex_field, to_spectral
from qzak.errors import InconsistentGridError, RepresentationError
from qzak.field import dealias_mask, dealias_values, inverse_values
from qzak.norms import l2_norm

from conftest import random_complex_values, random_real_values


def test_constant_field_transform(grid16):
    fh = to_spectral(real_field(grid16, np.ones(16)))
    assert np.isclose(abs(fh[0]) ** 2, 2.0 * np.pi)
    others = np.delete(fh, 0)
    assert np.max(np.abs(others)) < 1e-14


def test_cosine_two_modes(grid16):
    x = grid16.coordinates[0]
    fh = to_spectral(real_field(grid16, np.cos(x)))
    mags = np.abs(fh)
    j = grid16.mode_indices_1d
    assert np.isclose(mags[j == 1][0], mags[j == -1][0])
    rest = mags[(j != 1) & (j != -1)]
    assert np.max(rest) < 1e-13 * np.max(mags)


def test_roundtrip_random_real(rng, grid64):
    f = real_field(grid64, random_real_values(rng, grid64))
    back = inverse_values(grid64, to_spectral(f))
    # the inverse transform is complex even when its values are real
    assert back.dtype == np.complex128
    assert np.max(np.abs(back - f.values)) < 1e-12 * np.max(np.abs(f.values))


def test_roundtrip_random_complex_2d(rng, grid2d):
    f = complex_field(grid2d, random_complex_values(rng, grid2d))
    back = inverse_values(grid2d, to_spectral(f))
    err = np.max(np.abs(back - f.values))
    assert err < 1e-12 * np.max(np.abs(f.values))


def test_plancherel(rng, grid64):
    f = complex_field(grid64, random_complex_values(rng, grid64))
    coeff_norm = np.sqrt(np.sum(np.abs(to_spectral(f)) ** 2))
    assert np.isclose(l2_norm(f), coeff_norm, rtol=1e-12)


def test_real_field_conjugate_symmetry(rng, grid64):
    f = real_field(grid64, random_real_values(rng, grid64))
    coeffs = to_spectral(f)
    j = grid64.mode_indices_1d
    for m in range(1, 32):
        a = coeffs[j == m][0]
        b = coeffs[j == -m][0]
        assert abs(a - np.conj(b)) < 1e-12 * max(abs(a), 1.0)


def test_real_field_rejects_imaginary(grid16):
    with pytest.raises(RepresentationError):
        real_field(grid16, np.ones(16) * (1 + 1e-3j))


def test_shape_mismatch(grid16):
    with pytest.raises(InconsistentGridError):
        real_field(grid16, np.ones(17))


def test_fields_immutable(grid16):
    values = np.ones(16)
    f = real_field(grid16, values)
    # a read-only view of the caller's array, not a copy
    assert np.shares_memory(f.values, values) and values.flags.writeable
    with pytest.raises(AttributeError):
        f.values = np.zeros(16)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_dealias_keeps_inner_band(rng, grid64):
    coeffs = np.zeros(64, dtype=complex)
    j = grid64.mode_indices_1d
    inner = np.abs(j) <= 64 / 3
    coeffs[inner] = random_complex_values(rng, grid64)[inner]
    values = inverse_values(grid64, coeffs)
    out = dealias_values(grid64, values)
    np.testing.assert_allclose(out, values, rtol=0.0, atol=1e-14 * np.max(np.abs(values)))


def test_dealias_kills_nyquist(grid64):
    coeffs = np.zeros(64, dtype=complex)
    coeffs[grid64.mode_indices_1d == -32] = 1.0
    values = inverse_values(grid64, coeffs).real
    out = dealias_values(grid64, values)
    # a real product stays real
    assert out.dtype == np.float64
    assert np.max(np.abs(out)) < 1e-14 * np.max(np.abs(values))


def test_dealias_idempotent(rng, grid64):
    once = dealias_values(grid64, random_complex_values(rng, grid64))
    twice = dealias_values(grid64, once)
    np.testing.assert_allclose(twice, once, rtol=0.0, atol=1e-14 * np.max(np.abs(once)))


def test_dealias_mask_2d_cross(grid2d):
    mask = dealias_mask(grid2d)
    j = np.abs(grid2d.mode_indices_1d)
    keep = j <= 32 / 3
    assert mask.shape == (32, 32)
    # a mode survives only if both axis indices are inside the band
    assert mask[np.argmax(~keep), np.argmax(keep)] == False  # noqa: E712
    assert mask[np.argmax(keep), np.argmax(keep)] == True  # noqa: E712
