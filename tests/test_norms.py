import numpy as np
import pytest

from qzak import l2_norm, make_grid, real_field, sobolev_norm
from qzak.errors import ParameterError
from qzak.operators import derivative_fields

from conftest import random_real_values


def derivative_norm_sum(f, m):
    """Brute-force sum_{k<=m} ||grad^k f||_L2, the reference for H^m."""
    total = 0.0
    for k in range(m + 1):
        comps = derivative_fields(f, k)
        total += np.sqrt(sum(l2_norm(c) ** 2 for c in comps))
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
