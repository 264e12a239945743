import numpy as np
import pytest

from qzak import PresetParams, make_grid, preset_initial_data, q_field, sobolev_norm
from qzak.operators import _omega_eps


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid16():
    return make_grid(1, 16, 2.0 * np.pi)


@pytest.fixture
def grid64():
    return make_grid(1, 64, 2.0 * np.pi)


@pytest.fixture
def grid256():
    return make_grid(1, 256, 20.0 * np.pi)


@pytest.fixture
def grid2d():
    return make_grid(2, 32, 2.0 * np.pi)


@pytest.fixture
def gauss_params():
    return PresetParams(amplitude=0.8, width=2.0, n_amplitude=0.4, n_width=2.5,
                        n_center=(2.0,), n1_amplitude=0.2, n1_width=2.5,
                        n1_center=(-2.0,))


@pytest.fixture
def generic_data(grid256, gauss_params):
    return preset_initial_data("generic", gauss_params, grid256, eps=1.0)


def random_real_values(rng, grid):
    return rng.standard_normal(grid.shape)


def random_complex_values(rng, grid):
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


def omega_eps(grid, eps):
    """The wave frequency omega_eps on every mode of the lattice."""
    return _omega_eps(grid.k_squared, eps, np.empty(grid.shape))


def compatibility_defect(data, eps, m):
    """H^m size of Q = n0 + I_eps |E0|^2 at t=0 (zero for compatible data)."""
    return sobolev_norm(q_field(data.initial_state(), eps), m)
