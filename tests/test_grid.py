import numpy as np
import pytest

from qzak import make_grid
from qzak.errors import GridSpecError


def test_lattice_integers_for_2pi_box():
    g = make_grid(1, 16, 2.0 * np.pi)
    assert sorted(g.mode_indices_1d.tolist()) == list(range(-8, 8))
    np.testing.assert_allclose(sorted(g.wavenumbers_1d), np.arange(-8, 8), atol=1e-12)


def test_lattice_spacing_for_pi_box():
    g = make_grid(1, 16, np.pi)
    ks = sorted(g.wavenumbers_1d)
    np.testing.assert_allclose(ks, np.arange(-16, 16, 2), atol=1e-12)


def test_lattice_2d_tensor_product():
    g = make_grid(2, 16, 2.0 * np.pi)
    kx, ky = g.wavenumber_mesh
    assert kx.shape == (16, 16)
    np.testing.assert_allclose(sorted(set(kx.ravel())), np.arange(-8, 8), atol=1e-12)
    np.testing.assert_allclose(kx[:, 0], ky[0, :], atol=0)


def test_2d_meshes_hold_no_grid_sized_buffer():
    g = make_grid(2, 16, 3.0)
    for mesh in (g.wavenumber_mesh, g.coordinates):
        assert [a.shape for a in mesh] == [g.shape, g.shape]
        assert [0 in a.strides for a in mesh] == [True, True]
        assert not any(a.flags.writeable for a in mesh)
    # the same bits as summing the squares of dense meshgrid arrays
    old = sum(k**2 for k in np.meshgrid(g.wavenumbers_1d, g.wavenumbers_1d,
                                         indexing="ij"))
    assert [v.hex() for v in g.k_squared.ravel()] == [v.hex() for v in old.ravel()]


def test_lattice_symmetric_except_nyquist():
    g = make_grid(1, 32, 5.0)
    ks = g.wavenumbers_1d
    nonneg = np.sort(ks[ks >= 0])
    neg = np.sort(-ks[ks < 0])
    # every negative mode except the single Nyquist has a positive partner
    np.testing.assert_allclose(neg[:-1], nonneg[1:], atol=1e-12)
    assert np.isclose(neg[-1], 32 / 2 * 2 * np.pi / 5.0)


def test_coordinates_centered():
    g = make_grid(1, 16, 4.0)
    x = g.coordinates[0]
    assert x[0] == -2.0
    assert x[-1] == 2.0 - g.dx
    assert np.isclose(g.dx, 0.25)


@pytest.mark.parametrize("d,N,L", [(3, 16, 1.0), (0, 16, 1.0)])
def test_invalid_dimension(d, N, L):
    with pytest.raises(GridSpecError):
        make_grid(d, N, L)


@pytest.mark.parametrize("N", [15, 17, 24, 8, 0])
def test_invalid_size(N):
    with pytest.raises(GridSpecError):
        make_grid(1, N, 1.0)


@pytest.mark.parametrize("L", [0.0, -1.0])
def test_invalid_length(L):
    with pytest.raises(GridSpecError):
        make_grid(1, 16, L)


def test_grids_hash_and_compare_by_parameters():
    a = make_grid(1, 16, 2.0)
    b = make_grid(1, 16, 2.0)
    assert a == b and hash(a) == hash(b)
    assert a != make_grid(1, 32, 2.0)
