import math

import numpy as np
import pytest

from conftest import compatibility_defect
from qzak import (InitialData, PresetParams, SimConfig, apply_multiplier,
                  complex_field, l2_norm, make_grid, preset_initial_data,
                  real_field)
from qzak.errors import ParameterError, ResolutionError
from qzak.operators import delta_eps
from qzak.state import check_amplitude, check_carrier


def test_compatible_defect_vanishes(grid256, grid2d):
    data = preset_initial_data("compatible", PresetParams(), grid256, eps=1.0)
    assert np.all(data.n1.values == 0.0)
    # n0 is built as -I_eps |E0|^2 by the same formula that Q adds back, so
    # the defect is exactly zero and the presets need no check of it
    wide = PresetParams(width=1.2, chirp=0.2, min_points_per_width=4.0, edge_tol=1e-2)
    cases = ((grid256, PresetParams()), (grid256, PresetParams(chirp=0.2)), (grid2d, wide))
    for kind in ("compatible", "well-prepared"):
        for grid, params in cases:
            data = preset_initial_data(kind, params, grid, eps=1.0)
            assert compatibility_defect(data, 1.0, 0) == 0.0
            assert compatibility_defect(data, 1.0, 2) == 0.0


def test_well_prepared_real_envelope_has_zero_n1(grid256):
    params = PresetParams(amplitude=0.7, width=2.0, k0=0.0, chirp=0.0)
    data = preset_initial_data("well-prepared", params, grid256, eps=1.0)
    assert np.max(np.abs(data.n1.values)) < 1e-12


def test_well_prepared_chirped_kills_velocity_source(grid256):
    params = PresetParams(amplitude=0.7, width=2.0, chirp=0.2)
    data = preset_initial_data("well-prepared", params, grid256, eps=1.0)
    delta_e = apply_multiplier(data.E0, delta_eps(grid256, 1.0))
    source = 2.0 * np.imag(data.E0.values * np.conj(delta_e.values))
    residual = data.n1.values + source
    # the sampled source is not dealiased here, so allow spectral-tail slack
    assert np.max(np.abs(residual)) < 1e-8 * np.max(np.abs(source))
    assert np.max(np.abs(data.n1.values)) > 1e-3  # genuinely nonzero
    assert abs(np.mean(data.n1.values)) < 1e-12


def test_generic_defect_positive_and_cross_checked(grid256, gauss_params):
    data = preset_initial_data("generic", gauss_params, grid256, eps=1.0)
    got = compatibility_defect(data, 1.0, 2)
    assert got > 0.01

    # independent recompute: raw ffts, Bessel weight, dealiased product
    g = grid256
    intensity_hat = np.fft.fft(np.abs(data.E0.values) ** 2)
    j = np.abs(g.mode_indices_1d)
    intensity_hat[j > g.N / 3.0] = 0.0
    k = g.wavenumbers_1d
    smoothed = np.fft.ifft(intensity_hat / (1.0 + k**2)).real
    total = data.n0.values + smoothed
    total_hat = np.fft.fft(total) * np.sqrt(g.L) / g.N
    expected = np.sqrt(np.sum((1.0 + k**2) ** 2 * np.abs(total_hat) ** 2))
    assert np.isclose(got, expected, rtol=1e-10)


def test_zero_n0_defect_is_intensity_norm(grid256):
    g = grid256
    x = g.coordinates[0]
    E0 = complex_field(g, 0.5 * np.exp(-(x**2) / 4.0))
    zero = real_field(g, np.zeros(g.shape))
    data = InitialData(E0=E0, n0=zero, n1=zero)
    assert compatibility_defect(data, 1.0, 2) > 0.1


def test_presets_deterministic(grid256, gauss_params):
    a = preset_initial_data("generic", gauss_params, grid256, eps=1.0)
    b = preset_initial_data("generic", gauss_params, grid256, eps=1.0)
    assert np.array_equal(a.E0.values, b.E0.values)
    assert np.array_equal(a.n0.values, b.n0.values)
    assert np.array_equal(a.n1.values, b.n1.values)


@pytest.mark.parametrize("kind", ["generic", "compatible", "well-prepared"])
def test_n1_zero_mean_every_kind(grid256, gauss_params, kind):
    params = gauss_params if kind == "generic" else PresetParams(chirp=0.3)
    data = preset_initial_data(kind, params, grid256, eps=1.0)
    norm = l2_norm(data.n1)
    assert abs(np.mean(data.n1.values)) <= 1e-12 * max(norm, 1.0)


def test_under_resolved_width_raises():
    g = make_grid(1, 64, 40.0 * np.pi)  # dx ~ 2
    with pytest.raises(ResolutionError):
        preset_initial_data("compatible", PresetParams(width=2.0), g, eps=1.0)


def test_box_too_small_raises():
    g = make_grid(1, 256, 8.0)  # half-width 4, Gaussian width 2
    with pytest.raises(ResolutionError):
        preset_initial_data("compatible", PresetParams(width=2.0), g, eps=1.0)


def test_n1_mean_enforced_on_construction(grid64):
    zero = real_field(grid64, np.zeros(64))
    bad = real_field(grid64, np.ones(64))
    E = complex_field(grid64, np.zeros(64, dtype=complex))
    with pytest.raises(ParameterError):
        InitialData(E0=E, n0=zero, n1=bad)


def test_simconfig_validation(grid64):
    with pytest.raises(ParameterError):
        SimConfig(eps=1.5, lam=4.0, T=0.5, grid=grid64)
    with pytest.raises(ParameterError):
        SimConfig(eps=1.0, lam=0.5, T=0.5, grid=grid64)
    with pytest.raises(ParameterError):
        SimConfig(eps=1.0, lam=4.0, T=0.5, grid=grid64, sample_times=(0.2, 0.1))
    with pytest.raises(ParameterError):
        SimConfig(eps=1.0, lam=4.0, T=0.5, grid=grid64, sample_times=(0.2, 0.9))
    with pytest.raises(ParameterError):
        SimConfig(eps=1.0, lam=4.0, T=0.5, grid=grid64, sample_times=(math.nan,))
    with pytest.raises(ParameterError):
        SimConfig(eps=1.0, lam=4.0, T=0.5, grid=grid64, sample_times=(0.01, math.nan))
    cfg = SimConfig(eps=1.0, lam=8.0, T=0.5, grid=grid64, dt0=1e-2, c_lam=0.04)
    assert np.isclose(cfg.dt, 0.005)
    assert len(cfg.sample_times) == 64


def test_preset_2d_smoke(grid2d):
    params = PresetParams(amplitude=0.5, width=1.2, n_amplitude=0.2, n_width=1.2,
                          n1_amplitude=0.1, n1_width=1.2,
                          min_points_per_width=4.0, edge_tol=1e-2)
    data = preset_initial_data("generic", params, grid2d, eps=1.0)
    assert data.E0.values.shape == (32, 32)
    norm = l2_norm(data.n1)
    assert abs(np.mean(data.n1.values)) <= 1e-12 * max(norm, 1.0)


def test_carrier_rule_keeps_the_band_and_names_the_key_that_leaves_it(grid256):
    # each carrier's largest local wavenumber against (2/3) pi/dx = 8.53; the
    # chirp's counts at the edge rule's radius, beside k0
    band = (2.0 / 3.0) * math.pi / grid256.dx
    radius = 2.0 * math.sqrt(-math.log(1e-12))
    beyond = np.nextafter(band, np.inf)
    check_carrier(grid256, PresetParams(k0=-band), "k0")
    chirped = PresetParams(k0=0.5 * band, chirp=0.3 * band / radius)
    check_carrier(grid256, chirped, "k0")
    for params, key in ((PresetParams(k0=beyond), "k0"), (chirped, "chirp"),
                        (PresetParams(n_k0=-beyond), "n_k0")):
        with pytest.raises(ResolutionError, match=f"the carrier set by {key} "):
            check_carrier(grid256, params, key)
        with pytest.raises(ResolutionError, match=f"the carrier set by {key} "):
            preset_initial_data("generic", params, grid256, eps=1.0)


def test_amplitude_rule_names_the_key_whose_square_overflows(grid256):
    # a^2 N^d must be finite for each amplitude that the kind reads; N^d = 256
    check_amplitude(grid256, PresetParams(amplitude=1e150), "amplitude")
    for key in ("amplitude", "n_amplitude", "n1_amplitude"):
        params = PresetParams(**{key: 1e300})
        with pytest.raises(ParameterError, match=f"^{key} = 1e\\+300 overflows"):
            preset_initial_data("generic", params, grid256, eps=1.0)
    # compatible data reads no density amplitude
    preset_initial_data("compatible", PresetParams(n_amplitude=1e300), grid256, eps=1.0)
