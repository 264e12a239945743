import numpy as np
import pytest

from qzak import (InitialData, PresetParams, SimConfig, ZakharovState,
                  complex_field, hamiltonian_qz, make_grid, mass,
                  preset_initial_data, qmnls_evolve, qz_evolve, qz_step,
                  real_field, spectral_tail, to_spectral)
from qzak.diagnostics import drift, hamiltonian_qmnls
from qzak.operators import omega_eps
from qzak.field import dealias_mask, inverse_values
from qzak.errors import ParameterError, ZeroModeError

def test_mass_constant_field(grid16):
    E = complex_field(grid16, np.full(16, 1.5 + 0.5j))
    assert np.isclose(mass(E), 2.0 * np.pi * abs(1.5 + 0.5j) ** 2)
    assert mass(complex_field(grid16, np.zeros(16, complex))) == 0.0


def test_mass_drift_thousand_steps(grid256, generic_data):
    state = generic_data.initial_state()
    m0 = mass(state.E)
    for _ in range(1000):
        state = qz_step(state, 1e-3, 1.0, 8.0)
    assert abs(mass(state.E) - m0) / m0 <= 1e-10


def test_hamiltonian_qz_cosine_mode(grid64):
    x = grid64.coordinates[0]
    zero = real_field(grid64, np.zeros(64))
    state = ZakharovState(t=0.0, E=complex_field(grid64, np.zeros(64, complex)),
                          n=real_field(grid64, np.cos(x)), nt=zero)
    assert np.isclose(hamiltonian_qz(state, 1.0, 2.0), np.pi, rtol=1e-12)


def test_hamiltonian_qz_coupling_sign(grid256):
    data = preset_initial_data("compatible", PresetParams(), grid256, eps=1.0)
    g = grid256
    intensity = np.fft.ifftn(np.fft.fftn(np.abs(data.E0.values) ** 2) * dealias_mask(g)).real
    coupling = g.cell_volume * np.sum(data.n0.values * intensity)
    assert coupling < 0.0


def test_hamiltonian_qz_requires_zero_mean_nt(grid64):
    state = ZakharovState(t=0.0, E=complex_field(grid64, np.zeros(64, complex)),
                          n=real_field(grid64, np.zeros(64)),
                          nt=real_field(grid64, np.ones(64)))
    with pytest.raises(ZeroModeError):
        hamiltonian_qz(state, 1.0, 2.0)


def _full_spectrum_hamiltonians(grid, E, n, nt, eps, lam):
    """Both energies as complex-fftn sums over the whole lattice."""
    c = grid.L ** (grid.d / 2.0) / grid.size
    E_hat, n_hat, nt_hat = (np.fft.fftn(v) * c for v in (E, n, nt))
    S_hat = np.fft.fftn(np.abs(E) ** 2) * c
    k2 = grid.k_squared
    j = np.fft.fftfreq(grid.N, 1.0 / grid.N)
    keep = np.abs(j) <= grid.N / 3.0
    mask = keep if grid.d == 1 else np.logical_and.outer(keep, keep)
    grad_E = np.sum(k2 * np.abs(E_hat) ** 2)
    lap_E = np.sum(k2**2 * np.abs(E_hat) ** 2)
    nz = k2 > 0.0
    wave_kinetic = np.sum(np.abs(nt_hat[nz]) ** 2 / k2[nz])
    n_l2 = np.sum(np.abs(n_hat) ** 2)
    grad_n = np.sum(k2 * np.abs(n_hat) ** 2)
    coupling = np.sum((np.conj(n_hat) * S_hat).real[mask])
    h_qz = (grad_E + eps**2 * lap_E + 0.5 * wave_kinetic / lam**2
            + 0.5 * n_l2 + 0.5 * eps**2 * grad_n + coupling)
    quartic = np.sum(mask / (1.0 + eps**2 * k2) * np.abs(S_hat) ** 2)
    h_qmnls = 0.5 * grad_E + 0.5 * eps**2 * lap_E - 0.25 * quartic
    return h_qz, h_qmnls


@pytest.mark.parametrize("d, N", [(1, 32), (2, 16)])
def test_real_transform_hamiltonians_match_full_spectrum(rng, d, N):
    # The monitors sum half spectra from rfftn, with weight 1 on the zero
    # and Nyquist columns and 2 on the others: give those columns energy.
    grid = make_grid(d, N, 5.0)
    eps, lam = 0.7, 3.0
    x = grid.coordinates[-1]
    nyquist = np.cos(np.pi * x / grid.dx)
    flat = np.ones(grid.shape) if d == 1 else np.cos(2.0 * np.pi * grid.coordinates[0] / grid.L)
    E = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
         + 3.0 * flat + (2.0 - 1.0j) * nyquist)
    n = rng.standard_normal(grid.shape) + 2.0 * flat + 3.0 * nyquist + 0.5
    nt = rng.standard_normal(grid.shape) + 2.0 * flat - 1.5 * nyquist
    nt -= np.mean(nt)
    state = ZakharovState(t=0.0, E=complex_field(grid, E), n=real_field(grid, n),
                          nt=real_field(grid, nt))
    want_qz, want_qmnls = _full_spectrum_hamiltonians(grid, E, n, nt, eps, lam)
    assert hamiltonian_qz(state, eps, lam) == pytest.approx(want_qz, rel=1e-13)
    assert hamiltonian_qmnls(state.E, eps) == pytest.approx(want_qmnls, rel=1e-13)


def test_hamiltonian_qz_linear_wave_invariant(grid64):
    x = grid64.coordinates[0]
    zero = real_field(grid64, np.zeros(64))
    data = InitialData(E0=complex_field(grid64, np.zeros(64, complex)),
                       n0=real_field(grid64, np.cos(x) + 0.3 * np.sin(2 * x)),
                       n1=zero)
    cfg = SimConfig(eps=1.0, lam=16.0, T=0.5, grid=grid64, dt0=1e-3,
                    sample_times=tuple(np.linspace(0.0, 0.5, 11)))
    traj = qz_evolve(cfg, data)
    hs = [hamiltonian_qz(s, 1.0, 16.0) for _, s in traj.samples]
    assert drift(hs) <= 1e-10


def test_hamiltonian_qmnls_plane_wave(grid64):
    a, eps = 0.8, 0.6
    x = grid64.coordinates[0]
    E = complex_field(grid64, a * np.exp(1j * x))
    expected = np.pi * a**2 * (1.0 + eps**2) - 0.5 * np.pi * a**4
    assert np.isclose(hamiltonian_qmnls(E, eps), expected, rtol=1e-12)
    assert hamiltonian_qmnls(complex_field(grid64, np.zeros(64, complex)), eps) == 0.0


def test_hamiltonian_qmnls_drift_second_order(grid256, generic_data):
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = SimConfig(eps=1.0, lam=1.0, T=0.25, grid=grid256, dt0=dt,
                        sample_times=tuple(np.linspace(0.0, 0.25, 26)))
        traj = qmnls_evolve(cfg, generic_data.E0)
        hs = [hamiltonian_qmnls(s.E, 1.0) for _, s in traj.samples]
        drifts.append(drift(hs))
    assert drifts[1] <= 1e-4
    assert 3.0 <= drifts[0] / drifts[1] <= 5.0


def test_n_variable_free_wave_modulus_invariant(grid64):
    x = grid64.coordinates[0]
    zero = real_field(grid64, np.zeros(64))
    data = InitialData(E0=complex_field(grid64, np.zeros(64, complex)),
                       n0=real_field(grid64, np.cos(x) - 0.4 * np.cos(3 * x)),
                       n1=zero)
    lam = 8.0
    cfg = SimConfig(eps=1.0, lam=lam, T=0.3, grid=grid64, dt0=1e-3,
                    sample_times=tuple(np.linspace(0.0, 0.3, 7)))
    traj = qz_evolve(cfg, data)
    # the wave variable n + i (lam omega_eps)^-1 d_t n, mode by mode
    om = omega_eps(grid64, 1.0)
    nz = om > 0.0
    mods = []
    for _, s in traj.samples:
        coeffs = to_spectral(s.n)
        coeffs[nz] += 1j * to_spectral(s.nt)[nz] / (lam * om[nz])
        mods.append(np.abs(coeffs))
    for m in mods[1:]:
        np.testing.assert_allclose(m, mods[0], atol=1e-10 * np.max(mods[0]))


def test_spectral_tail_band_limited(grid64):
    coeffs = np.zeros(64, dtype=complex)
    j = grid64.mode_indices_1d
    coeffs[np.abs(j) <= 10] = 1.0
    f = complex_field(grid64, inverse_values(grid64, coeffs))
    # the round trip through physical samples leaves only rounding outside the band
    assert spectral_tail(f, 0.5) < 1e-28


def test_spectral_tail_white_spectrum(rng, grid64):
    f = complex_field(grid64, inverse_values(grid64, np.ones(64, dtype=complex)))
    frac = spectral_tail(f, 0.5)
    assert 0.4 <= frac <= 0.6


def test_spectral_tail_validates_fraction(grid64):
    f = complex_field(grid64, inverse_values(grid64, np.ones(64, dtype=complex)))
    with pytest.raises(ParameterError):
        spectral_tail(f, 1.5)


def test_spectral_tail_resolved_run(grid256, generic_data):
    cfg = SimConfig(eps=1.0, lam=8.0, T=0.2, grid=grid256, dt0=1e-3,
                    sample_times=tuple(np.linspace(0.0, 0.2, 5)))
    traj = qz_evolve(cfg, generic_data)
    tails = [spectral_tail(s.E, 2.0 / 3.0) for _, s in traj.samples]
    assert max(tails) <= 1e-8
