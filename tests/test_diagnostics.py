import numpy as np
import pytest

from qzak import (InitialData, PresetParams, SimConfig, ZakharovState,
                  complex_field, hamiltonian_qz, make_grid, mass,
                  preset_initial_data, qmnls_evolve, qz_evolve, qz_step,
                  real_field, spectral_tail, to_spectral)
from qzak.diagnostics import drift, hamiltonian_qmnls
from qzak.field import inverse_values
from qzak.operators import dealias_mask
from qzak.errors import ParameterError, ZeroModeError

from conftest import omega_eps


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


@pytest.mark.parametrize("solver", ["qz", "qmnls"])
@pytest.mark.parametrize("d, N", [(1, 32), (2, 16)])
def test_monitors_measure_in_the_arrays_they_are_given(rng, solver, d, N):
    # measure only reads its arguments, which it takes as a march passes
    # them: E a row of a complex stack, n and nt the strided real parts of
    # the next rows. The values are those of mass and of the Hamiltonians.
    from qzak.diagnostics import qmnls_monitor, qz_monitor

    grid = make_grid(d, N, 5.0)
    eps, lam = 0.7, 3.0
    E = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    n = rng.standard_normal(grid.shape)
    nt = rng.standard_normal(grid.shape)
    nt -= np.mean(nt)
    state = ZakharovState(t=0.0, E=complex_field(grid, E), n=real_field(grid, n),
                          nt=real_field(grid, nt))
    H = np.zeros((4,) + grid.shape, dtype=complex)
    H[0], H[1].real, H[2].real = E, n, nt
    H[1:].imag = rng.standard_normal((3,) + grid.shape)
    before = H.copy()
    live = (H[0], H[1].real, H[2].real)
    assert not live[1].flags.c_contiguous and not live[2].flags.c_contiguous
    if solver == "qz":
        got = qz_monitor(grid, eps, lam)(*live)
        want = hamiltonian_qz(state, eps, lam)
    else:
        got = qmnls_monitor(grid, eps)(live[0])
        want = hamiltonian_qmnls(state.E, eps)
    assert got == (mass(state.E), want)
    assert H.tobytes() == before.tobytes()


@pytest.mark.parametrize("solver", ["qz", "qmnls"])
def test_monitor_measure_allocates_no_grid_array(rng, solver):
    # A monitor holds its weights, and from its first call on two half
    # spectra and one real half-spectrum array, its work space; a later
    # call allocates no grid-sized array. A call may allocate numpy's
    # iteration buffer (np.getbufsize() float64 elements, for the
    # products with the row-reversed half of a stored weight), which at
    # N=256 is a quarter of a half-spectrum real array. The margin is
    # 4 KiB for Python objects.
    import tracemalloc

    from qzak.diagnostics import qmnls_monitor, qz_monitor

    grid = make_grid(2, 256, 5.0)
    # the half spectrum, and the weights on rows 0..N/2 of it
    half, corner = 256 * 129, 129 * 129
    if solver == "qz":
        monitor = lambda: qz_monitor(grid, 0.7, 3.0)
        # w_E, w_n, w_nt and w_coupling
        weights = 4 * 8 * corner
    else:
        monitor = lambda: qmnls_monitor(grid, 0.7)
        # w_E and w_quartic
        weights = 2 * 8 * corner
    work_space = 2 * 16 * half + 8 * half
    E = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    n, nt = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    nt -= np.mean(nt)
    args = (E, n, nt)[:3 if solver == "qz" else 1]
    monitor()(*args)  # caches the grid's symbols and the FFT plans
    tracemalloc.start()
    try:
        measure = monitor()
        held = tracemalloc.get_traced_memory()[0]
        assert held <= weights + 4096
        measure(*args)
        assert tracemalloc.get_traced_memory()[0] - held <= work_space + 4096
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        measure(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 8 * np.getbufsize() + 4096


def _full_weight_monitors(grid, eps, lam):
    """The measures of qz_monitor and qmnls_monitor with every weight held
    on the whole half spectrum, one product each."""
    from qzak.diagnostics import _head, _mass
    from qzak.norms import _column_weights, _half_shape
    from qzak.field import _forward_factor, _transforms
    from qzak.operators import delta_eps, i_eps, potential_symbol

    rfft = _transforms(grid)[2]
    f2 = _forward_factor(grid) ** 2
    half = _half_shape(grid)

    def weights(symbol):
        return symbol[..., :grid.N // 2 + 1] * _column_weights(grid) * f2

    def sum_sq(x, w, work):
        np.abs(x, out=work)
        np.square(work, out=work)
        np.multiply(work, w, out=work)
        return float(np.sum(work))

    def envelope(E, w_E, spectra, work):
        # the transforms of Re E and Im E, then |E|^2 in row 0's memory
        # and its transform in row 1
        rfft(np.stack((E.real, E.imag)), out=spectra)
        energy = sum_sq(spectra[0], w_E, work) + sum_sq(spectra[1], w_E, work)
        S = _head(spectra[0].view(np.float64), grid.shape)
        np.square(np.abs(E, out=S), out=S)
        m = float(_mass(grid, S))
        rfft(S, out=spectra[1])
        return m, energy

    k2 = grid.k_squared
    inv_k2 = np.zeros_like(k2)
    np.divide(1.0, k2, out=inv_k2, where=k2 > 0.0)
    w_E, w_n = weights(-delta_eps(grid, eps)), weights(0.5 / i_eps(grid, eps))
    w_nt = weights((0.5 / lam**2) * inv_k2)
    w_coupling = weights(dealias_mask(grid).astype(float))
    spectra, work = np.empty((2,) + half, dtype=np.complex128), np.empty(half)

    def qz(E, n, nt):
        energy = sum_sq(rfft(nt, out=spectra[0]), w_nt, work)
        m, E_energy = envelope(E, w_E, spectra, work)
        energy += E_energy
        n_hat = rfft(n, out=spectra[0])
        energy += sum_sq(n_hat, w_n, work)
        np.multiply(np.conjugate(n_hat, out=n_hat), spectra[1], out=n_hat)
        np.multiply(n_hat.real, w_coupling, out=work)
        return m, energy + float(np.sum(work))

    w_E_limit = weights(-0.5 * delta_eps(grid, eps))
    w_quartic = weights(0.25 * potential_symbol(grid, eps))

    def qmnls(E):
        m, energy = envelope(E, w_E_limit, spectra, work)
        return m, energy - sum_sq(spectra[1], w_quartic, work)
    return qz, qmnls


@pytest.mark.parametrize("N", [16, 64])
def test_half_row_monitors_equal_full_weight_monitors_bitwise(rng, N):
    # At d=2 the monitors hold each weight on rows 0..N/2 and multiply the
    # other rows through a row-reversed view; each product and each sum
    # keeps the bits of weights held on every row.
    from qzak.diagnostics import qmnls_monitor, qz_monitor

    grid = make_grid(2, N, 5.0)
    eps, lam = 0.7, 3.0
    want_qz, want_qmnls = _full_weight_monitors(grid, eps, lam)
    for _ in range(3):
        E = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        n, nt = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        nt -= np.mean(nt)
        got, want = qz_monitor(grid, eps, lam)(E, n, nt), want_qz(E, n, nt)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        got, want = qmnls_monitor(grid, eps)(E), want_qmnls(E)
        assert [v.hex() for v in got] == [v.hex() for v in want]


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
