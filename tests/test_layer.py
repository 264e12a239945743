import numpy as np
import pytest

from conftest import compatibility_defect
from qzak import (PresetParams, SimConfig, ZakharovState, apply_multiplier,
                  complex_field, decay_probe, l2_norm, make_grid,
                  preset_initial_data, q0_exact, q_field, qz_evolve, real_field,
                  sobolev_norm)
from qzak.errors import ParameterError, WrapAroundError
from qzak.field import dealias_mask, inverse_values, to_spectral
from qzak.layer import layer_initial_fields
from qzak.operators import _derivative_symbol, i_eps


def test_q_field_compatible_vanishes(grid256):
    data = preset_initial_data("compatible", PresetParams(), grid256, eps=1.0)
    q = q_field(data.initial_state(), 1.0)
    scale = l2_norm(data.n0) + l2_norm(data.E0) ** 2
    assert l2_norm(q) <= 1e-10 * scale


def test_q_field_reduces_to_n_without_envelope(grid64):
    x = grid64.coordinates[0]
    zero = real_field(grid64, np.zeros(64))
    state = ZakharovState(t=0.0, E=complex_field(grid64, np.zeros(64, complex)),
                          n=real_field(grid64, np.sin(x)), nt=zero)
    np.testing.assert_allclose(q_field(state, 0.5).values, np.sin(x), atol=1e-14)


def test_q_field_matches_defect(grid256, generic_data):
    q = q_field(generic_data.initial_state(), 1.0)
    assert np.isclose(sobolev_norm(q, 2), compatibility_defect(generic_data, 1.0, 2),
                      rtol=1e-12)


def test_q_field_one_transform_pair(rng, grid256, monkeypatch):
    # Q = n + I_eps |E|^2 in one spectral pass: mask and I_eps applied to
    # the same coefficients, one fftn and one ifftn
    E = complex_field(grid256, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    n = real_field(grid256, rng.standard_normal(256))
    state = ZakharovState(t=0.0, E=E, n=n, nt=real_field(grid256, np.zeros(256)))
    intensity = real_field(grid256, np.fft.ifftn(
        np.fft.fftn(np.abs(E.values) ** 2) * dealias_mask(grid256)).real)
    old = n.values + apply_multiplier(intensity, i_eps(grid256, 0.7)).values

    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    q = q_field(state, 0.7)
    monkeypatch.undo()

    assert sorted(calls) == ["fftn", "ifftn"]
    assert np.max(np.abs(q.values - old)) <= 1e-14 * np.max(np.abs(old))


def test_q0_q1_at_time_zero(grid256, generic_data):
    f0, _ = layer_initial_fields(generic_data, 1.0)
    q0 = q0_exact(0.0, 8.0, 1.0, f0)
    np.testing.assert_allclose(q0.values, f0.values, atol=1e-14)


def test_q0_single_mode_value(grid64):
    x = grid64.coordinates[0]
    f0 = real_field(grid64, np.cos(x))
    t, lam = 0.21, 3.0
    q0 = q0_exact(t, lam, 1.0, f0)
    np.testing.assert_allclose(q0.values, np.cos(3.0 * np.sqrt(2.0) * t) * np.cos(x),
                               atol=1e-13)


def test_q0_norm_never_grows(rng, grid64):
    vals = rng.standard_normal(64)
    f0 = real_field(grid64, vals)
    for t in (0.1, 0.7, 2.3):
        for m in (0, 2):
            assert sobolev_norm(q0_exact(t, 5.0, 1.0, f0), m) <= sobolev_norm(f0, m) + 1e-12


def test_q0_commutes_with_translation(grid64):
    x = grid64.coordinates[0]
    f = np.exp(-np.cos(x))  # smooth periodic, zero-mean not required for q0
    shift = 7  # grid points
    q_then_shift = np.roll(q0_exact(0.3, 4.0, 1.0, real_field(grid64, f)).values, shift)
    shift_then_q = q0_exact(0.3, 4.0, 1.0, real_field(grid64, np.roll(f, shift))).values
    np.testing.assert_allclose(q_then_shift, shift_then_q, atol=1e-12)


def test_layer_decomposition_well_prepared(grid256):
    # well-prepared data kill both layer sources, so Q0 and Q1 vanish
    data = preset_initial_data("well-prepared", PresetParams(amplitude=0.8, chirp=0.2),
                               grid256, eps=1.0)
    f0, g = layer_initial_fields(data, 1.0)
    scale = sobolev_norm(data.n0, 2)
    assert sobolev_norm(f0, 2) <= 1e-9 * scale
    assert sobolev_norm(g, 2) <= 1e-9 * scale


def test_corrected_error_halves_with_lam(grid256):
    params = PresetParams(amplitude=0.8, width=2.0, n_amplitude=0.4, n_width=2.5,
                          n_center=(2.0,), n1_amplitude=0.4, n1_width=2.5,
                          n1_center=(-2.0,))
    data = preset_initial_data("generic", params, grid256, eps=1.0)
    f0, _ = layer_initial_fields(data, 1.0)
    sups = []
    lams = [8.0, 16.0, 32.0]
    for lam in lams:
        cfg = SimConfig(eps=1.0, lam=lam, T=0.3, grid=grid256, dt0=1e-3,
                        sample_times=tuple(np.linspace(0.0, 0.3, 13)))
        traj = qz_evolve(cfg, data)
        # Q - Q0 is the layer-corrected error Q1 + Q2
        sups.append(max(sobolev_norm(real_field(
            grid256, q_field(s, 1.0).values - q0_exact(t, lam, 1.0, f0).values), 2)
            for t, s in traj.samples))
    slope = np.polyfit(np.log(lams), np.log(sups), 1)[0]
    assert -1.3 <= slope <= -0.7


def test_well_prepared_layer_shrinks_with_lam(grid256):
    data = preset_initial_data("well-prepared", PresetParams(amplitude=0.8, chirp=0.2),
                               grid256, eps=1.0)
    sups = []
    for lam in (8.0, 16.0, 32.0):
        cfg = SimConfig(eps=1.0, lam=lam, T=0.3, grid=grid256, dt0=1e-3,
                        sample_times=tuple(np.linspace(0.0, 0.3, 13)))
        traj = qz_evolve(cfg, data)
        sups.append(max(sobolev_norm(q_field(s, 1.0), 2) for _, s in traj.samples))
    assert sups[1] <= 1.1 * sups[0]
    assert sups[2] <= 1.1 * sups[1]


def test_decay_probe_inner_exponent():
    g = make_grid(1, 1024, 40.0 * np.pi)
    x = g.coordinates[0]
    f0 = real_field(g, np.exp(-((x / 4.5) ** 2)))
    lam_times = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0)
    rep = decay_probe(f0, 1.0, lam_times, 2, [0.0, 1.0, 2.0, 20.0, 30.0, 40.0])
    assert rep.inner_exponent <= -1.8
    assert rep.outer_envelope_factor <= 10.0
    regions = {r.region for r in rep.rows}
    assert regions == {"inner", "outer"}


def test_decay_probe_inner_exponent_needs_two_inner_times():
    # inner needs lam t > 1: one inner time (lam t = 2) leaves no line to fit
    g = make_grid(1, 1024, 40.0 * np.pi)
    f0 = real_field(g, np.exp(-((g.coordinates[0] / 4.5) ** 2)))
    for lam_times in ([0.25, 0.5, 1.0], [0.5, 2.0]):
        rep = decay_probe(f0, 1.0, lam_times, 2, [0.0, 1.0])
        assert np.isnan(rep.inner_exponent)


def _field_chain_tables(f0, eps, lam, t, k_max):
    """|k-th derivative| of Q0 through a chain of Field passes: q0_exact at
    (lam, t), then Lap^{k//2} by apply_multiplier and, for odd k, d/dx by
    another transform pair. The probe's one-transform-per-order path at
    lam t must match it."""
    grid = f0.grid
    q0 = q0_exact(t, lam, eps, f0)
    tables = []
    for k in range(k_max + 1):
        base = q0 if k == 0 else apply_multiplier(q0, (-grid.k_squared) ** (k // 2))
        if k % 2:
            base = real_field(grid, inverse_values(
                grid, _derivative_symbol(grid, 0) * to_spectral(base)).real)
        tables.append(np.abs(base.values))
    return tables


def test_decay_probe_matches_field_chain_to_rounding():
    # decay.csv values near zero (odd orders at x0 = 0, far probes early on)
    # are rounding noise, so each value is held to its series' maximum
    g = make_grid(1, 1024, 40.0 * np.pi)
    x = g.coordinates[0]
    f0 = real_field(g, np.exp(-((x / 4.5) ** 2)))
    eps, lam, k_max = 1.0, 16.0, 2
    lam_times = (0.25, 1.0, 3.0, 6.0, 10.0)
    rep = decay_probe(f0, eps, lam_times, k_max, [0.0, 1.0, 2.0, 20.0, 30.0, 40.0])
    tables = {lt: _field_chain_tables(f0, eps, lam, lt / lam, k_max) for lt in lam_times}
    for k in range(k_max + 1):
        ref = np.array([tables[r.lam_t][k][np.flatnonzero(x == r.x0)[0]]
                        for r in rep.rows])
        weights = np.array([(1.0 + abs(r.x0)) ** 2 for r in rep.rows])
        for got, want in (([r.sup_by_k[k] for r in rep.rows], ref),
                          ([r.weighted_sup_by_k[k] for r in rep.rows], ref / weights)):
            assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * np.max(want), k


def test_decay_probe_transforms_f0_once(grid256, monkeypatch):
    # one forward transform of f0, then one inverse per (lam t, order)
    f0 = real_field(grid256, np.exp(-(grid256.coordinates[0] ** 2)))
    lam_times, k_max = [0.08, 0.16, 0.4], 3
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    decay_probe(f0, 1.0, lam_times, k_max, [0.0, 1.0])
    monkeypatch.undo()
    assert len(calls) == 1 + len(lam_times) * (k_max + 1)


def test_decay_probe_overflowing_order_raises():
    # eps_mach (pi N / L)^k_max passes 1e-6 from k_max = 7 on this grid, and
    # |xi|^220 overflows at its top modes: both are refused before any table
    g = make_grid(1, 1024, 40.0 * np.pi)
    f0 = real_field(g, np.exp(-((g.coordinates[0] / 4.5) ** 2)))
    for k_max in (7, 8, 220):
        with pytest.raises(ParameterError, match=f"must be <= 6 on this grid: .* got {k_max}$"):
            decay_probe(f0, 1.0, [0.25, 1.0, 4.0], k_max, [0.0, 20.0])
    decay_probe(f0, 1.0, [0.25], 6, [0.0])


def test_decay_probe_early_time_no_decay():
    g = make_grid(1, 512, 20.0 * np.pi)
    x = g.coordinates[0]
    f0 = real_field(g, np.exp(-((x / 3.0) ** 2)))
    rep = decay_probe(f0, 1.0, [8e-4], 0, [0.0])
    assert np.isclose(max(rep.rows[0].sup_by_k), 1.0, rtol=1e-4)


def test_decay_probe_wrap_guard():
    g = make_grid(1, 512, 20.0 * np.pi)
    x = g.coordinates[0]
    f0 = real_field(g, np.exp(-((x / 2.0) ** 2)))
    with pytest.raises(WrapAroundError):
        decay_probe(f0, 1.0, [64.0], 1, [0.0])


def test_decay_probe_rejects_points_outside_box(grid256):
    f0 = real_field(grid256, np.exp(-(grid256.coordinates[0] ** 2)))
    half = grid256.L / 2.0
    for point in (1000.0, half, -half - 1e-9):
        with pytest.raises(ParameterError, match="probe point"):
            decay_probe(f0, 1.0, [0.8], 0, [0.0, point])
    rep = decay_probe(f0, 1.0, [0.8], 0, [-half, 0.0])
    assert rep.rows[0].x0 == -half


def test_decay_probe_rejects_bad_times(grid256):
    f0 = real_field(grid256, np.exp(-(grid256.coordinates[0] ** 2)))
    with pytest.raises(ParameterError):
        decay_probe(f0, 1.0, [0.0, 0.8], 1, [0.0])
    with pytest.raises(ParameterError, match="k_max"):
        decay_probe(f0, 1.0, [0.8], -1, [0.0])
    with pytest.raises(ParameterError, match="probe_points"):
        decay_probe(f0, 1.0, [0.8], 1, [])


def test_layer_decomposition_real_envelope_has_no_q1(grid256):
    # compatible data with a real envelope: the layer velocity source
    # 2 Im(E0 conj(Delta_eps E0)) is exactly zero, so Q1 is too
    data = preset_initial_data("compatible", PresetParams(amplitude=0.8), grid256, eps=1.0)
    _, g = layer_initial_fields(data, 1.0)
    assert np.all(g.values == 0.0)
