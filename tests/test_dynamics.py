import weakref

import numpy as np
import pytest

from dataclasses import replace

from qzak import (InitialData, PresetParams, SchrodingerState, SimConfig,
                  ZakharovState, complex_field, l2_norm, make_grid, mass,
                  oracle_evolve, preset_initial_data, qmnls_evolve, qmnls_step,
                  qz_evolve, qz_step, real_field)
from qzak import dynamics
from qzak.dynamics import _arrays, _check_finite, _march, _qz_advance, _stacked
from qzak.errors import InstabilityError, NonFiniteFieldError, ParameterError
from qzak.operators import omega_eps, potential_symbol, schrodinger_group, wave_cos


def zero_E_state(grid, n_vals, nt_vals=None):
    zeros = np.zeros(grid.shape)
    return ZakharovState(
        t=0.0,
        E=complex_field(grid, np.zeros(grid.shape, dtype=complex)),
        n=real_field(grid, n_vals),
        nt=real_field(grid, nt_vals if nt_vals is not None else zeros))


def test_wave_substep_exact_single_mode(grid64):
    x = grid64.coordinates[0]
    s = zero_E_state(grid64, np.cos(x))
    dt = 0.01
    out = qz_step(s, dt, eps=1.0, lam=2.0)
    exact = np.cos(2.0 * dt * np.sqrt(2.0)) * np.cos(x)
    assert np.max(np.abs(out.n.values - exact)) < 1e-12
    assert out.t == dt


def test_step_conserves_mass(grid256, generic_data):
    s = generic_data.initial_state()
    m0 = mass(s.E)
    out = qz_step(s, 1e-3, eps=1.0, lam=16.0)
    assert abs(mass(out.E) - m0) <= 1e-12 * m0


def test_one_step_local_error_third_order(grid256, monkeypatch):
    # Richardson ratio against the unsplit reference: halving dt cuts the
    # one-step defect by ~8.
    monkeypatch.setattr(dynamics, "_ORACLE_MAX_POINTS", 256)
    params = PresetParams(amplitude=1.0, n_amplitude=0.5, n1_amplitude=0.3)
    data = preset_initial_data("generic", params, grid256, eps=0.5)
    errs = []
    for dt in (1e-3, 5e-4):
        cfg = SimConfig(eps=0.5, lam=4.0, T=dt, grid=grid256, dt0=dt,
                        c_lam=4.0 * dt, sample_times=(dt,))
        one = qz_step(data.initial_state(), dt, 0.5, 4.0)
        ref = oracle_evolve(cfg, data)
        errs.append(np.hypot(
            l2_norm(real_field(grid256, np.abs(one.E.values - ref.E.values))),
            l2_norm(real_field(grid256, one.n.values - ref.n.values))))
    ratio = errs[0] / errs[1]
    assert 7.0 <= ratio <= 9.0


def test_evolve_linear_regime_exact(grid64):
    x = grid64.coordinates[0]
    n0 = real_field(grid64, np.cos(x))
    zero = real_field(grid64, np.zeros(64))
    E0 = complex_field(grid64, np.zeros(64, dtype=complex))
    data = InitialData(E0=E0, n0=n0, n1=zero)
    lam = 3.0
    cfg = SimConfig(eps=1.0, lam=lam, T=0.4, grid=grid64, dt0=1e-3,
                    sample_times=tuple(np.linspace(0.0, 0.4, 9)))
    traj = qz_evolve(cfg, data)
    for t, state in traj.samples:
        exact = np.cos(lam * t * np.sqrt(2.0)) * np.cos(x)
        assert np.max(np.abs(state.n.values - exact)) < 1e-10


def test_evolve_lands_on_sample_times(grid64, generic_data):
    times = (0.0, 0.05, 0.13, 0.2)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.2, grid=generic_data.grid, dt0=1e-3,
                    sample_times=times)
    traj = qz_evolve(cfg, generic_data)
    assert [t for t, _ in traj.samples] == pytest.approx(list(times), abs=1e-12)


def test_sink_receives_each_sample_instead_of_the_trajectory(grid64):
    data = _smooth_data(grid64)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.03, grid=grid64, dt0=1e-2,
                    sample_times=(0.0, 0.005, 0.03))
    for evolve, start, names in ((qz_evolve, data, ("E", "n", "nt")),
                                 (qmnls_evolve, data.E0, ("E",))):
        seen = []
        traj = evolve(cfg, start, sink=lambda t, arrays: seen.append(
            (t, [a.copy() for a in arrays])))
        assert traj.samples == ()
        want = evolve(cfg, start)
        assert [t for t, _ in seen] == [t for t, _ in want.samples]
        for (_, arrays), state in zip(seen, want.states):
            for name, a in zip(names, arrays):
                assert np.array_equal(a, getattr(state, name).values)


def _smooth_data(grid):
    x = grid.coordinates
    phase = sum(np.cos(c + k) for k, c in enumerate(x))
    n0 = 0.4 * np.prod([np.cos(c) for c in x], axis=0)
    n1 = 0.2 * sum(np.sin(2.0 * c) for c in x)
    return InitialData(E0=complex_field(grid, 0.6 * np.exp(1j * phase)),
                       n0=real_field(grid, n0), n1=real_field(grid, n1))


def _stepped_chain(cfg, state, step):
    """The states a march should sample, from one fresh step call per step."""
    t, tol, out = 0.0, 1e-12 * max(1.0, cfg.T), []
    for target in cfg.sample_times:
        while t < target - tol:
            h = min(cfg.dt, target - t)
            state = step(state, h)
            t += h
        out.append(state)
    return out


def _accumulated_steps(cfg):
    """(step sizes, sample times) of a march that accumulates t += h with
    h = min(dt, target - t) step by step and sets t to each target it
    lands on: the march's loop before it planned its steps."""
    dt, tol = cfg.dt, 1e-12 * max(1.0, cfg.T)
    targets = list(cfg.sample_times)
    if not targets or abs(targets[-1] - cfg.T) > 1e-12:
        targets.append(cfg.T)
    t, steps, times = 0.0, [], []
    if targets[0] <= 1e-12:
        times.append(0.0)
        targets = targets[1:]
    for target in targets:
        while t < target - tol:
            h = min(dt, target - t)
            steps.append(h)
            t += h
        t = target
        times.append(t)
    return steps, times


MARCH_SCHEDULES = {
    # dt larger than the gaps: every step lands on a sample (simulate-2d)
    "landing": dict(T=0.05, sample_times=tuple(np.linspace(0.0, 0.05, 64))),
    # full steps between samples, each interval ending on a landing step
    "full-and-landing": dict(T=0.5, sample_times=tuple(np.linspace(0.0, 0.5, 64))),
    "T-only": dict(T=0.5, sample_times=(0.5,)),
}


@pytest.mark.parametrize("schedule", MARCH_SCHEDULES)
def test_march_steps_and_times_equal_the_accumulating_loop(grid64, schedule):
    cfg = SimConfig(eps=1.0, lam=4.0, grid=grid64, dt0=1e-3, c_lam=1.0,
                    **MARCH_SCHEDULES[schedule])
    taken = []

    def advance(arrays, h, last):
        taken.append((h, last))
        return arrays

    times = [t for t, _, _ in _march(cfg, (), advance)]
    steps, want_times = _accumulated_steps(cfg)
    assert [h.hex() for h, _ in taken] == [h.hex() for h in steps]
    assert [t.hex() for t in times] == [t.hex() for t in want_times]
    # last marks the final step of each size and no other
    assert [last for _, last in taken] == [h not in steps[i + 1:]
                                           for i, h in enumerate(steps)]


def test_march_keeps_each_kernel_only_while_it_needs_it(monkeypatch):
    # simulate-2d's schedule: 63 landing steps of 7 sizes, at most 2 of
    # which are needed at once
    grid = make_grid(2, 32, 2.0 * np.pi)
    cfg = SimConfig(eps=1.0, lam=4.0, grid=grid, dt0=1e-3, c_lam=1.0,
                    **MARCH_SCHEDULES["landing"])
    steps, _ = _accumulated_steps(cfg)
    spans = {h: (steps.index(h), len(steps) - 1 - steps[::-1].index(h)) for h in steps}
    overlap = max(sum(a <= i <= b for a, b in spans.values()) for i in range(len(steps)))
    assert (len(spans), overlap) == (7, 2)
    built, live, peak = [], weakref.WeakSet(), [0]

    class Counted(dynamics._QZKernel):  # no __slots__, so weakly referable
        def __init__(self, grid, eps, lams, dt, **buffers):
            super().__init__(grid, eps, lams, dt, **buffers)
            built.append(dt)
            live.add(self)
            peak[0] = max(peak[0], len(live))

    monkeypatch.setattr(dynamics, "_QZKernel", Counted)
    qz_evolve(cfg, _smooth_data(grid), sink=lambda t, arrays: None)
    assert sorted(built) == sorted(spans)
    assert peak[0] == overlap
    assert len(live) == 0


def test_kernel_build_allocates_only_the_kernel():
    # Every symbol is formed in the kernel's own arrays and lam omega_eps
    # in the work space the advance lends. The margin is wave_propagator's
    # boolean mask of om > 0 (one byte a point) and 4 KiB for Python
    # objects and numpy's masked assignment.
    import tracemalloc

    grid = make_grid(2, 64, 16.0 * np.pi)
    lams, om, work = (16.0, 32.0), omega_eps(grid, 1.0), np.empty(grid.shape)
    build = lambda: dynamics._QZKernel(grid, 1.0, lams, 1e-3, om=om, work=work)
    build()  # caches grid.k_squared
    tracemalloc.start()
    try:
        kern = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = kern.schrod_half.nbytes + 3 * kern.cos.nbytes
    assert own == grid.size * (16 + 3 * 8 * len(lams))
    assert peak <= own + grid.size + 4096


# d=1 N=64 and d=2 N=128 lie on either side of the 256 KiB size from
# which numpy reuses temporaries, and the sample times force short
# landing steps between full ones. Every
# sample is compared after the march has stepped on past it, so a sample
# that shared a buffer with the march would show the later state.
@pytest.mark.parametrize("d,N", [(1, 64), (2, 128)])
def test_march_equals_chain_of_steps_bitwise(d, N):
    grid = make_grid(d, N, 2.0 * np.pi)
    data = _smooth_data(grid)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.05, grid=grid, dt0=0.01, c_lam=1.0,
                    sample_times=(0.013, 0.02, 0.037, 0.05))
    traj = qz_evolve(cfg, data)
    chain = _stepped_chain(cfg, data.initial_state(),
                           lambda s, h: qz_step(s, h, cfg.eps, cfg.lam))
    for (_, got), want in zip(traj.samples, chain, strict=True):
        for name in ("E", "n", "nt"):
            assert np.array_equal(getattr(got, name).values,
                                  getattr(want, name).values), name

    traj = qmnls_evolve(cfg, data.E0)
    chain = _stepped_chain(cfg, SchrodingerState(t=0.0, E=data.E0),
                           lambda s, h: qmnls_step(s, h, cfg.eps))
    for (_, got), want in zip(traj.samples, chain, strict=True):
        assert np.array_equal(got.E.values, want.E.values)


# The steps as plain numpy expressions, reusing no buffer. Each kick is
# np.multiply(E, phase): E * np.exp(...) would let numpy reuse the exp
# temporary for arrays of 256 KiB and more (d=2 N=128) and compute
# exp(...) * E, which rounds differently.
def _plain_qz_step(grid, E, n, nt, h, eps, lam):
    fft, ifft = np.fft.fftn, np.fft.ifftn
    om = omega_eps(grid, eps)
    half = schrodinger_group(grid, eps, 0.5 * h)
    cos, sinc = wave_cos(grid, eps, lam, h), np.full(grid.shape, h)
    nz = om > 0.0
    sinc[nz] = np.sin(lam * h * om[nz]) / (lam * om[nz])
    E = np.multiply(E, np.exp(-0.5j * h * n))
    E = ifft(fft(E) * half)
    IS_hat = fft(np.abs(E) ** 2) * potential_symbol(grid, eps)
    Q_hat = fft(n) + IS_hat
    Qt_hat = fft(nt)
    n = ifft(cos * Q_hat + sinc * Qt_hat - IS_hat).real
    nt = ifft(-(lam * om * np.sin(lam * h * om)) * Q_hat + cos * Qt_hat).real
    E = ifft(fft(E) * half)
    return np.multiply(E, np.exp(-0.5j * h * n)), n, nt


def _plain_qmnls_step(grid, E, h, eps):
    fft, ifft = np.fft.fftn, np.fft.ifftn

    def kick(E):
        V = -ifft(fft(np.abs(E) ** 2) * potential_symbol(grid, eps)).real
        return np.multiply(E, np.exp(-0.5j * h * V))

    E = kick(E)
    E = ifft(fft(E) * schrodinger_group(grid, eps, h))
    return kick(E)


@pytest.mark.parametrize("d,N", [(1, 64), (2, 128)])
def test_march_equals_plain_expressions_bitwise(d, N):
    # Buffers, 1-D transforms and the reused phase change no bit.
    grid = make_grid(d, N, 2.0 * np.pi)
    data = _smooth_data(grid)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.03, grid=grid, dt0=0.01, c_lam=1.0,
                    sample_times=(0.03,))
    got = qz_evolve(cfg, data).final_state()
    (fields,) = _stepped_chain(
        cfg, (data.E0.values, data.n0.values, data.n1.values),
        lambda f, h: _plain_qz_step(grid, *f, h, cfg.eps, cfg.lam))
    for name, want in zip(("E", "n", "nt"), fields, strict=True):
        assert np.array_equal(getattr(got, name).values, want), name

    got = qmnls_evolve(cfg, data.E0).final_state()
    (want,) = _stepped_chain(cfg, data.E0.values,
                             lambda E, h: _plain_qmnls_step(grid, E, h, cfg.eps))
    assert np.array_equal(got.E.values, want)


# The sweep marches its lam ladder as one stacked batch on the premise
# that numpy transforms and multiplies each row of a (B,) + grid.shape
# array to the bits of the lone array; a numpy upgrade that breaks it
# must fail here. The last step is a short landing step.
@pytest.mark.parametrize("d,N", [(1, 1024), (2, 64)])
def test_stacked_advance_rows_equal_lone_marches_bitwise(d, N):
    grid = make_grid(d, N, 2.0 * np.pi)
    data = _smooth_data(grid)
    lams = (4.0, 8.0, 16.0)

    def march(batch):
        advance = _qz_advance(grid, 1.0, batch, True)
        arrays = _stacked(_arrays(data.E0, data.n0, data.n1), len(batch))
        for h, last in ((1e-3, False), (1e-3, False), (1e-3, True), (4e-4, True)):
            arrays = advance(arrays, h, last)
        return [a.copy() for a in arrays]

    stacked = march(lams)
    for row, lam in enumerate(lams):
        for name, got, want in zip(("E", "n", "nt"), stacked, march((lam,)), strict=True):
            assert np.array_equal(got[row], want[0]), (lam, name)


# The stacked transforms: fft and ifft of E for the first half linear
# step, one forward call on the (E, n, nt, |E|^2) stack and one inverse
# call on its (E, n, nt) rows. The second step reuses the first one's
# buffers and trailing phase.
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("d,N", [(1, 64), (2, 32)])
def test_coupled_step_makes_four_transform_calls(monkeypatch, d, N, batch):
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    grid = make_grid(d, N, 2.0 * np.pi)
    data = _smooth_data(grid)
    advance = _qz_advance(grid, 1.0, (4.0, 8.0, 16.0)[:batch], True)
    arrays = _stacked(_arrays(data.E0, data.n0, data.n1), batch)
    for _ in range(2):
        calls.clear()
        arrays = advance(arrays, 1e-3, False)
        assert len(calls) == 4, calls


def test_mass_drift_over_many_steps():
    g = make_grid(1, 64, 16.0 * np.pi)
    params = PresetParams(amplitude=0.8, width=5.0, n_amplitude=0.4, n_width=5.0,
                          n1_amplitude=0.2, n1_width=5.0,
                          min_points_per_width=3.0, edge_tol=1e-4)
    data = preset_initial_data("generic", params, g, eps=1.0)
    cfg = SimConfig(eps=1.0, lam=8.0, T=1.0, grid=g, dt0=1e-4, c_lam=1.0,
                    sample_times=(1.0,))
    traj = qz_evolve(cfg, data)  # 10^4 steps
    m0 = mass(data.E0)
    assert abs(mass(traj.final_state().E) - m0) / m0 <= 1e-10


def test_zero_mode_laws(grid256, generic_data):
    cfg = SimConfig(eps=1.0, lam=8.0, T=0.2, grid=grid256, dt0=1e-3,
                    sample_times=(0.0, 0.1, 0.2))
    traj = qz_evolve(cfg, generic_data)
    mean_n0 = np.mean(generic_data.n0.values)
    for _, state in traj.samples:
        assert abs(np.mean(state.nt.values)) < 1e-12
        assert abs(np.mean(state.n.values) - mean_n0) < 1e-12


def test_compatible_layer_stays_small():
    # In the prepared regime the compatibility variable is O(1/lam).
    from qzak import q_field
    g = make_grid(1, 512, 20.0 * np.pi)
    data = preset_initial_data("compatible", PresetParams(amplitude=0.8), g, eps=1.0)
    cfg = SimConfig(eps=1.0, lam=64.0, T=1.0, grid=g, dt0=1e-3, c_lam=0.2,
                    sample_times=tuple(np.linspace(0.0, 1.0, 21)))
    traj = qz_evolve(cfg, data)
    n0_norm = l2_norm(data.n0)
    sup_q = max(l2_norm(q_field(s, 1.0)) for _, s in traj.samples)
    assert sup_q <= 0.1 * n0_norm


def test_time_reversal_exact(grid256, generic_data):
    s = generic_data.initial_state()
    dt = 1e-3
    fwd = qz_step(s, dt, 1.0, 8.0)
    back = qz_step(fwd, -dt, 1.0, 8.0)
    scale = np.max(np.abs(s.E.values))
    assert np.max(np.abs(back.E.values - s.E.values)) < 1e-12 * scale
    assert np.max(np.abs(back.n.values - s.n.values)) < 1e-12
    assert np.max(np.abs(back.nt.values - s.nt.values)) < 1e-10


def test_step_rejects_zero_dt(grid256, generic_data):
    with pytest.raises(ParameterError):
        qz_step(generic_data.initial_state(), 0.0, 1.0, 4.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_detection(grid64):
    huge = real_field(grid64, np.full(64, 1e308))
    state = zero_E_state(grid64, huge.values)
    with pytest.raises(NonFiniteFieldError):
        qz_step(qz_step(state, 1.0, 1.0, 1.0), 1.0, 1.0, 1.0)
    # The march checks finiteness at each sample time, not at each step;
    # the field blows up within the first steps and stays non-finite,
    # so the check at the only sample, T, raises.
    cfg = SimConfig(eps=1.0, lam=1.0, T=2.0, grid=grid64, dt0=1.0, c_lam=1.0,
                    sample_times=(2.0,))
    data = InitialData(E0=state.E, n0=state.n, n1=state.nt)
    with pytest.raises(NonFiniteFieldError):
        qz_evolve(cfg, data)
    with pytest.raises(NonFiniteFieldError):
        qmnls_evolve(cfg, complex_field(grid64, np.full(64, 1e200 + 0j)))


def test_batch_nonfinite_names_the_row_lambda():
    arrays = tuple(np.zeros((3, 16)) for _ in range(3))
    arrays[1][2, 5] = np.nan
    with pytest.raises(NonFiniteFieldError,
                       match=r"^field 'n' became non-finite at t = 0.25 \(lam = 64\)$"):
        _check_finite(0.25, arrays, (4.0, 16.0, 64.0))
    with pytest.raises(NonFiniteFieldError,
                       match=r"^field 'n' became non-finite at t = 0.25$"):
        _check_finite(0.25, arrays)


def test_batched_evolve_requires_a_sink_and_one_step_size(grid64):
    data = _smooth_data(grid64)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.01, grid=grid64, dt0=1e-3, c_lam=0.02,
                    sample_times=(0.01,))
    with pytest.raises(ParameterError, match="sink"):
        qz_evolve(cfg, data, lams=(4.0, 8.0))
    with pytest.raises(ParameterError, match="step size"):
        qz_evolve(cfg, data, sink=lambda t, arrays: None, lams=(4.0, 40.0))
    seen = []
    traj = qz_evolve(cfg, data, sink=lambda t, arrays: seen.append(arrays[1].shape),
                     lams=(4.0, 8.0, 16.0))
    assert seen == [(3, 64)]
    assert traj.samples == () and traj.steps == 10


def test_qmnls_plane_wave_phase(grid64):
    a, eps, T = 0.7, 0.6, 0.3
    x = grid64.coordinates[0]
    E0 = complex_field(grid64, a * np.exp(1j * x))
    cfg = SimConfig(eps=eps, lam=1.0, T=T, grid=grid64, dt0=1e-3,
                    sample_times=(T,))
    traj = qmnls_evolve(cfg, E0)
    exact = a * np.exp(1j * x) * np.exp(-1j * (1.0 + eps**2) * T + 1j * a * a * T)
    assert np.max(np.abs(traj.final_state().E.values - exact)) < 1e-10


def test_qmnls_step_unitary_and_reversible(grid256, generic_data):
    from qzak import SchrodingerState
    s = SchrodingerState(t=0.0, E=generic_data.E0)
    out = qmnls_step(s, 1e-3, 1.0)
    assert abs(mass(out.E) - mass(s.E)) <= 1e-12 * mass(s.E)
    back = qmnls_step(out, -1e-3, 1.0)
    assert np.max(np.abs(back.E.values - s.E.values)) < 1e-12


def test_qmnls_step_potential_follows_dealias(rng, grid64):
    # one Strang step by hand: kick by -I_eps |E|^2, dealiased or not
    from qzak import SchrodingerState
    from qzak.field import dealias_mask
    from qzak.operators import i_eps, schrodinger_group
    E0 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    s = SchrodingerState(t=0.0, E=complex_field(grid64, E0))
    h = 1e-3
    outs = []
    for dealias, band in ((True, dealias_mask(grid64)), (False, 1.0)):
        symbol = i_eps(grid64, 0.5) * band

        def kick(E):
            V = -np.fft.ifft(np.fft.fft(np.abs(E) ** 2) * symbol).real
            return E * np.exp(-0.5j * h * V)

        E = kick(np.fft.ifft(np.fft.fft(kick(E0)) * schrodinger_group(grid64, 0.5, h)))
        out = qmnls_step(s, h, 0.5, dealias=dealias).E.values
        assert np.max(np.abs(out - E)) <= 1e-14
        outs.append(out)
    assert np.max(np.abs(outs[0] - outs[1])) > 1e-6


def test_qmnls_mass_conservation(grid256, generic_data):
    cfg = SimConfig(eps=1.0, lam=1.0, T=0.3, grid=grid256, dt0=1e-3,
                    sample_times=tuple(np.linspace(0.0, 0.3, 7)))
    traj = qmnls_evolve(cfg, generic_data.E0)
    m0 = mass(generic_data.E0)
    for _, s in traj.samples:
        assert abs(mass(s.E) - m0) <= 1e-12 * m0


def test_qmnls_self_convergence_second_order(grid256, generic_data):
    cfg = SimConfig(eps=1.0, lam=1.0, T=0.2, grid=grid256, dt0=1.0,
                    sample_times=(0.2,))
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3, 2.5e-4):
        run = replace(cfg, dt0=dt)
        finals[dt] = qmnls_evolve(run, generic_data.E0).final_state().E.values
    errs = [np.max(np.abs(finals[dt] - finals[2.5e-4])) for dt in (4e-3, 2e-3, 1e-3)]
    order = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
    assert 1.8 <= order <= 2.2


def test_oracle_linear_regime_matches_exact_wave():
    g = make_grid(1, 32, 4.0 * np.pi)
    x = g.coordinates[0]
    n0 = real_field(g, np.cos(2.0 * x))
    zero = real_field(g, np.zeros(32))
    E0 = complex_field(g, np.zeros(32, dtype=complex))
    data = InitialData(E0=E0, n0=n0, n1=zero)
    lam, eps, T = 4.0, 1.0, 0.1
    cfg = SimConfig(eps=eps, lam=lam, T=T, grid=g, dt0=1e-3, sample_times=(T,))
    final = oracle_evolve(cfg, data)
    om = 2.0 * np.sqrt(1.0 + eps**2 * 4.0)
    exact = np.cos(lam * T * om) * np.cos(2.0 * x)
    assert np.max(np.abs(final.n.values - exact)) < 1e-8


def test_oracle_refuses_unstable_step(grid64):
    zero = real_field(grid64, np.zeros(64))
    data = InitialData(E0=complex_field(grid64, np.zeros(64, dtype=complex)),
                       n0=zero, n1=zero)
    cfg = SimConfig(eps=1.0, lam=64.0, T=10.0, grid=grid64, dt0=10.0, c_lam=640.0,
                    sample_times=(10.0,))
    with pytest.raises(InstabilityError):
        oracle_evolve(cfg, data)


def test_oracle_guards(grid256, generic_data):
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.1, grid=grid256, dt0=1e-3,
                    sample_times=(0.1,))
    with pytest.raises(ParameterError):
        oracle_evolve(cfg, generic_data)  # N too large by default


def test_hamiltonian_drift_scales_quadratically():
    from qzak import hamiltonian_qz
    g = make_grid(1, 256, 20.0 * np.pi)
    params = PresetParams(amplitude=0.8, n_amplitude=0.4, n1_amplitude=0.2)
    data = preset_initial_data("generic", params, g, eps=1.0)
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = SimConfig(eps=1.0, lam=4.0, T=0.25, grid=g, dt0=dt,
                        sample_times=tuple(np.linspace(0.0, 0.25, 26)))
        traj = qz_evolve(cfg, data)
        hs = [hamiltonian_qz(s, 1.0, 4.0) for _, s in traj.samples]
        drifts.append(max(abs(h - hs[0]) for h in hs) / abs(hs[0]))
    ratio = drifts[0] / drifts[1]
    assert 3.0 <= ratio <= 5.0


def test_qz_evolve_2d_smoke(grid2d):
    params = PresetParams(amplitude=0.5, width=1.2, n_amplitude=0.2, n_width=1.2,
                          n1_amplitude=0.1, n1_width=1.2,
                          min_points_per_width=4.0, edge_tol=1e-2)
    data = preset_initial_data("generic", params, grid2d, eps=1.0)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.05, grid=grid2d, dt0=1e-3,
                    sample_times=(0.05,))
    traj = qz_evolve(cfg, data)
    m0 = mass(data.E0)
    assert abs(mass(traj.final_state().E) - m0) <= 1e-11 * m0
