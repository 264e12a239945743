import math
import weakref
from functools import partial

import numpy as np
import pytest

from dataclasses import replace

from qzak import (InitialData, PresetParams, SchrodingerState, SimConfig,
                  ZakharovState, complex_field, l2_norm, make_grid, mass,
                  oracle_evolve, preset_initial_data, qmnls_evolve, qmnls_step,
                  qz_evolve, qz_step, real_field)
from qzak import dynamics
from qzak.dynamics import _check_finite, _march, _qz_advance
from qzak.errors import NonFiniteFieldError, ParameterError
from qzak.field import dealias_mask
from qzak.operators import (_halves, _schrodinger_group, _stored, delta_eps, i_eps,
                            omega_eps, potential_symbol, wave_cos, wave_propagator)


def _values(data):
    return data.E0.values, data.n0.values, data.n1.values


def schrodinger_group(grid, eps, t):
    return _schrodinger_group(grid.k_squared, eps, t, np.empty(grid.shape, complex))


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
    lands on, written out here apart from the march's own loop."""
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
    # the samples stop short of T, so the march appends T
    "short-of-T": dict(T=0.5, sample_times=(0.0, 0.1, 0.2537)),
    # a repeated sample: its interval is empty, so the same t is yielded
    # twice with no step between
    "repeated": dict(T=0.5, sample_times=(0.0, 0.2, 0.2, 0.5)),
}


@pytest.mark.parametrize("schedule", MARCH_SCHEDULES)
def test_march_steps_and_times_equal_the_accumulating_loop(grid64, schedule):
    cfg = SimConfig(eps=1.0, lam=4.0, grid=grid64, dt0=1e-3, c_lam=1.0,
                    **MARCH_SCHEDULES[schedule])
    taken = []
    times = [t for t, _, _ in _march(cfg, (), lambda h, full: taken.append((h, full)))]
    steps, want_times = _accumulated_steps(cfg)
    assert [h.hex() for h, _ in taken] == [h.hex() for h in steps]
    assert [t.hex() for t in times] == [t.hex() for t in want_times]
    # full marks the steps of dt and no other
    assert [full for _, full in taken] == [h == cfg.dt for h in steps]


def _runs(steps):
    """The first step size of each run of equal sizes."""
    return [h for i, h in enumerate(steps) if i == 0 or h != steps[i - 1]]


def test_march_keeps_each_kernel_only_while_it_needs_it(monkeypatch):
    # simulate-2d's schedule: 63 landing steps of 7 sizes in 40 runs of one
    # size. The landing slot is filled again at the start of each run, and
    # it is the one kernel alive. sweep-1d's schedule (its sample times at
    # dt = 1e-3) adds the kernel of dt, filled once and kept beside it.
    grid = make_grid(2, 32, 2.0 * np.pi)
    refills, live, peak = [], weakref.WeakSet(), [0]
    real_init, real_refill = dynamics._Kernel.__init__, dynamics._Kernel.refill

    def init(self, *args):
        real_init(self, *args)
        live.add(self)
        peak[0] = max(peak[0], len(live))

    def refill(self, h, scratch):
        refills.append(h)
        real_refill(self, h, scratch)

    monkeypatch.setattr(dynamics._Kernel, "__init__", init)
    monkeypatch.setattr(dynamics._Kernel, "refill", refill)
    for schedule, kernels in (("landing", 1), ("full-and-landing", 2)):
        cfg = SimConfig(eps=1.0, lam=4.0, grid=grid, dt0=1e-3, c_lam=1.0,
                        **MARCH_SCHEDULES[schedule])
        steps, _ = _accumulated_steps(cfg)
        landing = [h for h in steps if h != cfg.dt]
        if kernels == 1:
            assert (len(steps), len(set(steps)), len(_runs(steps))) == (63, 7, 40)
        refills.clear()
        peak[0] = 0
        qz_evolve(cfg, _smooth_data(grid), sink=lambda t, arrays: None)
        assert refills == [cfg.dt] * (kernels - 1) + _runs(landing)
        assert peak[0] == kernels
        assert len(live) == 0


@pytest.mark.parametrize("N", [64, 256])
def test_kernel_build_allocates_only_the_kernel(N):
    # A refill evaluates each symbol straight into the kernel's own stored
    # rows, with |xi|^2 and omega_eps in the scratch it is lent, 2 floats a
    # stored point. Its peak is numpy's two iteration buffers (8 B an
    # element, at most 8192 elements each) for the broadcast add of
    # k_squared_block, with the squared wavenumbers of one axis and 2 KiB
    # for Python objects. wave_propagator's boolean mask, 1 B a stored
    # point, is smaller and alive at another moment. The kernel holds rows
    # 0..N/2 of the first axis.
    import tracemalloc

    grid = make_grid(2, N, 16.0 * np.pi)
    lams = (16.0, 32.0)
    kern = dynamics._Kernel(grid, 1.0, lams, 0.5)
    stored = (grid.N // 2 + 1) * grid.N
    scratch = np.empty(2 * stored)
    kern.refill(1e-3, scratch)  # caches grid.wavenumbers_1d
    tracemalloc.start()
    try:
        kern.refill(4e-4, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = kern.schrod.nbytes + kern.rows.nbytes
    assert own == stored * (16 + 3 * 8 * len(lams))
    assert peak <= 2 * 8 * min(stored, 8192) + 8 * grid.N + 2048


def _full_lattice_kernel(grid, eps, lams, h, scale):
    """(schrod, cos, sinc, minus_lam_om_sin) of a step of size h, the
    Schrodinger group over scale * h, each symbol evaluated on every mode
    of the lattice."""
    om, lam_om = omega_eps(grid, eps), np.empty(grid.shape)
    rows = np.empty((3, len(lams)) + grid.shape)
    for i, lam in enumerate(lams):
        wave_propagator(om, lam, h, *rows[:, i], lam_om)
    return (schrodinger_group(grid, eps, scale * h)[np.newaxis],) + tuple(rows)


def _unfold(grid, stored):
    """A symbol stored on half the rows, read through its two views onto
    every row of the first grid axis."""
    full = np.empty(stored.shape[:-2] + (grid.N,) + stored.shape[-1:] if grid.d == 2
                    else stored.shape, stored.dtype)
    for dst, src in zip(_halves(grid, full), _halves(grid, stored, True)):
        dst[...] = src
    return full


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# At d=2 a march and a monitor store each symbol on rows 0..N/2 and read
# rows N/2+1..N-1 as rows N/2-1..1 mirrored: on the premise that |xi|^2
# has the same bits at modes j and -j and that numpy evaluates each
# element to the same bits whatever the array's size; a numpy upgrade
# that breaks it must fail here. A refill evaluates each symbol on the
# stored rows and is lent exactly the scratch it needs, filled with NaN;
# batch 0 is the limit equation's kernel. The step sizes are a full step
# and one of simulate-2d's landing steps. The monitors' weights are the
# symbols on the stored rows of the whole lattice (E's) and of the half
# spectrum (the real fields').
@pytest.mark.parametrize("batch", [0, 1, 3])
@pytest.mark.parametrize("d,N", [(1, 16), (1, 64), (1, 256), (2, 16), (2, 64), (2, 256)])
def test_mirrored_kernel_equals_the_full_lattice_bitwise(d, N, batch):
    grid = make_grid(d, N, 16.0 * np.pi)
    k2 = grid.k_squared
    minus = k2[(slice(None, None, -1),) * d]  # index i holds mode -i - 1
    minus = np.roll(minus, (1,) * d, axis=tuple(range(d)))  # index i holds mode -i
    assert _same_bits(minus, k2)
    stored, half = _stored(grid, grid.shape), _stored(grid, grid.shape[:-1] + (N // 2 + 1,))
    assert stored == ((N // 2 + 1, N) if d == 2 else (N,))
    assert _same_bits(_unfold(grid, grid.k_squared_block(stored)), k2)
    assert _same_bits(grid.k_squared_block((N // 2 + 1,) * d), k2[(slice(N // 2 + 1),) * d])
    rfft_part = (Ellipsis, slice(N // 2 + 1))
    for name, got, want in (
            ("potential", potential_symbol(grid, 0.5, True, stored), potential_symbol(grid, 0.5)),
            ("w_E", delta_eps(grid, 0.5, stored), delta_eps(grid, 0.5)),
            ("w_n", i_eps(grid, 0.5, half), i_eps(grid, 0.5)[rfft_part]),
            ("w_nt", grid.k_squared_block(half), k2[rfft_part]),
            ("w_coupling", dealias_mask(grid, half).astype(float),
             dealias_mask(grid)[rfft_part].astype(float))):
        assert _same_bits(_unfold(grid, got), np.ascontiguousarray(want)), name
    lams = (4.0, 16.0, 64.0)[:batch]
    scale = 0.5 if lams else 1.0
    kern = dynamics._Kernel(grid, 0.5, lams, scale)
    scratch = np.full(2 * math.prod(stored), np.nan)
    names = ("schrod", "cos", "sinc", "minus_lam_om_sin")
    for h in (1e-3, 0.05 / 63):
        kern.refill(h, scratch)
        want = _full_lattice_kernel(grid, 0.5, lams, h, scale)
        for name, a, b in zip(names, (kern.schrod, *kern.rows), want):
            assert _same_bits(_unfold(grid, a), b), (h, name)


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


# One stacked step as whole-array expressions that reuse no buffer, with
# the symbols of a step of size h evaluated on the full lattice.
def _plain_stacked_step(grid, kern, potential, E, n, nt, h):
    fft, ifft = (partial(f, axes=grid.axes) for f in (np.fft.fftn, np.fft.ifftn))
    schrod_half, cos, sinc, minus_lam_om_sin = kern
    E = ifft(fft(np.multiply(E, np.exp(-0.5j * h * n))) * schrod_half)
    IS_hat = fft(np.abs(E) ** 2) * potential
    Q_hat, Qt_hat = fft(n) + IS_hat, fft(nt)
    n = ifft(cos * Q_hat + sinc * Qt_hat - IS_hat).real
    nt = ifft(minus_lam_om_sin * Q_hat + cos * Qt_hat).real
    E = ifft(fft(E) * schrod_half)
    return np.multiply(E, np.exp(-0.5j * h * n)), n, nt


# The advance keeps the kick phase in the |E|^2 row, the first half linear
# step and the blocked wave rotation in its own buffers, and its kernels
# in two slots. d=2 N=128 rotates two blocks, d=2 N=64 with three rows
# ends on a partial block, and d=1 is one block. The steps are a first
# full one from the loaded data, one of the same size (the reused phase),
# a landing one that fills the landing slot, one back on the full slot,
# and a landing one that refills the landing slot with another size.
@pytest.mark.parametrize("d,N,batch", [(2, 128, 1), (2, 64, 3), (1, 64, 5)])
def test_advance_step_equals_plain_expressions_bitwise(d, N, batch):
    grid = make_grid(d, N, 2.0 * np.pi)
    data = _smooth_data(grid)
    lams = (4.0, 8.0, 16.0, 32.0, 64.0)[:batch]
    potential = potential_symbol(grid, 1.0)
    got, advance = _qz_advance(grid, 1.0, lams, True, _values(data))
    want = tuple(np.broadcast_to(a, (batch,) + a.shape) for a in _values(data))
    for h, full in ((1e-3, True), (1e-3, True), (4e-4, False), (1e-3, True), (2e-4, False)):
        kern = _full_lattice_kernel(grid, 1.0, lams, h, 0.5)
        want = _plain_stacked_step(grid, kern, potential, *want, h)
        advance(h, full)
        for name, a, b in zip(("E", "n", "nt"), got, want, strict=True):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (h, name)


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
        arrays, advance = _qz_advance(grid, 1.0, batch, True, _values(data))
        for h, full in ((1e-3, True), (1e-3, True), (1e-3, True), (4e-4, False)):
            advance(h, full)
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
    _, advance = _qz_advance(grid, 1.0, (4.0, 8.0, 16.0)[:batch], True, _values(data))
    for _ in range(2):
        calls.clear()
        advance(1e-3, True)
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


@pytest.mark.parametrize("march", ["single", "batched", "limit"])
def test_march_checks_the_sample_at_t0(march):
    grid = make_grid(1, 64, 8.0 * np.pi)
    E0 = np.zeros(grid.shape, dtype=complex)
    E0[7] = np.nan
    zero = real_field(grid, np.zeros(grid.shape))
    data = InitialData(E0=complex_field(grid, E0), n0=zero, n1=zero)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.02, grid=grid, dt0=1e-3, c_lam=0.02,
                    sample_times=(0.0, 0.01, 0.02))
    calls = []

    def sink(t, arrays):
        calls.append(t)

    where = r" \(lam = 4\)" if march == "batched" else ""
    with pytest.raises(NonFiniteFieldError,
                       match=rf"^field 'E' became non-finite at t = 0{where}$"):
        if march == "single":
            qz_evolve(cfg, data, sink=sink)
        elif march == "batched":
            qz_evolve(cfg, data, sink=sink, lams=(4.0, 8.0))
        else:
            qmnls_evolve(cfg, data.E0, sink=sink)
    assert calls == []


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
    from qzak.operators import i_eps
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


def _wave_data(g):
    # a free density wave: n(T) = cos(lam T omega) n0, E stays 0
    x = g.coordinates[0]
    zero = real_field(g, np.zeros(g.N))
    data = InitialData(E0=complex_field(g, np.zeros(g.N, dtype=complex)),
                       n0=real_field(g, np.cos(2.0 * x)), n1=zero)
    return data, lambda final, lam, T: np.max(np.abs(
        final.n.values - np.cos(lam * T * 2.0 * np.sqrt(5.0)) * np.cos(2.0 * x)))


def _envelope_data(g):
    # a plane wave of constant |E|^2 drives no density, and turns by the
    # Schrodinger symbol alone: E(T) = E0 exp(-i T (xi^2 + xi^4)) at eps = 1
    x = g.coordinates[0]
    amp, xi = 0.5, 8 * 2.0 * np.pi / g.L
    zero = real_field(g, np.zeros(g.N))
    data = InitialData(E0=complex_field(g, amp * np.exp(1j * xi * x)), n0=zero, n1=zero)
    return data, lambda final, lam, T: np.max(np.abs(
        final.E.values - data.E0.values * np.exp(-1j * T * (xi**2 + xi**4)))) / amp


@pytest.mark.parametrize("case,tol", [(_wave_data, 1e-8), (_envelope_data, 1e-12)],
                         ids=["wave", "envelope"])
def test_oracle_linear_regime_matches_exact_wave(case, tol):
    # the oracle applies the linear flow exactly, so only rounding is left
    g = make_grid(1, 32, 4.0 * np.pi)
    data, error = case(g)
    lam, T = 4.0, 0.1
    cfg = SimConfig(eps=1.0, lam=lam, T=T, grid=g, dt0=1e-3, sample_times=(T,))
    assert error(oracle_evolve(cfg, data), lam, T) <= tol


def test_oracle_takes_a_step_past_the_explicit_bound(grid64):
    # h = 5, so lam omega h = 640 sqrt(5), about 1431, on the wave's mode:
    # far outside classical RK4's stability region (2.8 on the imaginary
    # axis), while the exact linear flow has no bound
    data, error = _wave_data(grid64)
    cfg = SimConfig(eps=1.0, lam=64.0, T=10.0, grid=grid64, dt0=10.0, c_lam=640.0,
                    sample_times=(10.0,))
    final = oracle_evolve(cfg, data)
    assert all(np.all(np.isfinite(f.values)) for f in (final.E, final.n, final.nt))
    assert error(final, 64.0, 10.0) <= 1e-10


def _criterion_6(d=1):
    """The config and data of acceptance criterion 6, on a grid of d axes."""
    grid = make_grid(d, 32, 8.0 * np.pi)
    params = PresetParams(amplitude=1.0, width=3.0, n_amplitude=0.5, n_width=3.0,
                          n1_amplitude=0.3, n1_width=3.0, min_points_per_width=3.0,
                          edge_tol=1e-7)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.1, grid=grid, dt0=1e-3, c_lam=0.2, m=2,
                    dealias=False, sample_times=(0.1,))
    return cfg, preset_initial_data("generic", params, grid, eps=1.0)


def test_oracle_substeps_converged(monkeypatch):
    # four times the substeps move the reference far below the 1e-7
    # discrepancy that criterion 6 measures against it
    cfg, data = _criterion_6()
    ref = oracle_evolve(cfg, data)
    monkeypatch.setattr(dynamics, "_ORACLE_SUBSTEPS", 4 * dynamics._ORACLE_SUBSTEPS)
    fine = oracle_evolve(cfg, data)
    for name in ("E", "n"):
        a, b = getattr(ref, name).values, getattr(fine, name).values
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("d", [1, 2])
def test_oracle_transform_count(monkeypatch, d):
    # the cost of a call as a count that repeats exactly: one inverse and
    # one forward transform per stage, 2 substeps of 4 stages per split
    # step, and one transform in and one out (1,602 here), all of them
    # fft/ifft at d=1 and fftn/ifftn at d=2
    cfg, data = _criterion_6(d)
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _f=transform, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    oracle_evolve(cfg, data)
    assert len(calls) == 1602
    assert set(calls) == ({"fft", "ifft"} if d == 1 else {"fftn", "ifftn"})


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
