"""Time integrators for the coupled system and its subsonic limit.

The coupled solver is a symmetric (palindromic) splitting whose wave
substep is exact for the source frozen over the step: with Q = n +
I_eps S and S = |E|^2 held fixed, Q satisfies a free fourth-order wave
equation and is rotated mode-by-mode by the (cos, sinc) propagator
pair. Freezing S at the half-evolved envelope keeps the composition
time-symmetric, hence second order. All E substeps are unitary, so the
discrete mass is conserved to rounding regardless of dt or lam.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections import Counter
from functools import partial
from itertools import chain, repeat

import numpy as np

from .errors import InstabilityError, NonFiniteFieldError, ParameterError
from .field import Field, _transforms, complex_field, dealias_mask, real_field
from .grid import Grid
from .operators import (delta_eps, omega_eps, potential_symbol, schrodinger_group,
                        unit_phase, wave_propagator)
from .state import InitialData, SchrodingerState, SimConfig, ZakharovState

_LANDING_TOL = 1e-12
_RK4_IMAG_AXIS_LIMIT = 2.8
_ORACLE_REFINEMENT = 50  # RK4 steps per split step
_ORACLE_MAX_POINTS = 64  # the oracle's largest grid


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of an evolution at the requested sample times, and the
    number of steps the evolution took."""

    config: SimConfig
    samples: tuple
    steps: int

    @property
    def states(self) -> list:
        return [s for _, s in self.samples]

    def final_state(self):
        return self.samples[-1][1]


# An advance builds the kernel of a step size at its first step of that
# size and drops it after the last one, which the march's plan names (see
# _march), so only the kernels of step sizes whose steps interleave are
# alive at once. A kernel holds only the symbols that depend on the step
# size; the potential symbol and omega_eps do not, and each advance
# builds them once. A build allocates nothing but the kernel's own arrays
# (and the boolean mask of wave_propagator): every argument is formed in
# an output, and lam omega_eps in work space the advance lends.
class _QZKernel:
    """Symbol arrays for one (grid, eps, lams, dt) step, om being
    omega_eps on the grid and work a real array of its shape, used as
    scratch.

    The lam-dependent symbols are stacked, one row per entry of lams,
    with shape (len(lams),) + grid.shape; schrod_half has shape
    (1,) + grid.shape and broadcasts against the rows. The leading 1
    keeps a batch of one on numpy's fast path for operands of equal
    shape.
    """

    __slots__ = ("schrod_half", "cos", "sinc", "minus_lam_om_sin")

    def __init__(self, grid: Grid, eps: float, lams: tuple, dt: float, om: np.ndarray,
                 work: np.ndarray):
        self.schrod_half = schrodinger_group(grid, eps, 0.5 * dt)[np.newaxis]
        rows = np.empty((3, len(lams)) + grid.shape)
        self.cos, self.sinc, self.minus_lam_om_sin = rows
        for i, lam in enumerate(lams):
            wave_propagator(om, lam, dt, *rows[:, i], work)


def _kernel(kernels: dict, h: float, last: bool, build):
    """The kernel of step size h: build(h) at its first step, dropped
    from kernels after its last."""
    kern = kernels.get(h)
    if kern is None:
        kern = kernels[h] = build(h)
    if last:
        del kernels[h]
    return kern


# Every march and single step shares one protocol: the fields travel as
# a tuple of plain arrays, (E, n, nt) for the coupled system and (E,) for
# the limit equation, and advance(arrays, h, last) returns them one step
# of size h later. A true last says that no later step has size h, and
# the advance then drops that size's kernel. The coupled arrays are
# stacked, one row per sound speed of the batch, with shape
# (B,) + grid.shape (B = 1 for a single lam).
# An advance allocates its work buffers once and returns arrays that
# live in them, so its next call overwrites what it returned before: a
# caller copies what it keeps. It writes into no other array, so a
# march starts from the read-only arrays of the initial data, or from
# np.broadcast_to views of them, without copying them.
#
# The transforms (field._transforms) act on the grid axes only, so every
# row of a batch is transformed on its own; numpy gives each row the bits
# of a lone transform of it. They are looked up when the advance is
# built, so that a wrapper in numpy.fft sees every call.
#
# A kick is np.multiply(E, phase) in that order on every grid. Complex
# products round differently when their operands swap, and E * np.exp(...)
# does not fix the order: for arrays of 256 KiB and more numpy reuses the
# exp temporary as the output and computes exp(...) * E. The phase comes
# from operators.unit_phase, whose cos and sin carry the bits of that exp.

def _qz_advance(grid: Grid, eps: float, lams: tuple, dealias: bool):
    """The coupled advance for the batch of sound speeds lams."""
    fft, ifft, _ = _transforms(grid)
    potential = potential_symbol(grid, eps, dealias)[np.newaxis]
    om = omega_eps(grid, eps)
    shape = (len(lams),) + grid.shape
    # H stacks the rows (E, n, nt, |E|^2), the real fields with zero
    # imaginary parts (the transform of a real array and of its complex
    # copy have the same bits). After the first half linear step, one
    # forward call on H transforms the half-evolved E together with n, nt
    # and |E|^2, and one inverse call on H[:3] brings back E after the
    # second half linear step, and n and nt as the real parts of rows 1
    # and 2. E_hat and phase are work space, and the steps below reuse
    # every buffer whose contents are spent.
    E_hat, phase = (np.empty(shape, dtype=np.complex128) for _ in range(2))
    H = np.zeros((4,) + shape, dtype=np.complex128)
    # A kernel is built at the start of a step, where E_hat is spent. Its
    # scratch is a contiguous real view of E_hat's first bytes: a strided
    # .real would cost more.
    kernels, build = {}, partial(_QZKernel, grid, eps, lams, om=om,
                                 work=E_hat.reshape(-1).view(np.float64)[:grid.size]
                                 .reshape(grid.shape))
    H_back, (E_out, Q_hat, Qt_hat, IS_hat) = H[:3], H
    n_out, nt_out = Q_hat.real, Qt_hat.real
    # numpy runs a strided real part through its general iterator when it
    # has more than one axis (about 1 us a call at N=1024) and through its
    # fast path when it is flat, so the elementwise steps on real parts
    # work on flat views of the same memory.
    real_rows_imag, S_flat = H[1:].imag.reshape(-1), IS_hat.real.reshape(-1)
    E_flat, n_flat = E_out.reshape(-1), n_out.reshape(-1)
    arg_flat, phase_flat = E_hat.real.reshape(-1), phase.reshape(-1)
    # The trailing kick of a step and the leading kick of the next one
    # apply the same phase when h repeats: phase_of is the h of the phase
    # computed from the n returned last.
    phase_of = None

    def set_phase(h: float) -> None:
        # exp(-i h/2 n), with the argument in the spent E_hat
        unit_phase(np.multiply(-0.5 * h, n_flat, out=arg_flat), phase_flat)

    def advance(arrays: tuple, h: float, last: bool) -> tuple:
        nonlocal phase_of
        E, n, nt = arrays
        kern = _kernel(kernels, h, last, build)
        if n is not n_out:  # the initial data, read-only
            H[1], H[2] = n, nt
            phase_of = None
        # Palindromic sequence: kick / half linear / exact wave / half
        # linear / kick. The wave substep reads S at the half-evolved
        # (midpoint) envelope, which keeps the composition symmetric and
        # second order.
        if phase_of != h:
            set_phase(h)
        phase_of = None  # phase is scratch until the trailing kick
        np.multiply(E, phase, out=E_out)
        fft(E_out, out=E_hat)
        np.multiply(E_hat, kern.schrod_half, out=E_hat)
        ifft(E_hat, out=E_out)
        real_rows_imag.fill(0.0)
        np.abs(E_flat, out=S_flat)
        np.square(S_flat, out=S_flat)
        fft(H, out=H)
        np.multiply(IS_hat, potential, out=IS_hat)
        np.add(Q_hat, IS_hat, out=Q_hat)
        # Q_new = cos Q_hat + sinc Qt_hat, Qt_new = -lam om sin Q_hat +
        # cos Qt_hat, with phase as the scratch for the second products.
        Q_new = np.multiply(kern.cos, Q_hat, out=E_hat)
        np.add(Q_new, np.multiply(kern.sinc, Qt_hat, out=phase), out=Q_new)
        np.multiply(kern.cos, Qt_hat, out=phase)
        Qt_new = np.multiply(kern.minus_lam_om_sin, Q_hat, out=Qt_hat)
        np.add(Qt_new, phase, out=Qt_new)
        np.subtract(Q_new, IS_hat, out=Q_hat)
        # row 0 holds the coefficients of the half-evolved E
        np.multiply(E_out, kern.schrod_half, out=E_out)
        ifft(H_back, out=H_back)
        set_phase(h)
        phase_of = h
        np.multiply(E_out, phase, out=E_out)
        return E_out, n_out, nt_out
    return advance


def _qmnls_advance(grid: Grid, eps: float, dealias: bool):
    fft, ifft, _ = _transforms(grid)
    potential = potential_symbol(grid, eps, dealias)
    kernels, build = {}, partial(schrodinger_group, grid, eps)
    E_out, work, phase = (np.empty(grid.shape, dtype=np.complex128) for _ in range(3))

    def kick(E, h):
        # exp(-i h/2 V) with the potential V = -I_eps |E|^2
        S = phase.real
        np.abs(E, out=S)
        np.square(S, out=S)
        fft(S, out=work)
        np.multiply(work, potential, out=work)
        ifft(work, out=work)
        unit_phase(np.multiply(0.5 * h, work.real, out=work.real), phase)
        np.multiply(E, phase, out=E_out)

    def advance(arrays: tuple, h: float, last: bool) -> tuple:
        schrod = _kernel(kernels, h, last, build)
        (E,) = arrays
        kick(E, h)
        fft(E_out, out=work)
        np.multiply(work, schrod, out=work)
        ifft(work, out=E_out)
        kick(E_out, h)
        return (E_out,)
    return advance


_FIELD_NAMES = ("E", "n", "nt")


def _arrays(E: Field, *real: Field) -> tuple:
    return (np.asarray(E.values, dtype=np.complex128),) + tuple(f.values for f in real)


def _stacked(arrays: tuple, batch: int) -> tuple:
    """Views of arrays repeated batch times along a new first axis."""
    return tuple(np.broadcast_to(a, (batch,) + a.shape) for a in arrays)


def _check_finite(t: float, arrays: tuple, lams: tuple | None = None) -> None:
    """Raise NonFiniteFieldError naming the first non-finite field; with
    lams, the arrays are stacked one row per lam and the error names the
    lam of the first non-finite row too."""
    for name, arr in zip(_FIELD_NAMES, arrays):
        if not np.all(np.isfinite(arr)):
            where = ""
            if lams is not None:
                finite = np.isfinite(arr).reshape(len(lams), -1).all(axis=1)
                where = f" (lam = {lams[int(np.argmin(finite))]:g})"
            raise NonFiniteFieldError(
                f"field {name!r} became non-finite at t = {t:.6g}{where}")


def _qz_state(grid: Grid, t: float, arrays: tuple) -> ZakharovState:
    E, n, nt = arrays
    return ZakharovState(t=t, E=complex_field(grid, E), n=real_field(grid, n),
                         nt=real_field(grid, nt))


def _qmnls_state(grid: Grid, t: float, arrays: tuple) -> SchrodingerState:
    return SchrodingerState(t=t, E=complex_field(grid, arrays[0]))


def qz_step(s: ZakharovState, dt: float, eps: float, lam: float,
            dealias: bool = True) -> ZakharovState:
    """One Strang step of the coupled system; dt may be negative."""
    if dt == 0.0:
        raise ParameterError("dt must be nonzero")
    advance = _qz_advance(s.grid, float(eps), (float(lam),), bool(dealias))
    arrays = advance(_stacked(_arrays(s.E, s.n, s.nt), 1), float(dt), True)
    t = s.t + dt
    _check_finite(t, arrays)
    return _qz_state(s.grid, t, tuple(a[0] for a in arrays))


def qmnls_step(s: SchrodingerState, dt: float, eps: float,
               dealias: bool = True) -> SchrodingerState:
    """One Strang step of the limit equation; dt may be negative."""
    if dt == 0.0:
        raise ParameterError("dt must be nonzero")
    advance = _qmnls_advance(s.grid, float(eps), bool(dealias))
    arrays = advance(_arrays(s.E), float(dt), True)
    t = s.t + dt
    _check_finite(t, arrays)
    return _qmnls_state(s.grid, t, arrays)


def _plan(dt: float, targets: list, tol: float) -> list:
    """One (target, full, landing) per sample interval: the march takes
    full steps of dt, then the steps in the tuple landing, and is at
    target. The step sizes and times are those of stepping t by
    h = min(dt, target - t) until t is within tol of target, and then
    setting t = target, bit for bit. Once h < dt, target - t only
    shrinks, so no full step follows a landing one."""
    plan, t = [], 0.0
    for target in targets:
        full, landing = 0, ()
        while t < target - tol:
            h = min(dt, target - t)
            if h == dt:
                full += 1
            else:
                landing += (h,)
            t += h
        plan.append((target, full, landing))
        t = target
    return plan


def _march(config: SimConfig, arrays: tuple, advance, lams: tuple | None = None):
    """Step arrays with advance, landing exactly on every sample time, and
    yield (t, steps, arrays) at each sample, steps being the number of
    steps taken so far.

    The arrays are advance's live buffers (the initial data's arrays at
    t = 0): the next step overwrites them, so a caller copies what it
    keeps. Nothing is stepped until the caller asks for the next sample.
    The steps are planned before the first one, so the march tells
    advance which step is the last of its size.

    Finiteness is checked once per sample, not once per step. A
    non-finite value reaches every mode within one FFT and stays, so no
    non-finite sample is yielded; the error names the sample time, and
    the lam of the row when lams names the rows of a batch.
    """
    dt = config.dt
    targets = list(config.sample_times)
    if not targets or abs(targets[-1] - config.T) > _LANDING_TOL:
        targets.append(config.T)
    if targets[0] <= _LANDING_TOL:
        yield 0.0, 0, arrays
        targets = targets[1:]
    plan = _plan(dt, targets, _LANDING_TOL * max(1.0, config.T))
    left = Counter()  # the steps of each size still to take
    for _, full, landing in plan:
        left[dt] += full
        left.update(landing)
    steps = 0
    for target, full, landing in plan:
        for h in chain(repeat(dt, full), landing):
            left[h] -= 1
            arrays = advance(arrays, h, left[h] == 0)
        steps += full + len(landing)
        _check_finite(target, arrays, lams)
        yield target, steps, arrays


def qz_evolve(config: SimConfig, data: InitialData, sink=None, lams=None) -> Trajectory:
    """Evolve the coupled system, snapshotting at the config's sample times.

    With a sink, sink(t, (E, n, nt)) is called as the march lands on each
    sample time, instead of a snapshot, with its live arrays: complex E
    and real n and nt (views into complex buffers). They are valid only
    during the call, as the march steps on when it returns, and the
    returned Trajectory then holds no samples.

    With lams, one march runs every sound speed in lams at once.
    config.lam then only sets the step size config.dt, which every lam
    must give as well. A sink is required, and it receives the arrays
    stacked with shape (len(lams),) + grid.shape, one row per lam in
    order.

    The march reads the initial data's arrays without copying them and
    drops them after its first step, which copies n and nt into its own
    buffers; qz_evolve keeps no reference to data. A caller that passes
    the data without keeping it, as ``qzak simulate`` does, frees it
    there.
    """
    if data.grid != config.grid:
        raise ParameterError("initial data grid does not match config grid")
    batch = lams is not None
    if batch:
        lams = tuple(float(lam) for lam in lams)
        if sink is None:
            raise ParameterError("a march over several lam needs a sink")
        if not lams or any(replace(config, lam=lam).dt != config.dt for lam in lams):
            raise ParameterError("lams must be nonempty and every lam must give "
                                 f"the config's step size dt = {config.dt!r}")
    else:
        lams = (config.lam,)
    advance = _qz_advance(config.grid, config.eps, lams, config.dealias)
    march = _march(config, _stacked(_arrays(data.E0, data.n0, data.n1), len(lams)),
                   advance, lams if batch else None)
    del data
    samples = []
    for t, steps, arrays in march:
        if not batch:  # a batch of one: the sink and the states see its row
            arrays = tuple(a[0] for a in arrays)
        if sink is not None:
            sink(t, arrays)
        else:
            # n and nt are real parts of complex buffers: a contiguous
            # copy keeps half the bytes a view would keep alive.
            samples.append((t, _qz_state(config.grid, t, tuple(a.copy() for a in arrays))))
        del arrays  # at t = 0 the initial data's, which the first step drops
    return Trajectory(config=config, samples=tuple(samples), steps=steps)


def qmnls_evolve(config: SimConfig, E0: Field, sink=None) -> Trajectory:
    """Evolve the limit equation from envelope E0.

    A sink receives (t, (E,)) under the contract of ``qz_evolve``, which
    also holds for E0: the march drops it after its first step.
    """
    if E0.grid != config.grid:
        raise ParameterError("E0 grid does not match config grid")
    advance = _qmnls_advance(config.grid, config.eps, config.dealias)
    march = _march(config, _arrays(E0), advance)
    del E0
    samples = []
    for t, steps, arrays in march:
        if sink is not None:
            sink(t, arrays)
        else:
            samples.append((t, _qmnls_state(config.grid, t, (arrays[0].copy(),))))
        del arrays  # at t = 0 the initial data's, which the first step drops
    return Trajectory(config=config, samples=tuple(samples), steps=steps)


def _check_oracle_dimension(d: int) -> None:
    if d != 1:
        raise ParameterError("oracle_evolve supports d=1 only")


def _check_oracle_size(N: int) -> None:
    if N > _ORACLE_MAX_POINTS:
        raise ParameterError(
            f"oracle_evolve limited to N <= {_ORACLE_MAX_POINTS} (got {N})")


def _oracle_steps(config: SimConfig) -> tuple[int, float]:
    """(steps, step size) of the RK4 march, inside its stability region."""
    n_steps = max(1, round(config.T / (config.dt / _ORACLE_REFINEMENT)))
    h = config.T / n_steps
    rate = max(config.lam * float(np.max(omega_eps(config.grid, config.eps))),
               float(np.max(-delta_eps(config.grid, config.eps))))
    if rate * h > _RK4_IMAG_AXIS_LIMIT:
        raise InstabilityError(
            f"oracle step {h:.3e} violates the RK4 stability bound; "
            f"requires dt <= {_RK4_IMAG_AXIS_LIMIT / rate:.3e}")
    return n_steps, h


def oracle_evolve(config: SimConfig, data: InitialData):
    """Unsplit RK4 reference integration of the coupled system.

    The state is one (3, N) array of the spectral coefficients of
    (E, n, nt), and every RK4 update is a whole-array update. Each stage
    makes one inverse transform of the E and n rows and one forward
    transform of the stacked products |E|^2 and n E. Each split step is
    resolved by _ORACLE_REFINEMENT RK4 steps. Intended for tiny grids
    only; refuses step sizes outside the RK4 imaginary-axis stability
    region. Its checks of the grid and the step also run in
    ``config.resolve_config``.
    """
    grid = config.grid
    _check_oracle_dimension(grid.d)
    _check_oracle_size(grid.N)
    if data.grid != grid:
        raise ParameterError("initial data grid does not match config grid")

    n_steps, h = _oracle_steps(config)
    k_sq = grid.k_squared
    delta = delta_eps(grid, config.eps)
    mask = dealias_mask(grid) if config.dealias else None
    lam2 = config.lam**2

    def rhs(y):
        E, n = np.fft.ifft(y[:2])
        S_hat, nE_hat = hat = np.fft.fft([np.abs(E) ** 2, n.real * E])
        if mask is not None:
            hat *= mask
        dy = np.empty_like(y)
        dy[0] = 1j * (delta * y[0] - nE_hat)
        dy[1] = y[2]
        dy[2] = lam2 * (delta * y[1] - k_sq * S_hat)
        return dy

    y = np.fft.fft(np.stack([data.E0.values, data.n0.values, data.n1.values]))
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    E, n, nt = np.fft.ifft(y)
    arrays = (E, n.real, nt.real)
    _check_finite(config.T, arrays)
    return _qz_state(grid, config.T, arrays)
