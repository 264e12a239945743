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

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import NonFiniteFieldError, ParameterError
from .field import Field, _transforms, complex_field, real_field
from .grid import Grid
from .operators import (_halves, _multiply, _omega_eps, _schrodinger_group, _stored,
                        dealias_mask, delta_eps, potential_symbol, unit_phase, wave_propagator)
from .state import InitialData, SchrodingerState, SimConfig, ZakharovState

_LANDING_TOL = 1e-12
_ORACLE_SUBSTEPS = 2  # Lawson RK4 steps per split step
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


# The wave rotation runs over blocks of at most this many elements (at
# d=2, of whole rows), so that its two temporaries are no larger than a
# block. It is the size of numpy's casting buffer, and a d=1 batch of five
# rows at N=1024 is one block.
_BLOCK = 8192


def _blocks(grid: Grid, *arrays: np.ndarray, stored: bool = False) -> list:
    """One tuple per block: the views of that block of each (B,) + grid
    array, or stored symbol when stored. At d=1, _BLOCK elements of the
    flattened arrays; at d=2, whole rows of one of the _halves of one row
    of the batch, so that the blocks of fields and symbols pair up."""
    if grid.d == 1:
        flat = [a.reshape(-1) for a in arrays]
        return [tuple(f[i:i + _BLOCK] for f in flat) for i in range(0, flat[0].size, _BLOCK)]
    rows = max(1, _BLOCK // grid.N)
    return [tuple(half[i:i + rows] for half in halves)
            for batch_row in zip(*arrays)
            for halves in zip(*(_halves(grid, a, stored) for a in batch_row))
            for i in range(0, len(halves[0]), rows)]


# An advance holds two kernel slots: one for the full step dt, kept from
# the march's first full step to its end, and one for the landing steps,
# refilled in place whenever the landing size changes (a march whose
# every step lands on a sample holds one kernel). A kernel holds only the
# symbols that depend on the step size, on their stored rows (see
# operators._halves); each advance builds the potential symbol once.
# A refill evaluates each symbol straight into the kernel's stored rows,
# with |xi|^2 and omega_eps in the advance's spent kick phase, so it
# allocates only k_squared_block's and wave_propagator's temporaries.
class _Kernel:
    """Symbol arrays for one (grid, eps, lams) at the step size h that
    refill(h, scratch) last set, on their stored rows (operators._stored):
    schrod, the Schrodinger group over scale * h, of shape (1,) + stored,
    and rows, the exact wave step over h, (cos, sinc, minus_lam_om_sin)
    with one row per entry of lams (empty for the limit equation). The
    leading 1 keeps a batch of one on numpy's fast path for operands of
    equal shape. schrod_views holds the _halves of schrod (of schrod[0]
    for the limit equation, whose field is not stacked), and rotation the
    views of rows in each block of _blocks.
    """

    def __init__(self, grid: Grid, eps: float, lams: tuple, scale: float):
        self.grid, self.eps, self.lams, self.scale, self.h = grid, eps, lams, scale, None
        stored = _stored(grid, grid.shape)
        self.schrod = np.empty((1,) + stored, dtype=np.complex128)
        self.schrod_views = _halves(grid, self.schrod if lams else self.schrod[0], True)
        self.rows = np.empty((3, len(lams)) + stored)
        self.rotation = _blocks(grid, *self.rows, stored=True)

    def refill(self, h: float, scratch: np.ndarray) -> None:
        """Set the symbols to the step size h, with the flat real scratch
        of 2 prod(stored) elements or more (|xi|^2 and omega_eps on the
        stored rows) as work space."""
        stored = self.schrod.shape[1:]
        k2, om = scratch[:2 * math.prod(stored)].reshape((2,) + stored)
        self.grid.k_squared_block(stored, out=k2)
        _schrodinger_group(k2, self.eps, self.scale * h, self.schrod[0])
        if self.lams:
            _omega_eps(k2, self.eps, om)  # k2 is spent: it is lam_om below
            for i, lam in enumerate(self.lams):
                wave_propagator(om, lam, h, *self.rows[:, i], k2)
        self.h = h


# Every march and single step shares one protocol: an advance is built
# with the initial data, which it copies into its own buffers, and comes
# back as (arrays, advance). The fields travel as that tuple of plain
# arrays, (E, n, nt) for the coupled system and (E,) for the limit
# equation, which advance(h, full) steps in place by h, full telling a
# step of dt from a landing one. The coupled arrays are stacked, one row
# per sound speed of the batch, with shape (B,) + grid.shape. A caller
# copies what it keeps, and can free the initial data once the advance
# is built, before any kernel exists.
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

def _qz_advance(grid: Grid, eps: float, lams: tuple, dealias: bool, data: tuple):
    """The coupled advance for the batch of sound speeds lams, loaded with
    data, the (E, n, nt) arrays of one grid or of the batch."""
    fft, ifft, _ = _transforms(grid)
    # H stacks the rows (E, n, nt, |E|^2), the real fields with zero
    # imaginary parts (the transform of a real array and of its complex
    # copy have the same bits). The first half linear step runs in place
    # in row 0. Then one forward call on H transforms the half-evolved E
    # together with n, nt and |E|^2, and one inverse call on H[:3] brings
    # back E after the second half linear step, and n and nt as the real
    # parts of rows 1 and 2. Between the trailing kick of a step and the
    # leading kick of the next, the |E|^2 row holds the kick phase, with
    # the kick argument in its imaginary part; a kernel refill takes that
    # row as its scratch, so the phase is computed again after a refill.
    # The wave rotation puts the new Q and its other products in prod, two
    # blocks in size.
    H = np.zeros((4, len(lams)) + grid.shape, dtype=np.complex128)
    H_back, (E_out, Q_hat, Qt_hat, IS_hat) = H[:3], H
    arrays = E_out, n_out, _ = E_out, Q_hat.real, Qt_hat.real
    for dst, src in zip(arrays, data):
        np.copyto(dst, src)
    E_views, IS_views = _halves(grid, E_out), _halves(grid, IS_hat)
    potential = _halves(grid, potential_symbol(grid, eps, dealias, _stored(grid, grid.shape))
                        [np.newaxis], True)
    blocks = _blocks(grid, Q_hat, Qt_hat, IS_hat)
    prod = np.empty((2, max(b[0].size for b in blocks)), dtype=np.complex128)
    # numpy runs a strided real part through its general iterator when it
    # has more than one axis (about 1 us a call at N=1024) and through its
    # fast path when it is flat, so the elementwise steps on real parts
    # work on flat views of the same memory.
    real_rows_imag, S_flat = H[1:].imag.reshape(-1), IS_hat.real.reshape(-1)
    E_flat, n_flat = E_out.reshape(-1), n_out.reshape(-1)
    phase, phase_flat = IS_hat, IS_hat.reshape(-1)
    arg_flat, scratch = phase_flat.imag, phase_flat.view(np.float64)
    rotation = [b + tuple(p[:b[0].size].reshape(b[0].shape) for p in prod) for b in blocks]
    # The trailing kick of a step and the leading kick of the next one
    # apply the same phase when h repeats: phase_of is the h of the phase
    # computed from the n returned last.
    phase_of = None
    slots, make = [None, None], partial(_Kernel, grid, eps, lams, 0.5)

    def set_phase(h: float) -> None:
        # exp(-i h/2 n), with the argument in phase's imaginary part
        unit_phase(np.multiply(-0.5 * h, n_flat, out=arg_flat), phase_flat)

    def advance(h: float, full: bool) -> None:
        nonlocal phase_of
        kern = slots[full] = slots[full] or make()
        if kern.h != h:
            kern.refill(h, scratch)
            phase_of = None
        # Palindromic sequence: kick / half linear / exact wave / half
        # linear / kick. The wave substep reads S at the half-evolved
        # (midpoint) envelope, which keeps the composition symmetric and
        # second order.
        if phase_of != h:
            set_phase(h)
        np.multiply(E_out, phase, out=E_out)
        fft(E_out, out=E_out)
        _multiply(E_views, kern.schrod_views, E_views)
        ifft(E_out, out=E_out)
        real_rows_imag.fill(0.0)
        np.abs(E_flat, out=S_flat)
        np.square(S_flat, out=S_flat)
        fft(H, out=H)
        _multiply(IS_views, potential, IS_views)
        np.add(Q_hat, IS_hat, out=Q_hat)
        # Q_new = cos Q_hat + sinc Qt_hat, Qt_new = -lam om sin Q_hat +
        # cos Qt_hat, block by block.
        for (cos, sinc, rate), (Q, Qt, IS, Q_new, p) in zip(kern.rotation, rotation):
            np.multiply(cos, Q, out=Q_new)
            np.add(Q_new, np.multiply(sinc, Qt, out=p), out=Q_new)
            np.multiply(cos, Qt, out=p)
            np.multiply(rate, Q, out=Qt)
            np.add(Qt, p, out=Qt)
            np.subtract(Q_new, IS, out=Q)
        # row 0 holds the coefficients of the half-evolved E
        _multiply(E_views, kern.schrod_views, E_views)
        ifft(H_back, out=H_back)
        set_phase(h)
        phase_of = h
        np.multiply(E_out, phase, out=E_out)
    return arrays, advance


def _qmnls_advance(grid: Grid, eps: float, dealias: bool, data: tuple):
    """The limit-equation advance, loaded with data, the (E,) arrays."""
    fft, ifft, _ = _transforms(grid)
    E_out, work, phase = (np.empty(grid.shape, dtype=np.complex128) for _ in range(3))
    np.copyto(E_out, data[0])
    work_views = _halves(grid, work)
    potential = _halves(grid, potential_symbol(grid, eps, dealias, _stored(grid, grid.shape)),
                        True)
    # a kick computes its phase afresh, so a refill takes its memory as scratch
    scratch = phase.reshape(-1).view(np.float64)
    slots, make = [None, None], partial(_Kernel, grid, eps, (), 1.0)

    def kick(h):
        # E times exp(-i h/2 V), with the potential V = -I_eps |E|^2
        S = phase.real
        np.abs(E_out, out=S)
        np.square(S, out=S)
        fft(S, out=work)
        _multiply(work_views, potential, work_views)
        ifft(work, out=work)
        unit_phase(np.multiply(0.5 * h, work.real, out=work.real), phase)
        np.multiply(E_out, phase, out=E_out)

    def advance(h: float, full: bool) -> None:
        kern = slots[full] = slots[full] or make()
        if kern.h != h:
            kern.refill(h, scratch)
        kick(h)
        fft(E_out, out=work)
        _multiply(work_views, kern.schrod_views, work_views)
        ifft(work, out=E_out)
        kick(h)
    return (E_out,), advance


_FIELD_NAMES = ("E", "n", "nt")


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


def _state(grid: Grid, t: float, arrays: tuple) -> ZakharovState | SchrodingerState:
    """The state of the grid-shaped arrays (E, n, nt) or (E,) at time t."""
    if len(arrays) == 1:
        return SchrodingerState(t=t, E=complex_field(grid, arrays[0]))
    E, n, nt = arrays
    return ZakharovState(t=t, E=complex_field(grid, E), n=real_field(grid, n),
                         nt=real_field(grid, nt))


def _step(s: ZakharovState | SchrodingerState, dt: float, build):
    """One step of dt from the state s by the advance that build() loads
    with the fields of s."""
    if dt == 0.0:
        raise ParameterError("dt must be nonzero")
    arrays, advance = build()
    advance(float(dt), True)
    t = s.t + dt
    _check_finite(t, arrays)
    return _state(s.grid, t, tuple(a.reshape(s.grid.shape) for a in arrays))


def qz_step(s: ZakharovState, dt: float, eps: float, lam: float,
            dealias: bool = True) -> ZakharovState:
    """One Strang step of the coupled system; dt may be negative."""
    return _step(s, dt, partial(_qz_advance, s.grid, float(eps), (float(lam),), bool(dealias),
                                (s.E.values, s.n.values, s.nt.values)))


def qmnls_step(s: SchrodingerState, dt: float, eps: float,
               dealias: bool = True) -> SchrodingerState:
    """One Strang step of the limit equation; dt may be negative."""
    return _step(s, dt, partial(_qmnls_advance, s.grid, float(eps), bool(dealias),
                                (s.E.values,)))


def _march(config: SimConfig, arrays: tuple, advance, lams: tuple | None = None):
    """Step arrays with advance, landing exactly on every sample time, and
    yield (t, steps, arrays) at each sample, steps being the number of
    steps taken so far.

    The arrays are advance's live buffers, which advance(h, full) steps
    in place: the next step overwrites them, so a caller copies what it
    keeps. Nothing is stepped until the caller asks for the next sample.
    Each sample interval is stepped by h = min(dt, target - t), with full
    telling a step of dt from one that lands on the sample, until t is
    within the landing tolerance of the sample time; t is then set to it.
    Once h < dt, target - t only shrinks, so no full step follows a
    landing one within an interval. A sample time within the landing
    tolerance of 0 is taken as 0 and yielded before any step.

    Finiteness is checked once per sample, not once per step, t = 0
    included. A non-finite value reaches every mode within one FFT and
    stays, so no non-finite sample is yielded; the error names the
    sample time, and the lam of the row when lams names the rows of a
    batch.
    """
    dt, tol = config.dt, _LANDING_TOL * max(1.0, config.T)
    targets = list(config.sample_times)
    if not targets or abs(targets[-1] - config.T) > _LANDING_TOL:
        targets.append(config.T)
    if targets[0] <= _LANDING_TOL:
        targets[0] = 0.0
    t, steps = 0.0, 0
    for target in targets:
        while t < target - tol:
            h = min(dt, target - t)
            advance(h, h == dt)
            t += h
            steps += 1
        t = target
        _check_finite(target, arrays, lams)
        yield target, steps, arrays


def _evolve(config: SimConfig, march, sink) -> Trajectory:
    """Run march to its end: call sink(t, arrays) at each sample, or
    without a sink keep a snapshot of copies of the arrays."""
    samples = []
    for t, steps, arrays in march:
        if sink is not None:
            sink(t, arrays)
        else:
            # n and nt are real parts of complex buffers: a contiguous
            # copy keeps half the bytes a view would keep alive.
            samples.append((t, _state(config.grid, t, tuple(a.copy() for a in arrays))))
    return Trajectory(config=config, samples=tuple(samples), steps=steps)


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

    The advance copies the initial data into its own buffers before the
    first step, and qz_evolve then drops it. A caller that passes the
    data without keeping it, as ``qzak simulate`` does, frees it there,
    before any step kernel exists.
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
    live, advance = _qz_advance(config.grid, config.eps, lams, config.dealias,
                                (data.E0.values, data.n0.values, data.n1.values))
    del data
    if not batch:  # a batch of one: the sink and the states see its row
        live = tuple(a.reshape(config.grid.shape) for a in live)
    return _evolve(config, _march(config, live, advance, lams if batch else None), sink)


def qmnls_evolve(config: SimConfig, E0: Field, sink=None) -> Trajectory:
    """Evolve the limit equation from envelope E0.

    A sink receives (t, (E,)) under the contract of ``qz_evolve``, which
    also holds for E0: it is dropped once the advance has copied it.
    """
    if E0.grid != config.grid:
        raise ParameterError("E0 grid does not match config grid")
    march = _march(config, *_qmnls_advance(config.grid, config.eps, config.dealias,
                                           (E0.values,)))
    del E0
    return _evolve(config, march, sink)


def _check_oracle_size(N: int) -> None:
    if N > _ORACLE_MAX_POINTS:
        raise ParameterError(
            f"oracle_evolve limited to N <= {_ORACLE_MAX_POINTS} (got {N})")


def oracle_evolve(config: SimConfig, data: InitialData):
    """Unsplit reference integration of the coupled system: Lawson's
    integrating-factor RK4 (Lawson, SIAM J. Numer. Anal. 4, 1967).

    The state is one (3,) + grid.shape array of the spectral coefficients
    of (E, n, nt). The linear flow is applied exactly: E's coefficients
    turn by exp(i delta_eps s), and each mode of (n, nt) rotates at the
    frequency lam omega, with omega = sqrt(-delta_eps). RK4 integrates
    only the nonlinear terms -i (n E)^ and -lam^2 |xi|^2 (|E|^2)^, in the
    frame that the linear flow carries along, with _ORACLE_SUBSTEPS steps
    per split step. As in the split step, dealias cuts (|E|^2)^ alone,
    and n E is taken pointwise. No step size is refused: the stiff linear
    part, which sets an explicit method's stability bound, is exact here.
    Only the transforms (field._transforms) are shared with the split
    step; the flow is built here from delta_eps and k_squared, so that
    the check stays independent of what it checks. Each stage makes one
    inverse transform of the E and n rows and one forward transform of
    the stacked products |E|^2 and n E. Intended for tiny grids only;
    its check of the grid also runs in ``config.resolve_config``.
    """
    grid = config.grid
    _check_oracle_size(grid.N)
    if data.grid != grid:
        raise ParameterError("initial data grid does not match config grid")

    n_steps = max(1, round(config.T / (config.dt / _ORACLE_SUBSTEPS)))
    h = config.T / n_steps
    fft, ifft, _ = _transforms(grid)
    mask = dealias_mask(grid) if config.dealias else None
    coupling = -config.lam**2 * grid.k_squared
    # the linear flow over h/2; two of them make the flow over h
    delta = delta_eps(grid, config.eps)
    lam_om = config.lam * np.sqrt(-delta)
    turn = np.exp(0.5j * h * delta)
    cos, sin = np.cos(0.5 * h * lam_om), np.sin(0.5 * h * lam_om)
    sinc = np.divide(sin, lam_om, out=np.full(grid.shape, 0.5 * h), where=lam_om > 0.0)
    rate = -lam_om * sin

    def flow(y):
        return np.stack([turn * y[0], cos * y[1] + sinc * y[2], rate * y[1] + cos * y[2]])

    def nonlinear(y):
        E, n = ifft(y[:2])
        S_hat, nE_hat = fft([np.abs(E) ** 2, n.real * E])
        if mask is not None:
            S_hat *= mask
        return np.stack([-1j * nE_hat, np.zeros_like(S_hat), coupling * S_hat])

    # classical RK4 on exp(-L t) y, the linear flow L divided out, written
    # back in y: flow applies exp(L h/2), and flow(flow(.)) exp(L h)
    y = fft(np.stack([data.E0.values, data.n0.values, data.n1.values]))
    for _ in range(n_steps):
        k1 = nonlinear(y)
        y_half = flow(y)
        k2 = nonlinear(flow(y + 0.5 * h * k1))
        k3 = nonlinear(y_half + 0.5 * h * k2)
        k4 = nonlinear(flow(y_half + h * k3))
        y = flow(flow(y + (h / 6.0) * k1) + (h / 3.0) * (k2 + k3)) + (h / 6.0) * k4

    E, n, nt = ifft(y)
    arrays = (E, n.real, nt.real)
    _check_finite(config.T, arrays)
    return _state(grid, config.T, arrays)
