import sys

import numpy as np
import pytest

from dataclasses import replace

from qzak import (PresetParams, SimConfig, SweepRecord, fit_rate,
                  lambda_sweep, make_grid, mass, preset_initial_data, q0_exact,
                  q_field, qmnls_evolve, qz_evolve, self_convergence,
                  sobolev_norm)
from qzak.diagnostics import _fit_line, drift, spectral_tail
from qzak.errors import DegenerateInputError, ParameterError
from qzak.field import Field, real_field
from qzak import dynamics, harness, operators
from qzak.harness import oracle_discrepancy


def small_sweep_setup():
    g = make_grid(1, 256, 20.0 * np.pi)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.25, grid=g, dt0=1e-3, c_lam=0.2, m=2,
                    sample_times=tuple(np.linspace(0.0, 0.25, 17)))
    params = PresetParams(amplitude=0.4, width=2.0, n_amplitude=0.5, n_width=2.2,
                          n_k0=1.6, n_center=(0.0,), n1_amplitude=0.3,
                          n1_width=2.0, n1_center=(-2.0,))
    data = preset_initial_data("generic", params, g, eps=1.0)
    return cfg, data


def synthetic_records(errors, lams):
    return [SweepRecord(lam=lam, dt=1e-3, steps=500, sup_err_E_Hm=e, sup_err_Q_Hm=e,
                        sup_Q_Hm=1.0, walltime_s=0.0, max_tail_E=0.0,
                        mass_drift=0.0)
            for lam, e in zip(lams, errors)]


def test_sweep_errors_decrease_and_start_zero():
    cfg, data = small_sweep_setup()
    records = lambda_sweep(cfg, data, [4.0, 8.0, 16.0], 2)
    errs = [r.sup_err_E_Hm for r in records]
    assert errs[0] > errs[1] > errs[2] > 0.0
    assert all(r.mass_drift <= 1e-10 for r in records)
    assert all(r.dt <= 0.2 / r.lam + 1e-15 for r in records)


def test_sweep_deterministic():
    cfg, data = small_sweep_setup()
    first = lambda_sweep(cfg, data, [4.0, 8.0, 16.0], 2)
    second = lambda_sweep(cfg, data, [4.0, 8.0, 16.0], 2)
    assert [r.lam for r in first] == [4.0, 8.0, 16.0]
    for a, b in zip(first, second):
        assert a.lam == b.lam
        assert a.sup_err_E_Hm == b.sup_err_E_Hm
        assert a.sup_err_Q_Hm == b.sup_err_Q_Hm
        assert a.sup_Q_Hm == b.sup_Q_Hm


def test_sweep_resolution_robustness():
    # doubling N or L moves each recorded error by < 5%
    cfg, data = small_sweep_setup()
    base = lambda_sweep(cfg, data, [4.0, 8.0], 2)
    for N, L in ((512, 20.0 * np.pi), (512, 40.0 * np.pi)):
        g2 = make_grid(1, N, L)
        cfg2 = replace(cfg, grid=g2)
        params = PresetParams(amplitude=0.4, width=2.0, n_amplitude=0.5,
                              n_width=2.2, n_k0=1.6, n_center=(0.0,),
                              n1_amplitude=0.3, n1_width=2.0, n1_center=(-2.0,))
        data2 = preset_initial_data("generic", params, g2, eps=1.0)
        other = lambda_sweep(cfg2, data2, [4.0, 8.0], 2)
        for a, b in zip(base, other):
            assert abs(a.sup_err_E_Hm - b.sup_err_E_Hm) < 0.05 * a.sup_err_E_Hm
            assert abs(a.sup_err_Q_Hm - b.sup_err_Q_Hm) < 0.05 * a.sup_err_Q_Hm


def field_chain_sweep(cfg, data, lambdas, m):
    """The sweep's measurement as a chain of Fields over a buffered trajectory,
    as lambda_sweep measured before it streamed its samples."""
    reference = qmnls_evolve(replace(cfg, lam=lambdas[0]), data.E0).states
    f0 = q_field(data.initial_state(), cfg.eps)
    grid = cfg.grid
    out = []
    for lam in lambdas:
        traj = qz_evolve(replace(cfg, lam=lam), data)
        err_E = err_Q = sup_Q = tail = 0.0
        masses = []
        for (t, state), ref in zip(traj.samples, reference):
            err_E = max(err_E, sobolev_norm(Field(grid, state.E.values - ref.E.values), m))
            q = q_field(state, cfg.eps)
            q0 = q0_exact(t, lam, cfg.eps, f0)
            sup_Q = max(sup_Q, sobolev_norm(q, m))
            err_Q = max(err_Q, sobolev_norm(real_field(grid, q.values - q0.values), m))
            tail = max(tail, spectral_tail(state.E, 2.0 / 3.0))
            masses.append(mass(state.E))
        out.append({"steps": traj.steps, "sup_err_Q_Hm": err_Q, "sup_Q_Hm": sup_Q,
                    "max_tail_E": tail, "mass_drift": drift(masses),
                    "sup_err_E_Hm": err_E})
    return out


def well_prepared_sweep_setup():
    cfg, _ = small_sweep_setup()
    params = PresetParams(amplitude=1.0, width=2.0, chirp=0.2)
    return cfg, preset_initial_data("well-prepared", params, cfg.grid, eps=1.0)


def compatible_2d_sweep_setup():
    g = make_grid(2, 64, 8.0 * np.pi)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.05, grid=g, dt0=1e-3, c_lam=0.2, m=2,
                    sample_times=tuple(np.linspace(0.0, 0.05, 5)))
    params = PresetParams(amplitude=0.8, width=2.0, center=(0.0, 0.0),
                          min_points_per_width=4.0)
    return cfg, preset_initial_data("compatible", params, g, eps=1.0)


def cross_group_sweep_setup():
    # c_lam / dt0 = 20: lam 4, 8 and 16 share dt0 and march as one batch,
    # lam 64 steps at c_lam / 64 on its own
    cfg, data = small_sweep_setup()
    return replace(cfg, c_lam=0.02), data


@pytest.mark.parametrize("setup", [small_sweep_setup, well_prepared_sweep_setup,
                                   compatible_2d_sweep_setup, cross_group_sweep_setup])
def test_streamed_sweep_matches_field_chain(setup):
    # sup_err_E_Hm keeps the old arithmetic bit for bit; the rest are
    # formed from coefficients and move by rounding only. The batched
    # records come back in ladder order, each with its own step size.
    cfg, data = setup()
    lambdas = [4.0, 8.0, 16.0, 64.0]
    records = lambda_sweep(cfg, data, lambdas, 2)
    assert [r.lam for r in records] == lambdas
    assert [r.dt for r in records] == [replace(cfg, lam=lam).dt for lam in lambdas]
    for rec, old in zip(records, field_chain_sweep(cfg, data, lambdas, 2), strict=True):
        assert rec.sup_err_E_Hm == old.pop("sup_err_E_Hm")
        for key, value in old.items():
            assert getattr(rec, key) == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_sweep_builds_no_field_per_sample(monkeypatch):
    cfg, data = small_sweep_setup()
    built = [0]
    init = Field.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counted)
    counts = []
    for samples in (9, 17):
        built[0] = 0
        run = replace(cfg, sample_times=tuple(np.linspace(0.0, cfg.T, samples)))
        lambda_sweep(run, data, [4.0, 8.0, 16.0], 2)
        counts.append(built[0])
    assert counts[0] == counts[1]


def test_sweep_memory_does_not_grow_with_samples():
    # The limit reference steps in lockstep with the coupled march, so
    # 48 more sample times must not keep 48 more reference grids alive.
    import tracemalloc

    cfg, data = small_sweep_setup()
    runs = [replace(cfg, sample_times=tuple(np.linspace(0.0, cfg.T, samples)))
            for samples in (17, 65)]
    for run in runs:  # a first run makes one-off allocations
        lambda_sweep(run, data, [4.0, 8.0, 16.0], 2)
    peaks = []
    for run in runs:
        tracemalloc.start()
        try:
            lambda_sweep(run, data, [4.0, 8.0, 16.0], 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    grid_bytes = cfg.grid.N * 16
    assert peaks[1] - peaks[0] < 48 * grid_bytes / 4


def test_sweep_builds_symbols_once_per_group(monkeypatch):
    # the weights, the potential and omega_eps are built once per dt group,
    # never per sample: every symbol builder the sweep looks up is counted
    built = []
    for name in ("_weights", "_sobolev_weight", "_tail_weights", "potential_symbol",
                 "_omega_eps"):
        build = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *a, _f=build, _n=name, **k: built.append(_n) or _f(*a, **k))
    cfg, data = small_sweep_setup()
    counts = []
    for samples in (9, 17):
        built.clear()
        run = replace(cfg, sample_times=tuple(np.linspace(0.0, cfg.T, samples)))
        lambda_sweep(run, data, [4.0, 8.0, 16.0], 2)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("setup,groups", [(small_sweep_setup, 1), (cross_group_sweep_setup, 2),
                                          (compatible_2d_sweep_setup, 1)])
def test_sweep_measures_each_sample_with_one_real_transform(monkeypatch, setup, groups):
    # one rfft call per sample on the stack of every row of a group, one for
    # f0, and no complex transform of the sweep's own: the marches and
    # q_field make those
    calls = []
    for name in ("fft", "ifft", "rfft", "fftn", "ifftn", "rfftn"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _f=transform, _n=name, **k: calls.append(
            (_n, sys._getframe(1).f_globals["__name__"])) or _f(*a, **k))
    cfg, data = setup()
    lambda_sweep(cfg, data, [4.0, 8.0, 16.0, 64.0], 2)
    real = "rfft" if cfg.grid.d == 1 else "rfftn"
    assert [name for name, module in calls if module == "qzak.harness"] == (
        [real] * (groups * len(cfg.sample_times) + 1))
    assert {module for name, module in calls if name != real} == {"qzak.dynamics",
                                                                  "qzak.state"}


def test_sweep_rejects_unsorted(grid256):
    cfg, data = small_sweep_setup()
    with pytest.raises(ParameterError):
        lambda_sweep(cfg, data, [8.0, 4.0], 2)


def test_sweep_rejects_negative_sobolev_index(grid256):
    cfg, data = small_sweep_setup()
    with pytest.raises(ParameterError, match="Sobolev index"):
        lambda_sweep(cfg, data, [4.0, 8.0, 16.0], -1)


def test_sweep_rejects_empty_lambda_list():
    cfg, data = small_sweep_setup()
    with pytest.raises(ParameterError, match="nonempty"):
        lambda_sweep(cfg, data, [], 2)


def test_fit_exact_power_laws():
    lams = [4.0, 8.0, 16.0]
    fit = fit_rate(synthetic_records([0.25, 0.125, 0.0625], lams), "E-error")
    assert np.isclose(fit.slope, -1.0, atol=1e-12)
    assert fit.residual < 1e-12
    fit2 = fit_rate(synthetic_records([1.0 / 16.0, 1.0 / 64.0, 1.0 / 256.0], lams),
                    "Q-error")
    assert np.isclose(fit2.slope, -2.0, atol=1e-12)
    assert np.isclose(fit2.intercept, 0.0, atol=1e-12)


# The points (log x, log y) that the committed configs fit: the E- and
# Q-error rates of both sweeps, the splitting order of self_converge.json
# and the inner decay exponent of layer_decay.json.
LOG_LAMS = [1.3862943611198906, 2.0794415416798357, 2.772588722239781,
            3.4657359027997265, 4.1588830833596715]
COMMITTED_FITS = {
    "sweep_generic E": (LOG_LAMS, [
        -3.283423981594513, -3.8086002597900617, -4.542817592649353,
        -5.460726560154002, -6.182895058699354]),
    "sweep_generic Q": (LOG_LAMS, [
        -2.321197300393342, -2.9757763767132683, -3.698014543889543,
        -4.42238677701491, -5.088262742277396]),
    "sweep_well_prepared E": (LOG_LAMS, [
        -2.421006215800888, -3.5881044007528495, -4.846946967880927,
        -6.2370183765330305, -7.619803911093315]),
    "sweep_well_prepared Q": (LOG_LAMS, [
        -0.31784003145098055, -1.0734814734870197, -1.818933868801034,
        -2.546435273522406, -3.2577590123009093]),
    "self_converge": ([-5.521460917862246, -6.214608098422191, -6.907755278982137],
                      [-12.220671815910839, -13.623894081540355, -15.060200937505574]),
    "layer_decay": ([1.0986122886681098, 1.3862943611198906, 1.6094379124341003,
                     1.9459101490553132, 2.1972245773362196, 2.3978952727983707],
                    [-0.24442956193728257, -0.5191435808608541, -0.7732171914772547,
                     -1.4532477117124893, -2.2797668103985176, -3.1870725273539096]),
}


@pytest.mark.parametrize("name", sorted(COMMITTED_FITS))
def test_closed_form_fit_matches_polyfit(name):
    xs, ys = (np.array(v) for v in COMMITTED_FITS[name])
    slope, intercept = _fit_line(xs, ys)
    want_slope, want_intercept = np.polyfit(xs, ys, 1)
    assert slope == pytest.approx(want_slope, rel=1e-12, abs=0.0)
    assert intercept == pytest.approx(want_intercept, rel=1e-12, abs=0.0)


def test_fit_lambda2_log_flattens():
    lams = [4.0, 8.0, 16.0, 32.0, 64.0]
    errors = [np.log(l) / l**2 for l in lams]
    fit = fit_rate(synthetic_records(errors, lams), "E-error")
    assert -2.0 < fit.slope < -1.5


def test_fit_degenerate_inputs():
    lams = [4.0, 8.0]
    with pytest.raises(DegenerateInputError):
        fit_rate(synthetic_records([0.1, 0.05], lams), "E-error")
    with pytest.raises(DegenerateInputError, match="3 distinct lam"):
        fit_rate(synthetic_records([0.1, 0.05, 0.02], [4.0, 4.0, 8.0]), "E-error")
    with pytest.raises(DegenerateInputError):
        fit_rate(synthetic_records([0.1, 0.0, 0.1], [4.0, 8.0, 16.0]), "E-error")
    with pytest.raises(ParameterError):
        fit_rate(synthetic_records([0.1, 0.05, 0.02], [4.0, 8.0, 16.0]), "bogus")


def test_self_convergence_linear_regime_machine_zero():
    from qzak import InitialData, complex_field, real_field
    g = make_grid(1, 64, 2.0 * np.pi)
    x = g.coordinates[0]
    zero = real_field(g, np.zeros(64))
    data = InitialData(E0=complex_field(g, np.zeros(64, complex)),
                       n0=real_field(g, np.cos(x)), n1=zero)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.2, grid=g, dt0=1e-3,
                    sample_times=(0.2,))
    result = self_convergence(cfg, data, [4e-3, 2e-3, 1e-3, 5e-4])
    assert max(result.errors) < 1e-12
    # E stays exactly zero, so there is no order to fit
    assert result.errors == (0.0, 0.0, 0.0)
    assert np.isnan(result.order)


def test_self_convergence_nonlinear_second_order():
    cfg, data = small_sweep_setup()
    cfg = replace(cfg, lam=8.0)
    result = self_convergence(cfg, data, [5e-3, 2.5e-3, 1.25e-3, 3.125e-4])
    assert 1.8 <= result.order <= 2.2


def test_self_convergence_validates_dts():
    cfg, data = small_sweep_setup()
    with pytest.raises(ParameterError):
        self_convergence(cfg, data, [1e-3, 2e-3, 4e-3, 8e-3])
    with pytest.raises(ParameterError):
        self_convergence(cfg, data, [3e-3, 2e-3, 1e-3, 5e-4])  # 3e-3 !| 0.25
    with pytest.raises(ParameterError, match="'foo'"):
        self_convergence(cfg, data, [4e-3, 2e-3, 1e-3, 5e-4], target="foo")


@pytest.mark.parametrize("d,dealias", [(1, False), (2, False), (1, True), (2, True)],
                         ids=["d1", "d2", "d1-dealias", "d2-dealias"])
def test_oracle_discrepancy_small(d, dealias):
    # the oracle dealiases only what the split step dealiases, |E|^2
    g = make_grid(d, 32, 8.0 * np.pi)
    params = PresetParams(amplitude=1.0, n_amplitude=0.5, n1_amplitude=0.3,
                          width=3.0, n_width=3.0, n1_width=3.0,
                          min_points_per_width=3.0, edge_tol=1e-7)
    data = preset_initial_data("generic", params, g, eps=1.0)
    cfg = SimConfig(eps=1.0, lam=4.0, T=0.1, grid=g, dt0=1e-3, dealias=dealias,
                    sample_times=(0.1,))
    assert oracle_discrepancy(cfg, data) <= 1e-5


def acceptance_scale_setup(eps=1.0):
    g = make_grid(1, 1024, 40.0 * np.pi)
    cfg = SimConfig(eps=eps, lam=8.0, T=0.5, grid=g, dt0=1e-3, c_lam=0.2, m=2)
    params = PresetParams(amplitude=0.25, width=1.75, n_amplitude=0.5,
                          n_width=2.2, n_k0=1.6, n_center=(0.0,),
                          n1_amplitude=0.3, n1_width=2.0, n1_center=(-2.0,))
    return cfg, preset_initial_data("generic", params, g, eps=eps)


def test_slopes_persist_across_eps():
    # constants move with eps, the fitted rate does not (within 0.2)
    slopes = []
    for eps in (0.5, 1.0):
        cfg, data = acceptance_scale_setup(eps)
        records = lambda_sweep(cfg, data, [8.0, 16.0, 32.0], 2)
        slopes.append(fit_rate(records, "E-error").slope)
    assert abs(slopes[0] - slopes[1]) <= 0.2


def test_sup_error_insensitive_to_dt_halving():
    # accuracy-dictated step law: halving dt moves the reported sup by < 2%
    cfg, data = acceptance_scale_setup()
    errs = []
    for dt0 in (1e-3, 5e-4):
        run = replace(cfg, lam=64.0, dt0=dt0, c_lam=64.0 * dt0)
        errs.append(lambda_sweep(run, data, [64.0], 2)[0].sup_err_E_Hm)
    assert abs(errs[0] - errs[1]) <= 0.02 * errs[1]


def test_sup_error_insensitive_to_sampling_density():
    cfg, data = acceptance_scale_setup()
    sups = []
    for ns in (64, 128):
        run = replace(cfg, lam=64.0,
                      sample_times=tuple(np.linspace(0.0, cfg.T, ns)))
        sups.append(lambda_sweep(run, data, [64.0], 2)[0].sup_err_E_Hm)
    assert abs(sups[0] - sups[1]) <= 0.02 * sups[1]

