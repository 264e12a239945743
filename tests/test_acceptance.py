"""Acceptance gate.

Every run uses the standard configuration: d=1, N=1024, L=40*pi, eps=1,
T=0.5, m=2, dt=min(1e-3, 0.2/lam), 64 uniform sample times. Each
criterion prints one PASS/FAIL line (run pytest with -s to stream them).
"""

import numpy as np
import pytest

from dataclasses import replace

from qzak import (PresetParams, SimConfig, complex_field, decay_probe,
                  fit_rate, hamiltonian_qz, lambda_sweep,
                  l2_norm, make_grid, mass, preset_initial_data, qmnls_evolve,
                  qz_evolve, real_field, self_convergence)
from qzak.diagnostics import drift, hamiltonian_qmnls
from qzak.harness import oracle_discrepancy

EPS = 1.0
T = 0.5
M = 2
LAMBDAS = [4.0, 8.0, 16.0, 32.0, 64.0]

GENERIC = PresetParams(amplitude=0.25, width=1.75, n_amplitude=0.5,
                       n_width=2.2, n_k0=1.6, n_center=(0.0,),
                       n1_amplitude=0.3, n1_width=2.0, n1_center=(-2.0,))
WELL_PREPARED = PresetParams(amplitude=1.0, width=2.0, chirp=0.2)


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


def standard_config(grid):
    return SimConfig(eps=EPS, lam=LAMBDAS[0], T=T, grid=grid, dt0=1e-3,
                     c_lam=0.2, m=M,
                     sample_times=tuple(np.linspace(0.0, T, 64)))


def run_sweep(kind, params, N=1024, L=40.0 * np.pi):
    grid = make_grid(1, N, L)
    cfg = standard_config(grid)
    data = preset_initial_data(kind, params, grid, eps=EPS)
    return lambda_sweep(cfg, data, LAMBDAS, M)


@pytest.fixture(scope="module")
def generic_sweep():
    return run_sweep("generic", GENERIC)


@pytest.fixture(scope="module")
def wp_sweep():
    return run_sweep("well-prepared", WELL_PREPARED)


def test_criterion_1_envelope_rate(generic_sweep):
    fit = fit_rate(generic_sweep, "E-error")
    ok = -1.3 <= fit.slope <= -0.7 and fit.residual <= 0.15
    assert report(1, ok, f"non-compatible E-error slope {fit.slope:.3f} "
                         f"(target [-1.3,-0.7]), residual {fit.residual:.3f} "
                         f"(<= 0.15)")


def test_criterion_2_layer_correction(generic_sweep):
    fit_q = fit_rate(generic_sweep, "Q-error")
    fit_qn = fit_rate(generic_sweep, "Q-norm")
    ok = (-1.3 <= fit_q.slope <= -0.7) and fit_qn.slope >= -0.3
    assert report(2, ok, f"corrected density slope {fit_q.slope:.3f} "
                         f"(target [-1.3,-0.7]); uncorrected Q-norm slope "
                         f"{fit_qn.slope:.3f} (>= -0.3)")


def test_criterion_3_well_prepared_rate(wp_sweep):
    fit = fit_rate(wp_sweep, "E-error")
    ok = -2.4 <= fit.slope <= -1.6 and fit.residual <= 0.2
    assert report(3, ok, f"well-prepared E-error slope {fit.slope:.3f} "
                         f"(target [-2.4,-1.6]), residual {fit.residual:.3f} "
                         f"(<= 0.2)")


def test_criterion_4_free_wave_decay():
    grid = make_grid(1, 1024, 40.0 * np.pi)
    x = grid.coordinates[0]
    f0 = real_field(grid, np.exp(-((x / 4.5) ** 2)))
    lam_times = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0)
    probes = (0.0, 1.0, 2.0, 20.0, 30.0, 40.0)
    # the layer depends on lam t only, so one call covers every lam
    rep = decay_probe(f0, EPS, lam_times, 2, probes)
    exp, env = rep.inner_exponent, rep.outer_envelope_factor
    ok = exp <= -1.8 and env <= 10.0
    assert report(4, ok, f"inner exponent {exp:.2f} (<= -1.8); "
                         f"envelope factor {env:.2f} (<= 10)")


def test_criterion_5_conservation(generic_sweep, wp_sweep):
    worst_mass = max(r.mass_drift for r in generic_sweep + wp_sweep)

    grid = make_grid(1, 1024, 40.0 * np.pi)
    data = preset_initial_data("generic", GENERIC, grid, eps=EPS)
    qz_drifts, qm_drifts, qm_mass = [], [], []
    for dt0 in (1e-3, 5e-4):
        cfg = replace(standard_config(grid), lam=8.0, dt0=dt0)
        traj = qz_evolve(cfg, data)
        qz_drifts.append(drift([hamiltonian_qz(s, EPS, 8.0)
                                for _, s in traj.samples]))
        traj_m = qmnls_evolve(cfg, data.E0)
        qm_drifts.append(drift([hamiltonian_qmnls(s.E, EPS)
                                for _, s in traj_m.samples]))
        qm_mass.append(drift([mass(s.E) for _, s in traj_m.samples]))

    qz_ratio = qz_drifts[0] / qz_drifts[1]
    qm_ratio = qm_drifts[0] / qm_drifts[1]
    ok = (worst_mass <= 1e-10 and max(qm_mass) <= 1e-10
          and qz_drifts[0] <= 1e-4 and qm_drifts[0] <= 1e-4
          and 3.0 <= qz_ratio <= 5.0 and 3.0 <= qm_ratio <= 5.0)
    assert report(5, ok, f"mass drift {worst_mass:.1e} (<= 1e-10); "
                         f"H drifts {qz_drifts[0]:.1e}/{qm_drifts[0]:.1e} "
                         f"(<= 1e-4); dt-halving ratios {qz_ratio:.2f}/"
                         f"{qm_ratio:.2f} (in [3,5])")


def test_criterion_6_oracle_equivalence():
    grid = make_grid(1, 32, 8.0 * np.pi)
    params = PresetParams(amplitude=1.0, width=3.0, n_amplitude=0.5,
                          n_width=3.0, n1_amplitude=0.3, n1_width=3.0,
                          min_points_per_width=3.0, edge_tol=1e-7)
    data = preset_initial_data("generic", params, grid, eps=EPS)
    cfg = SimConfig(eps=EPS, lam=4.0, T=0.1, grid=grid, dt0=1e-3, c_lam=0.2,
                    m=M, dealias=False, sample_times=(0.1,))
    disc = oracle_discrepancy(cfg, data)

    amp, xi = 0.5, 2.0 * np.pi / grid.L
    x = grid.coordinates[0]
    E0 = complex_field(grid, amp * np.exp(1j * xi * x))
    traj = qmnls_evolve(cfg, E0)
    phase = -cfg.T * (xi**2 + EPS**2 * xi**4) + amp**2 * cfg.T
    exact = amp * np.exp(1j * xi * x) * np.exp(1j * phase)
    plane_err = l2_norm(real_field(grid, np.abs(traj.final_state().E.values - exact)))

    ok = disc <= 1e-5 and plane_err <= 1e-8
    assert report(6, ok, f"split-vs-oracle discrepancy {disc:.2e} (<= 1e-5); "
                         f"plane-wave phase error {plane_err:.2e} (<= 1e-8)")


def test_criterion_7_self_convergence():
    grid = make_grid(1, 1024, 40.0 * np.pi)
    data = preset_initial_data("generic", GENERIC, grid, eps=EPS)
    cfg = replace(standard_config(grid), lam=8.0)
    result = self_convergence(cfg, data, [4e-3, 2e-3, 1e-3, 2.5e-4])
    ok = 1.8 <= result.order <= 2.2
    assert report(7, ok, f"measured splitting order {result.order:.3f} "
                         f"(target [1.8,2.2])")


def test_criterion_8_resolution_robustness(generic_sweep, wp_sweep):
    base_1 = fit_rate(generic_sweep, "E-error").slope
    base_3 = fit_rate(wp_sweep, "E-error").slope
    shifts = {}
    # doubling N refines the grid; doubling L doubles the box at fixed dx
    for tag, N, L in (("2N", 2048, 40.0 * np.pi), ("2L", 2048, 80.0 * np.pi)):
        s1 = fit_rate(run_sweep("generic", GENERIC, N, L), "E-error").slope
        s3 = fit_rate(run_sweep("well-prepared", WELL_PREPARED, N, L), "E-error").slope
        shifts[tag] = (abs(s1 - base_1), abs(s3 - base_3))
    ok = all(d1 <= 0.1 and d3 <= 0.1 for d1, d3 in shifts.values())
    assert report(8, ok, "slope shifts under doubling "
                         + ", ".join(f"{tag}: generic {d1:.3f}, well-prepared {d3:.3f}"
                                     for tag, (d1, d3) in shifts.items())
                         + " (each <= 0.1)")
