"""Self-tests of the benchmark's own logic (no qzak run needed).

    python3 -m pytest benchmarks/test_benchmark.py
"""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

import check
import run
import tracing
from workloads import WORKLOADS, count_steps

REFERENCE = json.loads(check.REFERENCE_PATH.read_text())["workloads"]


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_reference_matches_itself(workload):
    check.compare(REFERENCE[workload], REFERENCE[workload])


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_perturbed_reference_value_fails(workload):
    for key, values in REFERENCE[workload].items():
        if not any(values):
            continue
        perturbed = copy.deepcopy(REFERENCE[workload])
        i = next(i for i, v in enumerate(values) if v)
        perturbed[key][i] *= 1.0 + 1e-9
        with pytest.raises(check.CheckError, match=re.escape(key)):
            check.compare(REFERENCE[workload], perturbed)


def test_physics_bands():
    sweep_cfg = WORKLOADS["sweep-1d"].config(1)
    sweep = {"sweep.lambda": sweep_cfg["lambdas"], "ratefit.slope": [-1.0],
             "ratefit_q.slope": [-1.0], "sweep.sup_err_E_Hm": [1e-2] * 5}
    check.check_physics("sweep", sweep, sweep_cfg)
    for key, bad in (("ratefit.slope", -1.4), ("ratefit_q.slope", -0.6)):
        with pytest.raises(check.CheckError):
            check.check_physics("sweep", dict(sweep, **{key: [bad]}), sweep_cfg)

    check.check_physics("self-converge", {"selfconv.order": [2.05]}, {})
    with pytest.raises(check.CheckError):
        check.check_physics("self-converge", {"selfconv.order": [2.3]}, {})

    sim_cfg = WORKLOADS["simulate-2d"].config(1)
    cell = (sim_cfg["L"] / sim_cfg["N"]) ** 2
    masses = [4.0] * 64
    sim = {"diagnostics.mass": masses, "final.E.sum_sq": [4.0 / cell]}
    check.check_physics("simulate", sim, sim_cfg)
    with pytest.raises(check.CheckError, match="mass drift"):
        check.check_physics("simulate", dict(sim, **{"diagnostics.mass": masses[:-1] + [4.0 + 1e-8]}), sim_cfg)


def test_seeds_make_distinct_deterministic_configs():
    for w in WORKLOADS.values():
        assert w.config(0) == w.base
        assert w.config(7) == w.config(7) != w.config(8) != w.base


def test_step_counts_follow_dt_law_and_landing_rule():
    times = tuple(np.linspace(0.0, 0.5, 64))
    assert all(count_steps(1e-3, 0.2, lam, 0.5, times) == 504
               for lam in WORKLOADS["sweep-1d"].base["lambdas"])
    dts = WORKLOADS["selfconv-1d"].base["dt_list"]
    assert sum(count_steps(dt, dt * 8.0, 8.0, 0.5, (0.5,)) for dt in dts) == 2875
    assert count_steps(1e-3, 0.2, 16.0, 0.05, tuple(np.linspace(0.0, 0.05, 64))) == 63


def test_self_time_subtracts_union_of_children():
    spans = [(1, "cli.run_cli", 0.0, 10.0, None, 0, 1),
             (2, "harness.a", 1.0, 5.0, 1, 0, 2),
             (3, "harness.b", 3.0, 8.0, 1, 0, 3)]
    self_ms = tracing.self_times(spans)
    assert self_ms["cli"] == pytest.approx(3.0)
    assert self_ms["harness"] == pytest.approx(9.0)


def test_fft_counter_counts_every_entry_point_once():
    original = np.fft.fftn
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install_fft_counter(tracer, patches)
    try:
        x = np.ones((8, 8))
        np.fft.ifftn(np.fft.fftn(x))      # n-D calls count once, not per axis
        np.fft.irfft(np.fft.rfft(x[0]))
        np.fft.fft2(x)
        calls = 5
        try:
            import scipy.fft
            scipy.fft.rfftn(x)
            calls += 1
        except ImportError:
            pass
    finally:
        patches.restore()
    assert tracer.counts["fft.calls"] == calls
    assert np.fft.fftn is original
    np.fft.fft(x[0])
    assert tracer.counts["fft.calls"] == calls


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
