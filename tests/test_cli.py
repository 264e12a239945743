import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qzak
from qzak import (hamiltonian_qz, mass, preset_initial_data, qmnls_evolve,
                  qz_evolve, run_cli)

ORACLE_CONFIG = {
    "experiment": "oracle-check",
    "N": 32,
    "L": 8.0 * np.pi,
    "T": 0.1,
    "lambda": 4.0,
    "dealias": False,
    "data": {"kind": "generic", "amplitude": 1.0, "width": 3.0,
             "n_amplitude": 0.5, "n_width": 3.0, "n1_amplitude": 0.3,
             "n1_width": 3.0, "min_points_per_width": 3.0, "edge_tol": 1e-7},
}

SWEEP_CONFIG = {
    "experiment": "sweep",
    "N": 256,
    "L": 20.0 * np.pi,
    "T": 0.2,
    "num_samples": 9,
    "lambdas": [4.0, 8.0, 16.0],
    "data": {"kind": "generic", "amplitude": 0.4, "width": 2.0,
             "n_amplitude": 0.5, "n_width": 2.2, "n_k0": 1.6,
             "n1_amplitude": 0.3, "n1_width": 2.0, "n1_center": [-2.0]},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_version_command(capsys):
    assert run_cli(["version"]) == 0
    assert "qzak" in capsys.readouterr().out


def test_missing_config_names_path(tmp_path, capsys):
    code = run_cli(["sweep", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "sweep", "epsilon": 2.0})
    assert run_cli(["sweep", "--config", path]) == 1
    assert "epsilon" in capsys.readouterr().err


def test_subcommand_config_mismatch(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "sweep"})
    assert run_cli(["simulate", "--config", path]) == 1


def test_sweep_happy_path(tmp_path, capsys):
    path = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    code = run_cli(["sweep", "--config", path, "--out", str(out)])
    assert code == 0
    for name in ("sweep.csv", "ratefit.json", "ratefit_q.json", "plots.gp",
                 "manifest.json"):
        assert (out / name).exists(), name
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 lambdas
    stdout = capsys.readouterr().out
    assert stdout.count("lambda=") == 3


def test_sweep_rerun_identical_modulo_walltime(tmp_path):
    path = write_config(tmp_path, SWEEP_CONFIG)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli(["sweep", "--config", path, "--out", str(out),
                        "--quiet"]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
        outs.append([row[:5] for row in rows])  # drop the walltime column
    assert outs[0] == outs[1]


def test_sweep_metrics_sidecar_is_listed_and_deterministic(tmp_path):
    path = write_config(tmp_path, SWEEP_CONFIG)
    written = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert "sweep_metrics.json" in json.loads((out / "manifest.json").read_text())["files"]
        written.append((out / "sweep_metrics.json").read_bytes())
    assert written[0] == written[1]
    records = json.loads(written[0])["records"]
    assert [r["lam"] for r in records] == SWEEP_CONFIG["lambdas"]
    for r in records:
        assert set(r) == {"lam", "dt", "steps", "max_tail_E", "mass_drift"}
        assert r["steps"] == 200 and 0.0 <= r["mass_drift"] <= 1e-10


def test_quiet_suppresses_per_lambda_lines(tmp_path, capsys):
    path = write_config(tmp_path, SWEEP_CONFIG)
    assert run_cli(["sweep", "--config", path, "--out", str(tmp_path / "q"),
                    "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_oracle_check_passes(tmp_path):
    path = write_config(tmp_path, ORACLE_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["oracle-check", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["discrepancy"] <= payload["tolerance"]
    assert payload["plane_wave_error"] <= payload["plane_wave_tolerance"]


def test_oracle_check_mismatch_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, ORACLE_CONFIG)
    out = tmp_path / "out"
    # a deliberately coarse split step leaves a visible splitting defect
    code = run_cli(["oracle-check", "--config", path, "--out", str(out),
                    "--override", "dt0=0.05", "--override", "tolerance=1e-9"])
    assert code == 2
    assert "discrepancy" in capsys.readouterr().err
    assert (out / "error.txt").exists()


def test_simulate_writes_snapshots_and_diagnostics(tmp_path):
    cfg = {
        "experiment": "simulate",
        "N": 128,
        "L": 20.0 * np.pi,
        "T": 0.05,
        "lambda": 4.0,
        "num_samples": 3,
        "data": {"kind": "compatible", "amplitude": 0.5, "width": 4.0},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    for name in ("diagnostics.csv", "snapshots_E.bin", "snapshots_n.bin",
                 "snapshots_nt.bin", "snapshots_meta.txt", "manifest.json"):
        assert (out / name).exists(), name
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,mass,hamiltonian"
    assert len(diag) == 4


def test_simulate_limit_solver(tmp_path):
    cfg = {
        "experiment": "simulate",
        "N": 128,
        "L": 20.0 * np.pi,
        "T": 0.05,
        "solver": "qmnls",
        "num_samples": 3,
        "data": {"kind": "compatible", "amplitude": 0.5, "width": 4.0},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert (out / "snapshots_E.bin").exists()
    assert not (out / "snapshots_n.bin").exists()


def test_self_converge_cli(tmp_path):
    cfg = {
        "experiment": "self-converge",
        "N": 256,
        "L": 20.0 * np.pi,
        "T": 0.2,
        "lambda": 8.0,
        "dt_list": [4e-3, 2e-3, 1e-3, 2.5e-4],
        "data": SWEEP_CONFIG["data"],
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["self-converge", "--config", path, "--out", str(out),
                    "--quiet"]) == 0
    payload = json.loads((out / "selfconv.json").read_text())
    assert 1.8 <= payload["order"] <= 2.2


def test_layer_decay_cli(tmp_path):
    cfg = {
        "experiment": "layer-decay",
        "N": 1024,
        "lambdas": [8.0, 16.0],
        "lambda_times": [0.5, 1.0, 2.0, 4.0, 8.0],
        "probe_points": [0.0, 1.0, 20.0, 40.0],
        "data": {"width": 4.5},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--config", path, "--out", str(out),
                    "--quiet"]) == 0
    payload = json.loads((out / "decayfit.json").read_text())
    assert len(payload["per_lambda"]) == 2
    assert all(rec["inner_exponent"] < -1.0 for rec in payload["per_lambda"])
    assert (out / "decay.csv").exists()


def test_memory_error_exits_two(tmp_path, capsys, monkeypatch):
    from qzak import cli

    def exhausted(cfg, out, quiet):
        raise MemoryError()

    monkeypatch.setitem(cli._RUNNERS, "simulate", exhausted)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--out", str(out), "--quiet"]) == 2
    assert "MemoryError" in capsys.readouterr().err
    assert (out / "error.txt").read_text() == "MemoryError\n"


def test_config_array_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, [SWEEP_CONFIG])
    out = tmp_path / "out"
    for extra in ([], ["--override", "T=0.1"], ["--override", "data.width=3.0"]):
        assert run_cli(["sweep", "--config", path, "--out", str(out)] + extra) == 1
        assert "top-level config must be an object" in capsys.readouterr().err
        assert (out / "error.txt").exists()


def test_config_directory_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(tmp_path), "--out", str(out)]) == 1
    assert str(tmp_path) in capsys.readouterr().err
    assert (out / "error.txt").exists()


def test_config_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"experiment": "sweep", "out_dir": "caf\xe9"}')
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert "latin1.json" in capsys.readouterr().err
    assert (out / "error.txt").exists()


@pytest.mark.parametrize("data", [5, "abc", [1], None])
def test_data_not_an_object_exits_one(tmp_path, capsys, data):
    path = write_config(tmp_path, {**SWEEP_CONFIG, "data": data})
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", path, "--out", str(out)]) == 1
    assert (out / "error.txt").read_text().startswith("data: expected an object")


def test_infinite_time_exits_one(tmp_path, capsys):
    # json reads 1e400 as inf; the run used to write rows with t = nan
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "simulate", "N": 64, "L": 40, "T": 1e400,'
                    ' "data": {"width": 3.0, "min_points_per_width": 3.0,'
                    ' "edge_tol": 0.01}}')
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert (out / "error.txt").read_text().startswith("T: expected a finite number")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


def test_layer_decay_probe_outside_box_exits_one(tmp_path, capsys):
    # L is known when the config resolves, so the key is named there
    cfg = {
        "experiment": "layer-decay",
        "N": 1024,
        "lambdas": [8.0],
        "lambda_times": [0.5, 1.0],
        "probe_points": [0.0, 1000.0],
        "data": {"width": 4.5},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--config", path, "--out", str(out),
                    "--quiet"]) == 1
    assert "probe_points[1]" in capsys.readouterr().err
    assert (out / "error.txt").read_text().startswith("probe_points[1]: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


@pytest.mark.parametrize("k_max", [7, 220, 250])
def test_layer_decay_overflowing_k_max_exits_one(tmp_path, capsys, k_max):
    # From k_max = 7 the default grid's table is rounding noise, and |xi|^220
    # overflows; such runs used to write noise, or nan/inf rows, and exit 0
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--override", f"k_max={k_max}",
                    "--out", str(out), "--quiet"]) == 1
    assert "k_max: must be <= 6" in capsys.readouterr().err
    assert (out / "error.txt").read_text().startswith("k_max: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


def test_layer_decay_unresolved_width_exits_two(tmp_path, capsys):
    # 0.3 is 2.4 points per width on the default grid, where every fitted
    # inner exponent would be nan
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--override", "data.width=0.3",
                    "--override", "lambda_times=[0.25,0.5,1.0]",
                    "--out", str(out), "--quiet"]) == 2
    assert "width 0.3 is under-resolved" in capsys.readouterr().err
    assert "width 0.3 is under-resolved" in (out / "error.txt").read_text()
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


def test_unaddressable_grid_exits_one(tmp_path, capsys):
    # 2^70 points pass the power-of-two check but no numpy array holds them
    out = tmp_path / "out"
    assert run_cli(["simulate", "--override", f"N={2**70}", "--out", str(out)]) == 1
    assert (out / "error.txt").read_text().startswith("N: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


def test_layer_decay_nonpositive_time_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--override", "lambda_times=[0.0,1.0]",
                    "--out", str(out), "--quiet"]) == 1
    assert "lambda_times[0]" in capsys.readouterr().err
    assert (out / "error.txt").read_text().startswith("lambda_times[0]: ")


@pytest.mark.parametrize("lambdas", ["[4.0,8.0]", "[4.0,4.0,4.0]"])
def test_unfittable_sweep_lambdas_exit_one(tmp_path, lambdas):
    # caught before any march runs: no record, no degenerate ratefit.json
    out = tmp_path / "out"
    assert run_cli(["sweep", "--override", f"lambdas={lambdas}",
                    "--out", str(out), "--quiet"]) == 1
    assert (out / "error.txt").read_text().startswith("lambdas: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


def test_unexpected_error_is_recorded_and_reraised(tmp_path, monkeypatch):
    def broken(cfg, out, quiet):
        raise ValueError("boom")

    monkeypatch.setitem(qzak.cli._RUNNERS, "sweep", broken)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="boom"):
        run_cli(["sweep", "--out", str(out), "--quiet"])
    assert (out / "error.txt").read_text() == "ValueError: boom\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(qzak.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("qzak", "qzak.cli"):
        done = subprocess.run([sys.executable, "-m", module, "version"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, module
        assert done.stdout.strip() == f"qzak {qzak.__version__}", module


def _simulate_config(d, N, solver, num_samples=5):
    # T = 0.03 with lam = 8 gives dt = 0.001 and steps that land short
    return {"experiment": "simulate", "dimension": d, "N": N, "L": 8.0 * np.pi,
            "T": 0.03, "lambda": 8.0, "solver": solver, "num_samples": num_samples,
            "data": {"kind": "generic", "amplitude": 0.6, "width": 3.0,
                     "n_amplitude": 0.4, "n_width": 3.0, "n1_amplitude": 0.3,
                     "n1_width": 3.0, "n1_center": [-1.0],
                     "min_points_per_width": 3.0, "edge_tol": 1e-6}}


def _assert_simulate_equals_library_path(tmp_path, raw):
    from qzak.config import resolve_config
    from qzak.diagnostics import hamiltonian_qmnls
    from qzak.outputs import write_snapshots

    solver = raw["solver"]
    out = tmp_path / "cli"
    assert run_cli(["simulate", "--config", write_config(tmp_path, raw),
                    "--out", str(out), "--quiet"]) == 0

    cfg = resolve_config(raw)
    sim = cfg.sim
    data = preset_initial_data(cfg.data_kind, cfg.data_params, sim.grid, sim.eps)
    if solver == "qz":
        traj = qz_evolve(sim, data)
        energy = lambda s: hamiltonian_qz(s, sim.eps, sim.lam)
    else:
        traj = qmnls_evolve(sim, data.E0)
        energy = lambda s: hamiltonian_qmnls(s.E, sim.eps)
    lib = tmp_path / "lib"
    files = write_snapshots(lib, traj)
    assert len(files) == (4 if solver == "qz" else 2)
    for name in files:
        assert (out / name).read_bytes() == (lib / name).read_bytes(), name
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert rows[0] == "t,mass,hamiltonian"
    assert rows[1:] == [f"{t!r},{mass(s.E)!r},{energy(s)!r}" for t, s in traj.samples]


@pytest.mark.parametrize("d, N, solver", [(1, 64, "qz"), (1, 64, "qmnls"),
                                          (2, 32, "qz"), (2, 32, "qmnls")])
def test_simulate_stream_equals_library_path(tmp_path, d, N, solver):
    _assert_simulate_equals_library_path(tmp_path, _simulate_config(d, N, solver))


def test_slow_simulate_worker_sees_each_sample_as_it_landed(tmp_path, monkeypatch):
    # The worker measures and writes a sample after the march has stepped
    # on, so it must work on a copy, not on the march's live buffers.
    import time
    from qzak import cli

    real_monitor = cli.qz_monitor

    def slow_monitor(*args):
        measure = real_monitor(*args)

        def slow(*arrays):
            time.sleep(0.005)
            return measure(*arrays)
        return slow

    monkeypatch.setattr(cli, "qz_monitor", slow_monitor)
    _assert_simulate_equals_library_path(tmp_path, _simulate_config(2, 32, "qz"))


def test_failed_simulate_leaves_only_error_txt(tmp_path, monkeypatch):
    from qzak import cli
    from qzak.errors import NonFiniteFieldError

    path = write_config(tmp_path, _simulate_config(1, 64, "qz"))
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert (out / "manifest.json").exists()

    real_monitor = cli.qz_monitor

    def failing_monitor(*args):
        measure = real_monitor(*args)
        calls = []

        def failing(*arrays):
            calls.append(None)
            if len(calls) == 3:
                raise NonFiniteFieldError("field 'E' became non-finite")
            return measure(*arrays)
        return failing

    monkeypatch.setattr(cli, "qz_monitor", failing_monitor)
    assert run_cli(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


def _fail_on_third_call(call, exc):
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise exc
        return call(*args)
    return failing


@pytest.mark.parametrize("stage", ["monitor", "writer"])
def test_simulate_reports_the_first_failing_sample(tmp_path, monkeypatch, stage):
    # sample 3 fails on the worker while the march goes on to fail at
    # sample 4: the run reports sample 3, as a serial run would
    import threading
    from qzak import cli
    from qzak.errors import NonFiniteFieldError, ZeroModeError
    from qzak.outputs import SnapshotWriter

    path = write_config(tmp_path, _simulate_config(1, 64, "qz"))
    out = tmp_path / "out"
    threads = threading.active_count()
    assert run_cli(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert threading.active_count() == threads

    message = f"{stage} failed at sample 3"
    if stage == "monitor":
        real_monitor = cli.qz_monitor
        monkeypatch.setattr(cli, "qz_monitor", lambda *args: _fail_on_third_call(
            real_monitor(*args), ZeroModeError(message)))
    else:
        monkeypatch.setattr(SnapshotWriter, "write",
                            _fail_on_third_call(SnapshotWriter.write, OSError(message)))
    real_evolve = cli.qz_evolve

    def evolve_failing_at_fourth_sample(config, data, sink):
        calls = []

        def checked(t, arrays):
            calls.append(t)
            if len(calls) == 4:
                raise NonFiniteFieldError(f"field 'E' became non-finite at t={t!r}")
            sink(t, arrays)
        return real_evolve(config, data, sink=checked)

    monkeypatch.setattr(cli, "qz_evolve", evolve_failing_at_fourth_sample)
    assert run_cli(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 2
    assert (out / "error.txt").read_text() == message + "\n"
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]
    assert threading.active_count() == threads


def test_simulate_memory_is_bounded_by_the_grid(tmp_path):
    import tracemalloc

    raw = _simulate_config(2, 64, "qz", num_samples=64)
    path = write_config(tmp_path, raw)
    sample_bytes = 64 * 64 * (16 + 8 + 8)
    # warm the kernel and grid caches, which outlive a run
    assert run_cli(["simulate", "--config", path, "--out", str(tmp_path / "warm"),
                    "--quiet"]) == 0
    tracemalloc.start()
    try:
        assert run_cli(["simulate", "--config", path, "--out", str(tmp_path / "out"),
                        "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * sample_bytes
