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


def test_oracle_check_runs_in_two_dimensions(tmp_path):
    path = write_config(tmp_path, ORACLE_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["oracle-check", "--config", path, "--out", str(out),
                    "--override", "dimension=2", "--quiet"]) == 0
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
    # the measured discrepancy is kept, but a failed run writes no manifest
    assert (out / "oracle.json").exists()
    assert not (out / "manifest.json").exists()


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
        "lambda_times": [0.5, 1.0, 2.0, 4.0, 8.0],
        "probe_points": [0.0, 1.0, 20.0, 40.0],
        "data": {"width": 4.5},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--config", path, "--out", str(out),
                    "--quiet"]) == 0
    payload = json.loads((out / "decayfit.json").read_text())
    assert set(payload) == {"inner_exponent", "outer_envelope_factor"}
    assert payload["inner_exponent"] < -1.0
    lines = (out / "decay.csv").read_text().splitlines()
    assert lines[0] == "lambda_t,x0,region,k,sup_abs,weighted_sup"
    assert len(lines) == 1 + 5 * 4 * 3  # (lam t, probe point, order k <= 2)


def test_committed_layer_decay_table(tmp_path):
    # configs/layer_decay.json probes 9 lam t values at 6 points, orders 0-2
    path = Path(__file__).resolve().parents[1] / "configs" / "layer_decay.json"
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--config", str(path), "--out", str(out),
                    "--quiet"]) == 0
    assert json.loads((out / "decayfit.json").read_text()) == {
        "inner_exponent": -2.2101071754029995,
        "outer_envelope_factor": 0.2891305978677668}
    assert len((out / "decay.csv").read_text().splitlines()) == 1 + 162


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


def test_invalid_json_config_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 1
    for message in (capsys.readouterr().err, (out / "error.txt").read_text()):
        assert "$: invalid JSON in" in message and "broken.json" in message


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


def test_layer_decay_unresolved_width_exits_one(tmp_path, capsys):
    # 0.3 is 2.4 points per width on the default grid, where every fitted
    # inner exponent would be nan
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--override", "data.width=0.3",
                    "--override", "lambda_times=[0.25,0.5,1.0]",
                    "--out", str(out), "--quiet"]) == 1
    assert "data.width: Gaussian width 0.3 is under-resolved" in capsys.readouterr().err
    assert (out / "error.txt").read_text().startswith(
        "data.width: Gaussian width 0.3 is under-resolved")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


@pytest.mark.parametrize("command,config,override,key", [
    ("sweep", "sweep_generic.json", "N=16", "data.width"),
    ("oracle-check", "oracle_check.json", "data.width=0.5", "data.width"),
    ("self-converge", "self_converge.json", "data.n_width=0.01", "data.n_width"),
    ("sweep", "sweep_generic.json", "data.n1_center=[1000.0]", "data.n1_width"),
    ("simulate", "simulate.json", "data.center=[1000.0]", "data.width"),
])
def test_unresolved_gaussian_exits_one_and_names_its_width(tmp_path, command, config,
                                                           override, key):
    # decided by the config alone, so caught before the run builds anything
    path = Path(__file__).resolve().parents[1] / "configs" / config
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(path), "--override", override,
                    "--out", str(out), "--quiet"]) == 1
    assert (out / "error.txt").read_text().startswith(f"{key}: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


@pytest.mark.parametrize("command,config,override,key", [
    ("simulate", "simulate.json", "data.k0=100", "data.k0"),
    ("sweep", "sweep_generic.json", "data.n_k0=100", "data.n_k0"),
    ("sweep", "sweep_well_prepared.json", "data.chirp=1.0", "data.chirp"),
])
def test_unresolved_carrier_exits_one_and_names_its_key(tmp_path, command, config,
                                                        override, key):
    # the committed grids keep (2/3) pi/dx = 17.07. k0 = 100 folds to about
    # -2.4 when sampled, where the built E0's spectrum looks resolved, and
    # the simulate used to exit 0 with H = 76.75 against 0.427. A chirp of 1
    # reaches 2 x 1 x 10.5 = 21 within the edge rule's radius.
    path = Path(__file__).resolve().parents[1] / "configs" / config
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(path), "--override", override,
                    "--out", str(out), "--quiet"]) == 1
    assert (out / "error.txt").read_text().startswith(f"{key}: the carrier set by ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


@pytest.mark.parametrize("command,config,key", [
    ("sweep", "sweep_generic.json", "data.amplitude"),
    ("sweep", "sweep_generic.json", "data.n_amplitude"),
    ("sweep", "sweep_generic.json", "data.n1_amplitude"),
    ("simulate", "simulate.json", "data.amplitude"),
    ("oracle-check", "oracle_check.json", "data.amplitude"),
])
def test_overflowing_amplitude_exits_one_and_names_its_key(tmp_path, command, config, key):
    # amplitude^2 N^d overflows. The sweep with n_amplitude = 1e300 used to
    # exit 0 with inf in sweep.csv and NaN in ratefit_q.json; the other runs
    # exited 2 once a sample found a non-finite field.
    path = Path(__file__).resolve().parents[1] / "configs" / config
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(path), "--override", f"{key}=1e300",
                    "--override", "T=0.02", "--out", str(out), "--quiet"]) == 1
    assert (out / "error.txt").read_text().startswith(f"{key}: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_whose_norms_overflow_exits_two(tmp_path):
    # amplitude^2 N^d = 1e303 passes the amplitude rule, but Q holds
    # I_eps |E|^2 ~ 1e300, whose squared H^m norm overflows: the rate fit
    # refuses the inf Q error
    path = Path(__file__).resolve().parents[1] / "configs" / "sweep_generic.json"
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(path), "--override", "data.amplitude=1e150",
                    "--override", "T=0.02", "--out", str(out), "--quiet"]) == 2
    assert "finite errors" in (out / "error.txt").read_text()
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


@pytest.mark.parametrize("command", ["sweep", "layer-decay"])
def test_center_longer_than_the_grid_exits_one(tmp_path, capsys, command):
    # the second coordinate has no axis on a 1-D grid, so no run could use it
    out = tmp_path / "out"
    assert run_cli([command, "--override", "data.center=[0.0,5.0]",
                    "--out", str(out), "--quiet"]) == 1
    assert "data.center: center [0.0, 5.0] has 2 coordinates" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


@pytest.mark.parametrize("command,config,overrides,key", [
    ("layer-decay", "layer_decay.json", ["lambda_times=[1000]"], "lambda_times"),
    ("layer-decay", "layer_decay.json", ["lambdas=[8.0]"], "lambdas"),
])
def test_probe_horizon_and_lambdas_exit_one(tmp_path, command, config, overrides, key):
    # the probe's wrap-around horizon follows from the config alone; the
    # run, not the config, used to refuse it. The probe depends on lam t
    # only, so a layer-decay lambdas is unread.
    path = Path(__file__).resolve().parents[1] / "configs" / config
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out), "--quiet"]
    for override in overrides:
        argv += ["--override", override]
    assert run_cli(argv) == 1
    assert (out / "error.txt").read_text().startswith(f"{key}: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


def test_zero_layer_decay_data_exits_one(tmp_path):
    # an all-zero Gaussian gives an all-zero table, whose fits would be
    # NaN and Infinity, which are not JSON: the config refuses it
    out = tmp_path / "out"
    assert run_cli(["layer-decay", "--override", "data.amplitude=0", "--out", str(out),
                    "--quiet"]) == 1
    assert (out / "error.txt").read_text().startswith("data.amplitude: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]
    assert not (out / "decayfit.json").exists()


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


def test_short_self_converge_dt_list_exits_one(tmp_path, capsys):
    # self_convergence needs 3 step sizes plus the reference; a shorter list
    # used to build the initial data, then exit 2 without naming the key
    out = tmp_path / "out"
    assert run_cli(["self-converge", "--override", "T=0.02",
                    "--override", "dt_list=[4e-3,2e-3,1e-3]",
                    "--out", str(out), "--quiet"]) == 1
    assert "dt_list: dt list needs >= 4 entries" in capsys.readouterr().err
    assert (out / "error.txt").read_text().startswith("dt_list: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


@pytest.mark.parametrize("argv, code, message", [
    (["sweep", "--override", "N=15"], 1, "N: "),
    (["layer-decay"], 2, "Is a directory"),
])
def test_unwritable_error_txt_keeps_the_exit_code(tmp_path, capsys, argv, code, message):
    # error.txt is a directory: a config error (exit 1) and a runtime
    # error (exit 2, the run cannot clear it) still report on stderr
    out = tmp_path / "out"
    (out / "error.txt").mkdir(parents=True)
    assert run_cli(argv + ["--out", str(out), "--quiet"]) == code
    assert message in capsys.readouterr().err
    assert (out / "error.txt").is_dir()


def test_unexpected_error_is_recorded_and_reraised(tmp_path, monkeypatch):
    def broken(cfg, out, quiet):
        raise ValueError("boom")

    monkeypatch.setitem(qzak.cli._RUNNERS, "sweep", broken)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="boom"):
        run_cli(["sweep", "--out", str(out), "--quiet"])
    assert (out / "error.txt").read_text() == "ValueError: boom\n"


def _fresh_python(args, **env_vars):
    """Run a new interpreter that finds this qzak, with OPENBLAS_NUM_THREADS
    unset (importing qzak here set it) unless given in env_vars."""
    src = str(Path(qzak.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    for module in ("qzak", "qzak.cli"):
        done = _fresh_python(["-m", module, "version"])
        assert done.returncode == 0, module
        assert done.stdout.strip() == f"qzak {qzak.__version__}", module


def test_cli_import_loads_no_worker_or_logging_modules(tmp_path):
    # concurrent.futures pulls in logging; every run would pay their
    # start-up time and memory, and no run needs either: simulate writes
    # and measures each sample in the thread that marches
    path = write_config(tmp_path, _simulate_config(1, 64, "qz"))
    done = _fresh_python(["-c", "import sys, qzak.cli; assert qzak.cli.run_cli(["
                          f"'simulate', '--config', {path!r}, '--out', "
                          f"{str(tmp_path / 'out')!r}, '--quiet']) == 0; "
                          "print(sorted(m for m in ('concurrent.futures', 'logging') "
                          "if m in sys.modules))"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_THREADS = ("import os, qzak; status = open('/proc/self/status').read();"
            " print(status.split('Threads:')[1].split()[0],"
            " os.environ['OPENBLAS_NUM_THREADS'])")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_import_starts_no_blas_threads():
    # numpy's OpenBLAS starts nproc - 1 spinning workers when it loads,
    # although qzak makes no BLAS call
    done = _fresh_python(["-c", _THREADS])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_import_keeps_the_users_blas_threads():
    done = _fresh_python(["-c", _THREADS], OPENBLAS_NUM_THREADS="2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[1] == "2"


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
    # A slow monitor must still see each sample as it landed: the sink
    # writes and measures the march's live arrays before it steps on.
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


@pytest.mark.parametrize("solver", ["qz", "qmnls"])
def test_simulate_measures_and_writes_on_the_main_thread(tmp_path, monkeypatch, solver):
    import threading
    from qzak import cli
    from qzak.outputs import SnapshotWriter

    threads = []

    def on_thread(call):
        def recorded(*args):
            threads.append(threading.current_thread())
            return call(*args)
        return recorded

    monitor = f"{solver}_monitor"
    real_monitor = getattr(cli, monitor)
    monkeypatch.setattr(cli, monitor, lambda *args: on_thread(real_monitor(*args)))
    monkeypatch.setattr(SnapshotWriter, "write", on_thread(SnapshotWriter.write))
    assert run_cli(["simulate", "--config",
                    write_config(tmp_path, _simulate_config(1, 64, solver)),
                    "--out", str(tmp_path / "out"), "--quiet"]) == 0
    # each of the 5 samples is written once and measured once
    assert threads == [threading.main_thread()] * 10


@pytest.mark.parametrize("failing_call", [3, 5])
def test_failed_simulate_leaves_only_error_txt(tmp_path, monkeypatch, failing_call):
    # call 5 is the last sample, the one at T, where the march ends
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
            if len(calls) == failing_call:
                raise NonFiniteFieldError(message)
            return measure(*arrays)
        return failing

    message = "field 'E' became non-finite"
    monkeypatch.setattr(cli, "qz_monitor", failing_monitor)
    assert run_cli(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 2
    assert (out / "error.txt").read_text() == message + "\n"
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]


_RERUN_CONFIGS = {
    "simulate": _simulate_config(1, 64, "qz"),
    "sweep": {**SWEEP_CONFIG, "T": 0.02, "num_samples": 3},
    "self-converge": {"experiment": "self-converge", "N": 256, "L": 20.0 * np.pi,
                      "T": 0.02, "lambda": 8.0, "dt_list": [4e-3, 2e-3, 1e-3, 5e-4],
                      "data": SWEEP_CONFIG["data"]},
    "layer-decay": {"experiment": "layer-decay",
                    "lambda_times": [0.5, 2.0, 4.0], "probe_points": [0.0, 1.0],
                    "data": {"width": 4.5}},
    "oracle-check": {**ORACLE_CONFIG, "T": 0.02},
}


@pytest.mark.parametrize("command", sorted(_RERUN_CONFIGS))
def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch, command):
    # the earlier run's manifest, and the config it records, must not
    # stand beside the failure of the rerun
    from qzak import cli
    from qzak.errors import NonFiniteFieldError

    path = write_config(tmp_path, _RERUN_CONFIGS[command])
    out = tmp_path / "out"
    argv = [command, "--config", path, "--out", str(out), "--quiet"]
    assert run_cli(argv) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert files == sorted(p.name for p in out.iterdir())
    # the rerun fails after its runner has written every file
    runner = cli._RUNNERS[command]

    def failing(cfg, out, quiet):
        runner(cfg, out, quiet)
        raise NonFiniteFieldError("field 'E' became non-finite")

    with monkeypatch.context() as patch:
        patch.setitem(cli._RUNNERS, command, failing)
        assert run_cli(argv) == 2
    assert (out / "error.txt").exists()
    assert not (out / "manifest.json").exists()
    # a rerun whose config does not resolve stops before its runner
    for override in ("N=15", "data.width=0.01"):
        assert run_cli(argv) == 0
        assert run_cli(argv + ["--override", override]) == 1
        assert (out / "error.txt").exists()
        assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, override, key", [
    ("simulate", "dt0=1e-300", "dt0"),
    ("sweep", "dt0=1e-300", "dt0"),
    ("oracle-check", "dt0=1e-300", "dt0"),
    ("oracle-check", "lambda=1e12", "lambda"),
    ("sweep", "lambdas=[4.0, 8.0, 1e12]", "lambdas"),
    ("self-converge", "dt_list=[4e-3, 2e-3, 1e-3, 1e-300]", "dt_list[3]"),
])
def test_march_of_too_many_steps_exits_one(tmp_path, capsys, command, override, key):
    # the step count is bounded before anything runs, and the error names
    # the key that set the step size
    path = write_config(tmp_path, _RERUN_CONFIGS[command])
    out = tmp_path / "out"
    assert run_cli([command, "--config", path, "--out", str(out), "--quiet",
                    "--override", override]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]
    assert "steps, more than 1e+07" in (out / "error.txt").read_text()


# numpy.linalg's solvers, each of which calls LAPACK
_LAPACK = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
           "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd")


@pytest.mark.parametrize("command", sorted(_RERUN_CONFIGS))
def test_no_run_calls_lapack(tmp_path, monkeypatch, command):
    # the rate, order and decay fits are closed form: LAPACK's first call in a
    # process would keep its solver resident until exit
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np, "polyfit", refuse)
    for name in _LAPACK:
        monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "out"
    assert run_cli([command, "--config", write_config(tmp_path, _RERUN_CONFIGS[command]),
                    "--out", str(out), "--quiet"]) == 0
    if command == "layer-decay":  # two inner times, so the exponent is fitted
        fit = json.loads((out / "decayfit.json").read_text())
        assert np.isfinite(fit["inner_exponent"])


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
    # sample 3 fails in the sink, before the march could go on to fail
    # at sample 4: the run reports sample 3
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


@pytest.mark.parametrize("solver", ["qz", "qmnls"])
def test_simulate_frees_the_initial_data_after_the_first_step(tmp_path, monkeypatch,
                                                              solver):
    # the advance copies the initial data into its own buffers when it is
    # built, and nothing else in the run keeps it: every array of it is
    # gone before the first step, so before any step kernel exists
    import weakref
    from qzak import cli, dynamics

    refs, alive = [], []
    real_preset = cli.preset_initial_data

    def preset(*args):
        data = real_preset(*args)
        for field in (data.E0, data.n0, data.n1):
            owner = field.values
            while owner.base is not None:
                owner = owner.base
            refs.append(weakref.ref(owner))
        return data

    def counted(make_advance):
        def make(*args):
            arrays, advance = make_advance(*args)

            def step(h, full):
                alive.append(sum(ref() is not None for ref in refs))
                advance(h, full)
            return arrays, step
        return make

    monkeypatch.setattr(cli, "preset_initial_data", preset)
    for name in ("_qz_advance", "_qmnls_advance"):
        monkeypatch.setattr(dynamics, name, counted(getattr(dynamics, name)))
    path = write_config(tmp_path, _simulate_config(2, 32, solver))
    assert run_cli(["simulate", "--config", path, "--out", str(tmp_path / "out"),
                    "--quiet"]) == 0
    assert len(refs) == 3 and alive == [0] * 32


def test_simulate_memory_is_bounded_by_the_grid(tmp_path, monkeypatch):
    import tracemalloc

    from qzak import cli

    raw = _simulate_config(2, 64, "qz", num_samples=64)
    path = write_config(tmp_path, raw)
    N, rows = 64, 64 // 2 + 1
    sample_bytes = N * N * (16 + 8 + 8)
    # The run's buffers, in bytes: the march's four complex grids (64 a
    # grid point); on rows 0..N/2 of the lattice, its one step kernel,
    # every step landing on a sample (40 a point), and the potential
    # symbol (8); the monitor's two half spectra and real work array (32
    # + 8 a point of an N x (N/2+1) array) and its w_E, w_n, w_nt and
    # w_coupling on rows 0..N/2 of it (8 each); and the wave rotation's
    # two blocks of at most 8192 complex elements. At N=64 that is 117.9 B
    # a grid point. The initial data is freed before the first step, and
    # the monitor allocates its spectra at the first sample. The margin
    # of one sample (32 B a point) covers numpy's casting and iteration
    # buffers (16 B a point here), the snapshot writer's row blocks, the
    # output files' buffers and the run's Python objects; a run that also
    # held a copy of each sample would exceed it.
    held = (N * N * 64 + rows * N * (40 + 8) + N * rows * (32 + 8)
            + 4 * rows * rows * 8 + 2 * min(N * N, 8192) * 16)
    grids = []

    def preset(*args):
        grids.append(args[2])
        return preset_initial_data(*args)

    monkeypatch.setattr(cli, "preset_initial_data", preset)
    # a first run in the process makes one-off allocations that later runs
    # do not; the step kernel is built in every run
    assert run_cli(["simulate", "--config", path, "--out", str(tmp_path / "warm"),
                    "--quiet"]) == 0
    tracemalloc.start()
    try:
        assert run_cli(["simulate", "--config", path, "--out", str(tmp_path / "out"),
                        "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held + sample_bytes
    # the grid caches no |xi|^2, which the margin could hide
    assert [vars(grid).get("k_squared") for grid in grids] == [None, None]
