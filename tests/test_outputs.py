import json
from pathlib import Path

import numpy as np
import pytest

from qzak import InitialData, SimConfig, SweepRecord, complex_field, make_grid, qz_evolve, real_field
from qzak.harness import fit_rate
from qzak.outputs import (SWEEP_HEADER, SnapshotWriter, write_manifest, write_outputs,
                          write_plot_script, write_ratefit, write_snapshots,
                          write_sweep_csv)


def read_snapshots(out_dir) -> dict[str, np.ndarray]:
    """Read the snapshot files back through their text sidecar."""
    out = Path(out_dir)
    meta = (out / "snapshots_meta.txt").read_text().splitlines()
    info = {}
    file_dtypes = {}
    for line in meta:
        key, _, rest = line.partition(":")
        if key == "file":
            name, dtype_part = rest.strip().split(" dtype=")
            file_dtypes[name] = dtype_part
        else:
            info[key.strip()] = rest.strip()
    count = int(info["num_snapshots"])
    shape = tuple(int(n) for n in info["shape_per_snapshot"].split("x"))
    arrays = {}
    for name, dtype in file_dtypes.items():
        flat = np.fromfile(out / name, dtype=dtype)
        field_name = name.removeprefix("snapshots_").removesuffix(".bin")
        arrays[field_name] = flat.reshape((count,) + shape)
    arrays["times"] = np.array([float(t) for t in info["times"].split(",")])
    return arrays


def sample_records():
    errs = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
    lams = [4.0, 8.0, 16.0, 32.0, 64.0]
    return [SweepRecord(lam=l, dt=1e-3, steps=500, sup_err_E_Hm=e, sup_err_Q_Hm=e / 2,
                        sup_Q_Hm=1.0, walltime_s=1.234567, max_tail_E=1e-20,
                        mass_drift=1e-13)
            for l, e in zip(lams, errs)]


def test_sweep_csv_schema(tmp_path):
    path = write_sweep_csv(tmp_path, sample_records())
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 7  # header + 5 rows + trailing newline
    assert lines[-1] == ""
    assert "\r" not in text
    first = lines[1].split(",")
    assert float(first[0]) == 4.0
    assert float(first[2]) == 0.25


def test_sweep_csv_byte_identical(tmp_path):
    a = write_sweep_csv(tmp_path / "a", sample_records()).read_bytes()
    b = write_sweep_csv(tmp_path / "b", sample_records()).read_bytes()
    assert a == b


def test_ratefit_json_schema(tmp_path):
    fit = fit_rate(sample_records(), "E-error")
    path = write_ratefit(tmp_path, fit)
    payload = json.loads(path.read_text())
    assert set(payload) == {"slope", "intercept", "residual", "lambdas"}
    assert np.isclose(payload["slope"], -1.0)
    assert payload["lambdas"] == [4.0, 8.0, 16.0, 32.0, 64.0]


def test_snapshot_round_trip_bit_exact(tmp_path, rng):
    g = make_grid(1, 64, 2.0 * np.pi)
    x = g.coordinates[0]
    data = InitialData(
        E0=complex_field(g, np.exp(1j * x) * np.exp(-np.cos(x))),
        n0=real_field(g, np.cos(x)),
        n1=real_field(g, np.zeros(64)))
    cfg = SimConfig(eps=1.0, lam=2.0, T=0.02, grid=g, dt0=1e-3,
                    sample_times=(0.0, 0.01, 0.02))
    traj = qz_evolve(cfg, data)
    files = write_snapshots(tmp_path, traj)
    assert "snapshots_meta.txt" in files
    back = read_snapshots(tmp_path)
    for i, (_, state) in enumerate(traj.samples):
        assert np.array_equal(back["E"][i], state.E.values)
        assert np.array_equal(back["n"][i], state.n.values)
        assert np.array_equal(back["nt"][i], state.nt.values)
    np.testing.assert_array_equal(back["times"], [t for t, _ in traj.samples])


@pytest.mark.parametrize("d, N", [(1, 1024), (2, 256), (2, 16)])
def test_snapshot_writer_writes_a_strided_array_by_row_blocks(tmp_path, rng, d, N):
    # the real part of a complex grid, as a march passes n and nt, goes out
    # with the bytes of its contiguous copy, through one copied block of at
    # most 1/8 of its rows (elements at d=1) at a time
    import tracemalloc

    grid = make_grid(d, N, 5.0)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    view = values.real
    block = max(1, N // 8) * view[0].nbytes  # a row at d=2, a float at d=1
    with SnapshotWriter(tmp_path, grid, ("n",)) as writer:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            writer.write(0.0, (view,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        writer.finish()
    assert (tmp_path / "snapshots_n.bin").read_bytes() == np.ascontiguousarray(view).tobytes()
    assert peak - base <= block + 4096


def test_plot_script_mentions_reference_slopes(tmp_path):
    write_sweep_csv(tmp_path, sample_records())
    path = write_plot_script(tmp_path, sample_records())
    text = path.read_text()
    assert "logscale xy" in text
    assert "slope -1" in text and "slope -2" in text
    assert "sweep.csv" in text


def test_write_outputs_facade(tmp_path):
    records = sample_records()
    fits = {"E": fit_rate(records, "E-error"), "Q": fit_rate(records, "Q-error")}
    files = write_outputs(tmp_path, records, fits=fits)
    assert sorted(files) == sorted(p.name for p in tmp_path.iterdir()) == [
        "plots.gp", "ratefit.json", "ratefit_q.json", "sweep.csv", "sweep_metrics.json"]


def test_manifest_records_config_and_files(tmp_path):
    resolved = {"experiment": "sweep", "epsilon": 1.0}
    path = write_manifest(tmp_path, resolved, ["sweep.csv", "ratefit.json"])
    payload = json.loads(path.read_text())
    assert payload["artifact"] == "qzak"
    assert payload["config"] == resolved
    assert payload["files"] == ["ratefit.json", "sweep.csv"]
    assert "version" in payload
