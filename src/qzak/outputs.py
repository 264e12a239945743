"""Result persistence: CSV tables, rate fits, binary snapshots, plot scripts.

The sweep CSV schema is fixed: header
``lambda,dt,sup_err_E_Hm,sup_err_Q_Hm,sup_Q_Hm,walltime_s``, '.' decimal
separator, line-feed terminators. Snapshots are flat little-endian
64-bit arrays (complex interleaved re/im) with a plain-text sidecar.
Given the same in-memory results, every writer is byte-deterministic.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .errors import OutputError
from .harness import RateFit, SelfConvergence, SweepRecord
from .layer import DecayProbeReport

ARTIFACT_VERSION = "0.1.0"

SWEEP_HEADER = "lambda,dt,sup_err_E_Hm,sup_err_Q_Hm,sup_Q_Hm,walltime_s"


def _fmt(x: float) -> str:
    return repr(float(x))


def _ensure_dir(out_dir) -> Path:
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out_dir}: {exc}") from exc
    return path


def write_manifest(out_dir, resolved_config: dict, files: list[str]) -> Path:
    path = _ensure_dir(out_dir) / "manifest.json"
    payload = {
        "artifact": "qzak",
        "version": ARTIFACT_VERSION,
        "config": resolved_config,
        "files": sorted(files),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_error(out_dir, message: str) -> None:
    try:
        (_ensure_dir(out_dir) / "error.txt").write_text(message + "\n")
    except OutputError:
        pass


def write_sweep_csv(out_dir, records: list[SweepRecord]) -> Path:
    path = _ensure_dir(out_dir) / "sweep.csv"
    lines = [SWEEP_HEADER]
    for r in records:
        lines.append(",".join(_fmt(v) for v in (
            r.lam, r.dt, r.sup_err_E_Hm, r.sup_err_Q_Hm, r.sup_Q_Hm,
            round(r.walltime_s, 3))))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_sweep_metrics(out_dir, records: list[SweepRecord]) -> Path:
    """Per-lam figures the sweep.csv schema leaves out: the step size, the
    steps taken, the largest spectral tail of E and the mass drift."""
    path = _ensure_dir(out_dir) / "sweep_metrics.json"
    payload = {"records": [
        {"lam": r.lam, "dt": r.dt, "steps": r.steps, "max_tail_E": r.max_tail_E,
         "mass_drift": r.mass_drift}
        for r in records]}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_ratefit(out_dir, fit: RateFit, name: str = "ratefit.json") -> Path:
    path = _ensure_dir(out_dir) / name
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "lambdas": list(fit.lambdas),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


_SNAPSHOT_DTYPES = {"E": "<c16", "n": "<f8", "nt": "<f8"}


class SnapshotWriter:
    """Appends samples to open snapshot files as they land.

    One file per field name, ``snapshots_<name>.bin``: complex fields as
    <c16, real ones as <f8. ``finish`` writes the text sidecar and
    returns the names of the files written; a writer closed without
    ``finish`` leaves no sidecar. Use it as a context manager.
    """

    def __init__(self, out_dir, grid, names: tuple):
        self.out = _ensure_dir(out_dir)
        self.grid = grid
        self.names = tuple(names)
        self.times = []
        self._dtypes = [_SNAPSHOT_DTYPES[name] for name in self.names]
        self._files = []
        try:
            for fname in self.files(self.names)[:-1]:
                self._files.append(open(self.out / fname, "wb"))
        except BaseException:
            self.close()
            raise

    @staticmethod
    def files(names: tuple) -> list[str]:
        """The names of the files a finished writer leaves, sidecar last."""
        return [f"snapshots_{name}.bin" for name in names] + ["snapshots_meta.txt"]

    def write(self, t: float, arrays: tuple) -> None:
        """Append one sample. tofile writes a strided array (a real view
        into a complex buffer) element by element: pass contiguous ones."""
        for fh, arr, dtype in zip(self._files, arrays, self._dtypes):
            np.asarray(arr, dtype=dtype).tofile(fh)
        self.times.append(t)

    def close(self) -> None:
        for fh in self._files:
            fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def finish(self) -> list[str]:
        self.close()
        grid = self.grid
        sidecar = [
            "layout: row-major, little-endian, 64-bit floats",
            "complex: interleaved real/imag (numpy dtype <c16)",
            f"dimension: {grid.d}",
            f"N: {grid.N}",
            f"L: {_fmt(grid.L)}",
            f"num_snapshots: {len(self.times)}",
            "times: " + ",".join(_fmt(t) for t in self.times),
            "shape_per_snapshot: " + "x".join(str(n) for n in grid.shape),
        ]
        files = self.files(self.names)
        for fname, dtype in zip(files, self._dtypes):
            sidecar.append(f"file: {fname} dtype={dtype}")
        (self.out / files[-1]).write_text("\n".join(sidecar) + "\n")
        return files


def write_snapshots(out_dir, traj: Trajectory) -> list[str]:
    """Dump trajectory fields as flat binary arrays plus a text sidecar."""
    names = ("E", "n", "nt") if hasattr(traj.states[0], "n") else ("E",)
    with SnapshotWriter(out_dir, traj.config.grid, names) as writer:
        for t, s in traj.samples:
            writer.write(t, tuple(getattr(s, name).values for name in names))
        return writer.finish()


def write_plot_script(out_dir, records: list[SweepRecord]) -> Path:
    """Emit a gnuplot script for the log-log errors with reference slopes."""
    out = _ensure_dir(out_dir)
    lam0 = records[0].lam
    c1 = records[0].sup_err_E_Hm * lam0
    c2 = records[0].sup_err_E_Hm * lam0**2
    script = f"""# log-log sweep errors with reference slopes -1 and -2
set terminal pngcairo size 900,600
set output 'sweep.png'
set datafile separator ','
set logscale xy
set key left bottom
set xlabel 'lambda'
set ylabel 'sup_t error (H^m)'
plot 'sweep.csv' skip 1 using 1:3 with linespoints pt 7 title 'E error', \\
     'sweep.csv' skip 1 using 1:4 with linespoints pt 5 title 'Q - Q0 error', \\
     'sweep.csv' skip 1 using 1:5 with linespoints pt 9 title 'Q norm', \\
     {_fmt(c1)}/x with lines dashtype 2 title 'slope -1', \\
     {_fmt(c2)}/x**2 with lines dashtype 3 title 'slope -2'
"""
    path = out / "plots.gp"
    path.write_text(script)
    return path


def write_decay_report(out_dir, reports: list[DecayProbeReport]) -> list[str]:
    out = _ensure_dir(out_dir)
    lines = ["lambda,t,lambda_t,x0,region,k,sup_abs,weighted_sup"]
    for rep in reports:
        for row in rep.rows:
            for k, (v, w) in enumerate(zip(row.sup_by_k, row.weighted_sup_by_k)):
                lines.append(",".join([
                    _fmt(rep.lam), _fmt(row.t), _fmt(row.lam_t), _fmt(row.x0),
                    row.region, str(k), _fmt(v), _fmt(w)]))
    (out / "decay.csv").write_text("\n".join(lines) + "\n")
    payload = {
        "per_lambda": [
            {"lambda": rep.lam,
             "inner_exponent": rep.inner_exponent,
             "outer_envelope_factor": rep.outer_envelope_factor}
            for rep in reports
        ],
    }
    (out / "decayfit.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return ["decay.csv", "decayfit.json"]


def write_outputs(out_dir, records: list[SweepRecord], resolved_config: dict,
                  fits: dict[str, RateFit]) -> list[str]:
    """Persist a sweep's full file set and its manifest.

    Writes sweep.csv, sweep_metrics.json, ratefit.json (fits["E"], E
    error), ratefit_q.json (fits["Q"], corrected density error) and the
    plot script. Returns the list of files written (manifest included).
    """
    write_sweep_csv(out_dir, records)
    write_sweep_metrics(out_dir, records)
    write_ratefit(out_dir, fits["E"], "ratefit.json")
    write_ratefit(out_dir, fits["Q"], "ratefit_q.json")
    write_plot_script(out_dir, records)
    files = ["sweep.csv", "sweep_metrics.json", "ratefit.json", "ratefit_q.json",
             "plots.gp"]
    write_manifest(out_dir, resolved_config, files + ["manifest.json"])
    return files + ["manifest.json"]


def write_selfconv(out_dir, result: SelfConvergence) -> list[str]:
    out = _ensure_dir(out_dir)
    lines = ["dt,error"]
    for dt, err in zip(result.dts, result.errors):
        lines.append(f"{_fmt(dt)},{_fmt(err)}")
    (out / "selfconv.csv").write_text("\n".join(lines) + "\n")
    payload = {"order": result.order, "dts": list(result.dts),
               "errors": list(result.errors)}
    (out / "selfconv.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return ["selfconv.csv", "selfconv.json"]
