"""Experiment command line.

Subcommands: simulate, sweep, layer-decay, oracle-check, self-converge,
version. Exit codes: 0 success, 1 configuration error, 2 runtime or
solver error; failures are also recorded in <out>/error.txt. Any other
exception is recorded there as "<Type>: <message>" and then re-raised.
<out>/manifest.json exists only after a run that exited 0, and it lists
exactly that run's files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import EXPERIMENTS, ExperimentConfig, apply_overrides, resolve_config
from .diagnostics import qmnls_monitor, qz_monitor
from .dynamics import qmnls_evolve, qz_evolve
from .errors import ConfigError, QzakError
from .field import complex_field, real_field
from .harness import fit_rate, lambda_sweep, oracle_discrepancy, self_convergence
from .layer import decay_probe
from .norms import l2_norm
from .outputs import (SnapshotWriter, _write_json, write_decay_report, write_error,
                      write_manifest, write_outputs, write_selfconv)
from .state import _gaussian, preset_initial_data

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

PLANE_WAVE_TOL = 1e-8


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qzak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON experiment config (defaults used when omitted)")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-path config override")
        p.add_argument("--quiet", action="store_true")
    sub.add_parser("version")
    return parser


def _load_config(args, command: str) -> ExperimentConfig:
    raw: dict = {}
    if args.config is not None:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("$", f"cannot read config file {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("$", f"invalid JSON in {path}: {exc}") from exc
    raw = apply_overrides(raw, args.override)
    stated = raw.setdefault("experiment", command)
    if stated != command:
        raise ConfigError("experiment",
                          f"config says {stated!r} but subcommand is {command!r}")
    return resolve_config(raw)


def _out_dir(args, cfg: ExperimentConfig) -> Path:
    if args.out:
        return Path(args.out)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    return Path(f"out_{cfg.experiment}")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


# Everything a simulate run writes besides error.txt. It is the one
# experiment that writes while it runs, so a failed run removes all of
# it rather than leave snapshots that stop partway.
_SIMULATE_FILES = ["diagnostics.csv"] + SnapshotWriter.files(("E", "n", "nt"))


def _run_simulate(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    try:
        return _simulate(cfg, out, quiet)
    except BaseException:
        for name in _SIMULATE_FILES:
            with contextlib.suppress(OSError):
                (out / name).unlink(missing_ok=True)
        raise


def _simulate(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    """Write each sample and its mass and energy as it lands.

    The sink writes the march's live arrays, measures them (the monitor
    only reads them) and writes their diagnostics row, all before the
    march steps on.

    Every grid-sized buffer has one owner: _simulate hands the initial
    data to evolve and keeps no reference, so evolve frees it once its
    advance has copied it, before the first step, and the run then holds
    the march's buffers and kernel slots and the monitor's weights. The
    monitor allocates its two half spectra and real half-spectrum work
    array at the first sample, after the initial data is gone.
    """
    sim = cfg.sim
    data = preset_initial_data(cfg.data_kind, cfg.data_params, sim.grid, sim.eps)
    # start holds the initial data until the call to evolve takes it out,
    # so that evolve frees it before the first step
    if cfg.solver == "qz":
        evolve, start, names = qz_evolve, [data], ("E", "n", "nt")
        measure = qz_monitor(sim.grid, sim.eps, sim.lam)
    else:
        evolve, start, names = qmnls_evolve, [data.E0], ("E",)
        measure = qmnls_monitor(sim.grid, sim.eps)
    del data
    final_mass = None
    with SnapshotWriter(out, sim.grid, names) as writer, \
            open(out / "diagnostics.csv", "w") as diag:
        diag.write("t,mass,hamiltonian\n")

        def sink(t: float, arrays: tuple) -> None:
            nonlocal final_mass
            writer.write(t, arrays)
            final_mass, energy = measure(*arrays)
            diag.write(f"{t!r},{final_mass!r},{energy!r}\n")

        evolve(sim, start.pop(), sink=sink)
        files = ["diagnostics.csv"] + writer.finish()
    _say(quiet, f"lambda={sim.lam:g} solver={cfg.solver} samples={len(writer.times)} "
                f"final_mass={final_mass:.12e}")
    return files


def _run_sweep(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    sim = cfg.sim
    data = preset_initial_data(cfg.data_kind, cfg.data_params, sim.grid, sim.eps)
    records = lambda_sweep(sim, data, cfg.lambdas, sim.m)
    for r in records:
        _say(quiet, f"lambda={r.lam:g} dt={r.dt:g} err_E={r.sup_err_E_Hm:.6e} "
                    f"err_Q={r.sup_err_Q_Hm:.6e} Q={r.sup_Q_Hm:.6e} "
                    f"wall={r.walltime_s:.2f}s")
    fits = {"E": fit_rate(records, "E-error"), "Q": fit_rate(records, "Q-error")}
    files = write_outputs(out, records, fits=fits)
    _say(quiet, f"fitted E-error slope {fits['E'].slope:.3f} "
                f"(residual {fits['E'].residual:.3f})")
    return files


def _run_layer_decay(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    sim = cfg.sim
    grid = sim.grid
    p = cfg.data_params
    f0 = real_field(grid, _gaussian(grid, p.amplitude, p.width, p.center))
    rep = decay_probe(f0, sim.eps, cfg.lambda_times, cfg.k_max, cfg.probe_points)
    _say(quiet, f"inner_exponent={rep.inner_exponent:.3f} "
                f"outer_envelope_factor={rep.outer_envelope_factor:.3f}")
    return write_decay_report(out, rep)


def _run_oracle_check(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    sim = cfg.sim
    data = preset_initial_data(cfg.data_kind, cfg.data_params, sim.grid, sim.eps)
    disc = oracle_discrepancy(sim, data)

    # Plane-wave phase rotation: exactly solvable, catches sign errors.
    grid = sim.grid
    xi = 2.0 * np.pi / grid.L
    amp = 0.5
    E0 = complex_field(grid, amp * np.exp(1j * xi * grid.coordinates[0]))
    traj = qmnls_evolve(replace(sim, sample_times=(sim.T,)), E0)
    phase = -sim.T * (xi**2 + sim.eps**2 * xi**4) + amp**2 * sim.T
    exact = amp * np.exp(1j * xi * grid.coordinates[0]) * np.exp(1j * phase)
    plane_err = l2_norm(real_field(grid, np.abs(traj.final_state().E.values - exact)))

    # written before the checks, so that a mismatch keeps its measurement
    _write_json(out, "oracle.json", {
        "discrepancy": disc, "tolerance": cfg.tolerance,
        "plane_wave_error": plane_err, "plane_wave_tolerance": PLANE_WAVE_TOL})
    _say(quiet, f"lambda={sim.lam:g} oracle discrepancy {disc:.3e} "
                f"(tolerance {cfg.tolerance:g}); plane-wave error {plane_err:.3e}")
    if disc > cfg.tolerance:
        raise QzakError(f"oracle mismatch: discrepancy {disc:.6e} exceeds "
                        f"tolerance {cfg.tolerance:g}")
    if plane_err > PLANE_WAVE_TOL:
        raise QzakError(f"plane-wave phase error {plane_err:.6e} exceeds "
                        f"{PLANE_WAVE_TOL:g}")
    return ["oracle.json"]


def _run_self_converge(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    sim = cfg.sim
    data = preset_initial_data(cfg.data_kind, cfg.data_params, sim.grid, sim.eps)
    result = self_convergence(sim, data, cfg.dt_list, target=cfg.solver)
    files = write_selfconv(out, result)
    for dt, err in zip(result.dts, result.errors):
        _say(quiet, f"dt={dt:g} error={err:.6e}")
    _say(quiet, f"measured order {result.order:.3f}")
    return files


_RUNNERS = {
    "simulate": _run_simulate,
    "sweep": _run_sweep,
    "layer-decay": _run_layer_decay,
    "oracle-check": _run_oracle_check,
    "self-converge": _run_self_converge,
}


def run_cli(argv: list[str]) -> int:
    """Run one subcommand and return its exit code. An experiment's
    runner returns the names of the files it wrote; once it has returned,
    and only then, manifest.json records them with the resolved config."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_CONFIG
    if args.command == "version":
        print(f"qzak {__version__}")
        return EXIT_OK

    try:
        cfg = _load_config(args, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.out:
            out = Path(args.out)
            with contextlib.suppress(OSError):
                (out / "manifest.json").unlink(missing_ok=True)
            write_error(out, str(exc))
        return EXIT_CONFIG

    out = _out_dir(args, cfg)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in ("error.txt", "manifest.json"):
            (out / name).unlink(missing_ok=True)
        files = _RUNNERS[args.command](cfg, out, args.quiet)
        write_manifest(out, cfg.resolved, files + ["manifest.json"])
        return EXIT_OK
    except (QzakError, OSError, MemoryError) as exc:
        # a bare MemoryError() has no message; name it instead
        message = str(exc) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        write_error(out, message)
        return EXIT_RUNTIME
    except Exception as exc:
        # a bug, not a runtime condition: record it and keep the traceback
        write_error(out, f"{type(exc).__name__}: {exc}")
        raise


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
