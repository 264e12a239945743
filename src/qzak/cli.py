"""Experiment command line.

Subcommands: simulate, sweep, layer-decay, oracle-check, self-converge,
version. Exit codes: 0 success, 1 configuration error, 2 runtime or
solver error; failures are also recorded in <out>/error.txt. Any other
exception is recorded there as "<Type>: <message>" and then re-raised.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import threading
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
from .outputs import (SnapshotWriter, write_decay_report, write_error,
                      write_manifest, write_outputs, write_selfconv)
from .state import _gaussian, check_resolution, preset_initial_data

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


# Everything a simulate run writes besides error.txt. A failed run
# removes all of it, so that no manifest lists half-written snapshots.
_SIMULATE_FILES = (["diagnostics.csv", "manifest.json"]
                   + SnapshotWriter.files(("E", "n", "nt")))


def _run_simulate(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    try:
        return _simulate(cfg, out, quiet)
    except BaseException:
        for name in _SIMULATE_FILES:
            with contextlib.suppress(OSError):
                (out / name).unlink(missing_ok=True)
        raise


def _simulate(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    """Write each sample and its mass and energy as it lands.

    The sink copies the march's live arrays into one slot and hands it
    to a worker thread, which measures the sample and writes its
    snapshot and diagnostics row while the march steps on. One sample is
    in flight: the sink waits for the worker to finish the last one
    before it refills the slot, so samples are handled in order and the
    first failure, in the worker or in the march, is the one raised.
    """
    sim = cfg.sim
    data = preset_initial_data(cfg.data_kind, cfg.data_params, sim.grid, sim.eps)
    if cfg.solver == "qz":
        evolve, start, names = qz_evolve, data, ("E", "n", "nt")
        measure = qz_monitor(sim.grid, sim.eps, sim.lam)
    else:
        evolve, start, names = qmnls_evolve, data.E0, ("E",)
        measure = qmnls_monitor(sim.grid, sim.eps)
    slot = tuple(np.empty(sim.grid.shape, complex if name == "E" else float)
                 for name in names)
    landed = []    # sample times handed to the worker, in order; None stops it
    full, free = threading.Semaphore(0), threading.Semaphore(1)
    masses = []
    failed = []
    with SnapshotWriter(out, sim.grid, names) as writer, \
            open(out / "diagnostics.csv", "w") as diag:
        diag.write("t,mass,hamiltonian\n")

        def work() -> None:
            # records every failure, so that it always frees the slot
            while True:
                full.acquire()
                t = landed.pop(0)
                if t is None:
                    return
                try:
                    m, energy = measure(*slot)
                    writer.write(t, slot)
                    diag.write(f"{t!r},{m!r},{energy!r}\n")
                    masses.append(m)
                except BaseException as exc:
                    failed.append(exc)
                free.release()

        def hand_over(t) -> None:
            landed.append(t)
            full.release()

        def sink(t: float, arrays: tuple) -> None:
            free.acquire()
            if failed:
                raise failed.pop()
            for dst, src in zip(slot, arrays):
                np.copyto(dst, src)
            hand_over(t)

        worker = threading.Thread(target=work)
        worker.start()
        try:
            evolve(sim, start, sink=sink)
        finally:
            hand_over(None)
            worker.join()
            # a failed sample came before whatever else stopped the march
            if failed:
                raise failed.pop()
        files = ["diagnostics.csv"] + writer.finish()
    write_manifest(out, cfg.resolved, files + ["manifest.json"])
    _say(quiet, f"lambda={sim.lam:g} solver={cfg.solver} samples={len(masses)} "
                f"final_mass={masses[-1]:.12e}")
    return EXIT_OK


def _run_sweep(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    sim = cfg.sim
    data = preset_initial_data(cfg.data_kind, cfg.data_params, sim.grid, sim.eps)
    records = lambda_sweep(sim, data, cfg.lambdas, sim.m)
    for r in records:
        _say(quiet, f"lambda={r.lam:g} dt={r.dt:g} err_E={r.sup_err_E_Hm:.6e} "
                    f"err_Q={r.sup_err_Q_Hm:.6e} Q={r.sup_Q_Hm:.6e} "
                    f"wall={r.walltime_s:.2f}s")
    fits = {"E": fit_rate(records, "E-error"), "Q": fit_rate(records, "Q-error")}
    write_outputs(out, records, cfg.resolved, fits=fits)
    _say(quiet, f"fitted E-error slope {fits['E'].slope:.3f} "
                f"(residual {fits['E'].residual:.3f})")
    return EXIT_OK


def _run_layer_decay(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    sim = cfg.sim
    grid = sim.grid
    p = cfg.data_params
    check_resolution(grid, p.width, p.center, p)
    f0 = real_field(grid, _gaussian(grid, p.amplitude, p.width, p.center))
    reports = []
    for lam in cfg.lambdas:
        times = [lt / lam for lt in cfg.lambda_times]
        rep = decay_probe(f0, sim.eps, lam, times, cfg.k_max, cfg.probe_points)
        reports.append(rep)
        _say(quiet, f"lambda={lam:g} inner_exponent={rep.inner_exponent:.3f} "
                    f"outer_envelope_factor={rep.outer_envelope_factor:.3f}")
    files = write_decay_report(out, reports)
    write_manifest(out, cfg.resolved, files + ["manifest.json"])
    return EXIT_OK


def _run_oracle_check(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
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

    payload = {"discrepancy": disc, "tolerance": cfg.tolerance,
               "plane_wave_error": plane_err, "plane_wave_tolerance": PLANE_WAVE_TOL}
    (out / "oracle.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_manifest(out, cfg.resolved, ["oracle.json", "manifest.json"])
    _say(quiet, f"lambda={sim.lam:g} oracle discrepancy {disc:.3e} "
                f"(tolerance {cfg.tolerance:g}); plane-wave error {plane_err:.3e}")
    if disc > cfg.tolerance:
        raise QzakError(f"oracle mismatch: discrepancy {disc:.6e} exceeds "
                        f"tolerance {cfg.tolerance:g}")
    if plane_err > PLANE_WAVE_TOL:
        raise QzakError(f"plane-wave phase error {plane_err:.6e} exceeds "
                        f"{PLANE_WAVE_TOL:g}")
    return EXIT_OK


def _run_self_converge(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    sim = cfg.sim
    data = preset_initial_data(cfg.data_kind, cfg.data_params, sim.grid, sim.eps)
    result = self_convergence(sim, data, cfg.dt_list, target=cfg.solver)
    files = write_selfconv(out, result)
    write_manifest(out, cfg.resolved, files + ["manifest.json"])
    for dt, err in zip(result.dts, result.errors):
        _say(quiet, f"dt={dt:g} error={err:.6e}")
    _say(quiet, f"measured order {result.order:.3f}")
    return EXIT_OK


_RUNNERS = {
    "simulate": _run_simulate,
    "sweep": _run_sweep,
    "layer-decay": _run_layer_decay,
    "oracle-check": _run_oracle_check,
    "self-converge": _run_self_converge,
}


def run_cli(argv: list[str]) -> int:
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
            write_error(Path(args.out), str(exc))
        return EXIT_CONFIG

    out = _out_dir(args, cfg)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.txt").unlink(missing_ok=True)
        return _RUNNERS[args.command](cfg, out, args.quiet)
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
