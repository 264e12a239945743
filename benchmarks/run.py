#!/usr/bin/env python3
"""Benchmark of the qzak command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload sweep-1d --seed 0 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one table

Run from the root of a checkout: the program under test is the
checkout's ``src/qzak``, so the script refuses to run (exit 2, no
result) where that is missing.

--trace 0 measures operations: each is a fresh process running one
``qzak`` subcommand to completion, timed by this process from spawn to
exit, with its CPU time and max RSS read from ``os.wait4``. Children
run without QZAK_THREADS, so every commit measures the default pool.
Set-up is measured apart: fresh processes that import qzak, resolve the
config and build the initial data, without stepping.

--trace 1 is a separate in-process pass that reports the per-layer
metrics: untraced and traced operations alternate (their wall-time
difference is the tracing overhead), one more operation runs under
tracemalloc, and warm per-call probes time single layers. Spans go to
``.bench_out/trace-<workload>-seed<n>.json``.

Every operation's outputs are checked (see check.py); the last line
printed is one JSON object with keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from check import CheckError, REFERENCE_PATH, check_operation  # noqa: E402
from workloads import LAYER_MAP, WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.import_ms": "ms",
    "config.resolve_ms": "ms",
    "state.preset_ms": "ms",
    "dynamics.qz_step_us.d1": "us",
    "dynamics.qz_step_us.d2": "us",
    "dynamics.qmnls_step_us.d1": "us",
    "dynamics.kernel_build_ms.d2": "ms",
    "dynamics.fft_calls_per_qz_step": "count",
    "dynamics.fft_calls_per_qmnls_step": "count",
    "dynamics.fft_mb_per_qz_step.d1": "MB_computed",
    "dynamics.fft_mb_per_qz_step.d2": "MB_computed",
    "dynamics.qz_evolve_us_per_step": "us",
    "dynamics.trajectory_mb": "MB",
    "harness.march_s": "s",
    "harness.measure_us_per_sample": "us",
    "layer.q_field_us": "us",
    "layer.q0_exact_us": "us",
    "norms.sobolev_norm_us": "us",
    "norms.sobolev_norm_calls": "count",
    "diagnostics.spectral_tail_us": "us",
    "diagnostics.hamiltonian_qz_ms.d2": "ms",
    "field.field_constructions": "count",
    "field.copied_mb": "MB",
    "operators.apply_multiplier_calls": "count",
    "fft.calls": "count",
    "outputs.write_ms": "ms",
    "outputs.bytes_written": "B",
    "mem.peak_alloc_mb": "MB",
    "trace.overhead_s": "s",
    "self_ms.cli": "ms",
    "self_ms.config": "ms",
    "self_ms.state": "ms",
    "self_ms.dynamics": "ms",
    "self_ms.outputs": "ms",
}
# Reported in the table and the trace file but not in the result line:
# they are zero on workloads that never run the phase.
TABLE_ONLY = {"harness.lambda_sweep_s": "s", "harness.reference_s": "s",
              "harness.pool_overlap": "ratio"}

# Set-up probes run between operations, so that their median sees the
# same load on the host as the operations do: one before each of the
# first MIN_SETUP_PROBES operations, then one before every SETUP_EVERY-th,
# so that most of a run's time measures operations.
MIN_SETUP_PROBES = 3
SETUP_EVERY = 3
TRACE_SETUP_PROBES = 7
MIN_OPERATIONS = 3
MIN_TRACED_PAIRS = 2
OP_TIMEOUT_S = 60
CLI_MAIN = "from qzak.cli import main; main()"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QZAK_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run a child to exit: (exit code, wall s, CPU s, max RSS MB)."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def environment() -> dict:
    import numpy

    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
            "cpu_model": None, "l2_cache": None, "l3_cache": None,
            # lambda_sweep sizes its pool as min(cpu_count, lambdas).
            "sweep_pool_workers": min(os.cpu_count() or 1,
                                      len(WORKLOADS["sweep-1d"].base["lambdas"]))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}_cache"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


class Run:
    """One benchmark run of one workload: its directory, config and tallies."""

    def __init__(self, workload: str, seed: int, tag: str):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.cfg = self.workload.config(seed)
        self.dir = OUT / f"{workload}-seed{seed}-{tag}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.reference = json.loads(REFERENCE_PATH.read_text())["workloads"]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def cli_args(self, out: Path) -> list[str]:
        return [self.workload.command, "--config", str(self.cfg_path),
                "--out", str(out), "--quiet"]

    def verify(self, index: int, code: int, out: Path) -> bool:
        """Check one operation's outputs and count it; True when right."""
        self.attempted += 1
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            check_operation(self.workload.command, self.seed, out, self.cfg,
                            self.reference[self.workload.name])
        except (CheckError, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"operation {index}: {exc}")
            return False
        return True

    def setup_probes(self, count: int) -> tuple[list[float], list[dict]]:
        """Fresh set-up processes: spawn-to-exit seconds and phase times."""
        walls, phases = [], []
        argv = [sys.executable, str(HERE / "setup_probe.py"),
                self.workload.command, str(self.cfg_path)]
        log = self.dir / "setup.log"
        for _ in range(count):
            code, wall, _, _ = spawn(argv, log)
            if code != 0:
                self.errors.append(f"set-up probe exit code {code}: "
                                   + log.read_text()[-500:])
                continue
            report = json.loads(log.read_text().splitlines()[-1])
            if not report.pop("qzak_file").startswith(str(SRC)):
                self.errors.append("set-up probe imported qzak from outside src/")
            walls.append(wall)
            phases.append(report)
        return walls, phases

    def result(self, metrics: dict, units: dict) -> dict:
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "errors": self.errors,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from fresh-process operations."""
    run = Run(workload, seed, "e2e")
    run.setup_probes(1)  # untimed: compiles bytecode, warms the file cache
    setup_walls, ops = [], []
    start = time.perf_counter()
    while len(ops) < MIN_OPERATIONS or time.perf_counter() - start < seconds:
        if len(ops) < MIN_SETUP_PROBES or len(ops) % SETUP_EVERY == 0:
            setup_walls += run.setup_probes(1)[0]
        out = run.dir / f"op{len(ops)}"
        code, wall, cpu, rss = spawn([sys.executable, "-c", CLI_MAIN]
                                     + run.cli_args(out), run.dir / "op.log")
        ok = run.verify(len(ops), code, out)
        ops.append((ok, wall, cpu, rss))
        shutil.rmtree(out, ignore_errors=True)
        if not ok:  # the run is already incorrect; stop within the time limit
            run.errors[-1] += " " + (run.dir / "op.log").read_text()[-500:]
            break
    good = [op for op in ops if op[0]] or ops
    metrics = {
        "wall_s": median(op[1] for op in good),
        "cpu_s": median(op[2] for op in good),
        "peak_rss_mb": median(op[3] for op in good),
        "setup_s": median(setup_walls) if setup_walls else 0.0,
        "error_rate": run.failed / run.attempted,
        "operations": len(ops),
    }
    run.cleanup()
    return run.result(metrics, END_TO_END), metrics


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from the in-process traced pass."""
    import tracemalloc

    import probes
    import tracing

    run_start = time.perf_counter()
    run = Run(workload, seed, "trace")
    _, phases = run.setup_probes(TRACE_SETUP_PROBES + 1)
    phases = phases[1:]  # the first compiles bytecode
    layers = {k: median(p[k] for p in phases) for k in phases[0]} if phases else {}

    os.environ.pop("QZAK_THREADS", None)
    sys.path.insert(0, str(SRC))
    from qzak.cli import run_cli

    samples = run.workload.samples_measured(run.cfg)
    spans, per_op, walls = [], [], {False: [], True: []}

    def operation(index: int, tracer=None) -> float:
        out = run.dir / f"op{index}"
        start = time.perf_counter()
        if tracer is None:
            code = run_cli(run.cli_args(out))
        else:
            patches = tracing.Patches()
            tracing.install(tracer, patches)
            try:
                with tracer.operation(index), tracer.span("cli.run_cli"):
                    code = run_cli(run.cli_args(out))
            finally:
                patches.restore()
        wall = time.perf_counter() - start
        if run.verify(index, code, out) and tracer is not None:
            op_layers = tracing.operation_layers(tracer.spans, tracer.counts, samples)
            op_layers["outputs.bytes_written"] = sum(
                p.stat().st_size for p in out.iterdir())
            per_op.append(op_layers)
            spans.extend(tracer.spans)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    operation(0)  # warm-up: kernel caches and lazy imports
    tracemalloc.start()
    try:
        operation(1)
        layers["mem.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    layers.update(probes.timed_probes(seed))
    counter, patches = tracing.Tracer(), tracing.Patches()
    tracing.install_fft_counter(counter, patches)
    try:
        layers.update(probes.counted_probes(seed, counter))
    finally:
        patches.restore()

    # Untraced and traced operations alternate for the rest of the run,
    # so that the whole run, probes included, lasts about --seconds.
    pair = 0
    while pair < MIN_TRACED_PAIRS or time.perf_counter() - run_start < seconds:
        order = (False, True) if pair % 2 == 0 else (True, False)
        for with_trace in order:
            index = len(walls[False]) + len(walls[True]) + 2
            tracer = tracing.Tracer() if with_trace else None
            walls[with_trace].append(operation(index, tracer))
        pair += 1
    layers.update(tracing.median_layers(per_op))
    layers["trace.overhead_s"] = median(walls[True]) - median(walls[False])

    missing = [k for k in PER_LAYER if k not in layers]
    if missing:
        run.errors.append(f"layer metrics not measured: {missing}")
        layers.update({k: 0.0 for k in missing})
    run.cleanup()
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "environment": environment(),
        "layers": layers,
        "untraced_wall_s": walls[False], "traced_wall_s": walls[True],
        "span_fields": ["id", "name", "start", "end", "parent", "operation", "thread"],
        "spans": spans,
    }) + "\n")
    return run.result(layers, PER_LAYER), layers


def unit_of(name: str) -> str:
    for table in (END_TO_END, PER_LAYER, TABLE_ONLY):
        if name in table:
            return table[name]
    if name.startswith("self_ms."):
        return "ms"
    return {"error_rate": "ratio", "operations": "count", "fft.computed_mb": "MB_computed"}[name]


def run_workload(workload: str, seed: int, seconds: float, trace_on: bool) -> dict:
    """Run one workload, print its metrics table and return its result."""
    result, values = (traced if trace_on else measure)(workload, seed, seconds)
    declared = PER_LAYER if trace_on else END_TO_END
    print(f"workload {workload} seed {seed}: {WORKLOADS[workload].why}")
    for name in sorted(values, key=lambda k: (k not in declared, k)):
        link = LAYER_MAP.get(name)
        note = f"  -> {link[0]} on {link[1]}" if link else ""
        print(f"  {name:36s} {values[name]:>16.6g} {unit_of(name):11s}{note}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    errors = result.pop("errors")
    for error in errors:
        print(f"error: {workload}: {error}", file=sys.stderr)
    mode = "trace" if trace_on else "e2e"
    (OUT / f"result-{workload}-seed{seed}-{mode}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds,
        "environment": environment(), "result": result, "values": values,
        "errors": errors}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qzak" / "__init__.py").is_file():
        print(f"error: no qzak sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
