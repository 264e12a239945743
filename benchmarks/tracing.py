"""In-process tracing from the benchmark's own files.

The tracer wraps public qzak functions where they are looked up: the
package imports functions by name (``from .dynamics import qz_evolve``),
so every module attribute that is the original function is replaced,
and restored afterwards. Spans (name, start, end, parent, operation id,
thread) are kept in memory, with one span stack per thread; a span that
opens on a thread with an empty stack (a pool worker) takes the
innermost open span of the tracing thread as its parent. Counters are
kept at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

from workloads import count_steps

# Spanned public functions, named <module>.<function>; the module name
# is the layer.
SPANNED = (
    "config.resolve_config",
    "state.preset_initial_data",
    "harness.lambda_sweep", "harness.self_convergence", "harness.fit_rate",
    "dynamics.qz_evolve", "dynamics.qmnls_evolve",
    "layer.layer_initial_fields", "layer.q_field", "layer.q0_exact",
    "norms.sobolev_norm",
    "diagnostics.mass", "diagnostics.spectral_tail",
    "diagnostics.hamiltonian_qz", "diagnostics.hamiltonian_qmnls",
    "outputs.write_outputs", "outputs.write_selfconv",
    "outputs.write_snapshots", "outputs.write_manifest",
)
# Public functions that are only counted: they run too often for spans.
COUNTED = ("operators.apply_multiplier",)
# Per-sample measurement calls, timed where an experiment runner makes them.
MEASUREMENT = {"layer.q_field", "layer.q0_exact", "norms.sobolev_norm",
               "diagnostics.mass", "diagnostics.spectral_tail",
               "diagnostics.hamiltonian_qz", "diagnostics.hamiltonian_qmnls"}
RUNNERS = {"cli.run_cli", "harness.lambda_sweep", "harness.self_convergence"}
# Every numpy.fft and scipy.fft transform entry point: complex and real,
# 1-D, 2-D and n-D.
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
             "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn")
FFT_MODULES = ("numpy.fft", "scipy.fft")


class Tracer:
    def __init__(self):
        self.spans = []   # (id, name, start, end, parent, op, thread)
        self.counts = Counter()
        self.op = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, op_id):
        """Mark the calling thread as the tracing thread for one operation."""
        self.op = op_id
        self._root_stack = self._stack()
        try:
            yield
        finally:
            self.op = None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            try:
                parent = self._root_stack[-1]
            except IndexError:
                pass
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op,
                               threading.get_ident()))

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counts[key] += n

    def record_max(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)


class Patches:
    """Replace objects wherever qzak (or an FFT namespace) looks them up."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement, extra_modules=()) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "qzak" or name.startswith("qzak."))]
        mods += [sys.modules[n] for n in extra_modules if n in sys.modules]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def set_attr(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


def _lookup(qualified: str):
    module, name = qualified.split(".")
    return getattr(importlib.import_module(f"qzak.{module}"), name)


def install_fft_counter(tracer: Tracer, patches: Patches) -> None:
    """Count outermost FFT entry-point calls and the bytes they move.

    Bytes are computed as input plus output array sizes, not measured.
    """
    import numpy as np

    local = threading.local()
    seen = set()
    for mod_name in FFT_MODULES:
        try:
            mod = importlib.import_module(mod_name)
        except ImportError:
            continue
        for name in FFT_NAMES:
            fn = getattr(mod, name, None)
            if fn is None or id(fn) in seen:
                continue
            seen.add(id(fn))

            def counted(x, *args, _fn=fn, **kwargs):
                if getattr(local, "depth", 0):
                    return _fn(x, *args, **kwargs)
                local.depth = 1
                try:
                    out = _fn(x, *args, **kwargs)
                finally:
                    local.depth = 0
                tracer.count("fft.calls")
                tracer.count("fft.bytes", np.asarray(x).nbytes + out.nbytes)
                return out

            patches.replace(fn, functools.wraps(fn)(counted), FFT_MODULES)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the traced layers and install the counters."""
    from qzak.field import Field

    for qualified in SPANNED:
        fn = _lookup(qualified)

        def spanned(*args, _fn=fn, _name=qualified, **kwargs):
            with tracer.span(_name):
                result = _fn(*args, **kwargs)
            if _name == "dynamics.qz_evolve":
                cfg = args[0]
                tracer.count("dynamics.qz_evolve.steps", count_steps(
                    cfg.dt0, cfg.c_lam, cfg.lam, cfg.T, cfg.sample_times))
                held = sum(a.values.nbytes for s in result.states
                           for a in (s.E, s.n, s.nt))
                tracer.record_max("dynamics.trajectory_bytes", held)
            return result

        patches.replace(fn, functools.wraps(fn)(spanned))

    for qualified in COUNTED:
        fn = _lookup(qualified)

        def counted(*args, _fn=fn, _name=qualified, **kwargs):
            tracer.count(_name)
            return _fn(*args, **kwargs)

        patches.replace(fn, functools.wraps(fn)(counted))

    field_init = Field.__init__

    def counted_init(self, *args, **kwargs):
        field_init(self, *args, **kwargs)
        tracer.count("field.constructions")
        tracer.count("field.copied_bytes", self.values.nbytes)

    patches.set_attr(Field, "__init__", counted_init)
    install_fft_counter(tracer, patches)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Per-layer self time: span duration minus what its children cover."""
    children = defaultdict(list)
    for sid, name, start, end, parent, op, thread in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for sid, name, start, end, parent, op, thread in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children[sid]]
        inside = [(s, e) for s, e in inside if e > s]
        out[name.split(".")[0]] += (end - start) - _covered(inside)
    return dict(out)


def operation_layers(spans, counts: Counter, samples: int) -> dict:
    """Layer metrics of one traced operation, from its spans and counters."""
    by_id = {s[0]: s for s in spans}

    def total(name):
        return sum(s[3] - s[2] for s in spans if s[1] == name)

    def parent_name(s):
        parent = by_id.get(s[4])
        return parent[1] if parent else None

    steps = counts["dynamics.qz_evolve.steps"]
    measured = [s for s in spans
                if s[1] in MEASUREMENT and parent_name(s) in RUNNERS]
    writes = [s for s in spans if s[1].startswith("outputs.")
              and not (parent_name(s) or "").startswith("outputs.")]
    out = {
        "dynamics.qz_evolve_us_per_step": 1e6 * total("dynamics.qz_evolve") / steps,
        "dynamics.trajectory_mb": counts["dynamics.trajectory_bytes"] / 1e6,
        "harness.lambda_sweep_s": total("harness.lambda_sweep"),
        "harness.reference_s": total("dynamics.qmnls_evolve"),
        "harness.march_s": total("dynamics.qz_evolve"),
        "harness.measure_us_per_sample":
            1e6 * sum(s[3] - s[2] for s in measured) / samples,
        "norms.sobolev_norm_calls": sum(1 for s in spans if s[1] == "norms.sobolev_norm"),
        "field.field_constructions": counts["field.constructions"],
        "field.copied_mb": counts["field.copied_bytes"] / 1e6,
        "operators.apply_multiplier_calls": counts["operators.apply_multiplier"],
        "fft.calls": counts["fft.calls"],
        "fft.computed_mb": counts["fft.bytes"] / 1e6,
        "outputs.write_ms": 1e3 * sum(s[3] - s[2] for s in writes),
    }
    # Pool overlap: busy time of spans rooted on worker threads over the
    # wall time from the first such span's start to the last one's end.
    root_thread = next((s[6] for s in spans if s[4] is None), None)
    pooled = [s for s in spans if s[6] != root_thread and
              (s[4] not in by_id or by_id[s[4]][6] != s[6])]
    if pooled:
        wall = max(s[3] for s in pooled) - min(s[2] for s in pooled)
        out["harness.pool_overlap"] = sum(s[3] - s[2] for s in pooled) / wall
    for layer, seconds in self_times(spans).items():
        out[f"self_ms.{layer}"] = 1e3 * seconds
    return out


def median_layers(per_op: list[dict]) -> dict:
    keys = sorted({k for d in per_op for k in d})
    return {k: median(d[k] for d in per_op if k in d) for k in keys}
