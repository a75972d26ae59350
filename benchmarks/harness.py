"""Closed-loop runner: set-up, timed passes, checks, metrics and the trace.

One client in one process runs passes back to back; each pass starts only
after the previous one has finished.  A run with ``trace=False`` reports the
end-to-end metrics; a run with ``trace=True`` alternates untraced and traced
passes and reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import math
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc

import numpy as np

import spans
from workloads import WORKLOADS, Checks

MODULES = ("matcore", "fields", "lax", "transition", "charges", "defect", "rmatrix", "report", "suites", "cli")
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


def _sgdual_names():
    return [name for name in sys.modules if name == "sgdual" or name.startswith("sgdual.")]


class _Modules:
    """The freshly imported sgdual modules, by short name."""

    def __init__(self):
        for name in _sgdual_names():
            del sys.modules[name]
        self.package = importlib.import_module("sgdual")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"sgdual.{name}"))

    def all(self):
        return [self.package] + [getattr(self, name) for name in MODULES]


def machine_facts(thread_vars) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in thread_vars},
    }


def tail(samples):
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it, never
    below the median; returns (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND
    if k <= (n - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * k / (n - 1)


class Run:
    def __init__(self, root, workdir, workload, seed):
        self.root = root
        self.workdir = workdir
        self.name = workload
        self.seed = seed
        self.checks = Checks()

    def setup(self):
        """Import sgdual and make the inputs that the passes use."""
        self.setup_times = []
        self.sg, self.workload, self.inputs = self._set_up(self.workdir)
        if not os.path.realpath(self.sg.package.__file__).startswith(os.path.realpath(self.root / "src")):
            raise RuntimeError(f"sgdual imported from {self.sg.package.__file__}, not from this checkout")
        (self.workdir / "setup").mkdir()

    def _set_up(self, workdir):
        """One timed set-up: import sgdual afresh and make the workload's inputs.
        Garbage is collected first, outside the timing, so that every sample
        starts from the same heap."""
        gc.collect()
        start = time.perf_counter()
        sg = _Modules()
        workload = WORKLOADS[self.name]()
        inputs = workload.prepare(self.seed, self.root, workdir)
        self.setup_times.append(time.perf_counter() - start)
        return sg, workload, inputs

    def set_up_again(self):
        """One more set-up sample between two timed passes, into a scratch
        directory; the modules the passes use are put back afterwards.  Spread
        over the run like this, the samples see the same host as the passes."""
        kept = {name: sys.modules[name] for name in _sgdual_names()}
        try:
            self._set_up(self.workdir / "setup")
        finally:
            for name in _sgdual_names():
                del sys.modules[name]
            sys.modules.update(kept)
            gc.collect()  # so that the discarded modules are not collected inside a timed pass

    def one_pass(self, index):
        """One timed pass; returns (wall_s, cpu_s, work) and runs its checks."""
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        out = self.workload.run_pass(self.sg, index)
        wall, cpu = time.perf_counter_ns() - wall0, time.process_time_ns() - cpu0
        return wall * 1e-9, cpu * 1e-9, self.workload.check_pass(index, out, self.checks)

    def loop(self, seconds, first_index, around=None, between=None):
        """Passes back to back until ``seconds`` have passed and every config
        ran; ``around(index)`` gives a context manager entered for each pass,
        and ``between()`` runs after each pass, outside its timing.
        Returns the samples as (index, wall_s, cpu_s, work) and the next index."""
        samples = []
        index = first_index
        minimum = self.workload.n_configs * (2 if around else 1)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or index - first_index < minimum:
            try:
                with around(index) if around else contextlib.nullcontext():
                    samples.append((index,) + self.one_pass(index))
            except Exception:  # a pass that raises is a failed check; keep measuring
                traceback.print_exc(file=sys.stderr)
                self.checks.same(f"pass {index} raised", False)
            index += 1
            if between:
                between()
        if not samples:
            raise RuntimeError("no pass completed")
        return samples, index

    def peak_memory_mb(self, index):
        tracemalloc.start()
        try:
            out = self.workload.run_pass(self.sg, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.workload.check_pass(index, out, self.checks)
        return peak / 1e6

    def end_to_end(self, seconds):
        self.one_pass(0)  # warm-up: lazy imports and caches; reference outputs
        samples, index = self.loop(seconds, 1, between=self.set_up_again)
        walls = [s[1] for s in samples]
        cpus = [s[2] for s in samples]
        tail_value, tail_pct = tail(walls)
        peak = self.peak_memory_mb(index)
        digits = self.workload.digits
        checks = self.checks
        metrics = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "pass_s.p50": (statistics.median(walls), "s"),
            "pass_s.tail": (tail_value, "s"),
            "cpu_s.p50": (statistics.median(cpus), "s"),
            "work_per_s": (sum(s[3] for s in samples) / sum(walls), "1/s"),
            "peak_mem_mb": (peak, "MB"),
            "check_pass_share": (1.0 - checks.failed / checks.attempted, "fraction"),
            "gate_margin_digits": (checks.margin, "digits"),
        }
        metrics.update({name: (value, "digits") for name, value in digits.items()})
        detail = {
            "passes": len(walls),
            "pass_s.tail_percentile": tail_pct,
            "pass_s.min_max": [min(walls), max(walls)],
            "setup_s.samples": len(self.setup_times),
            "setup_s.min_max": [min(self.setup_times), max(self.setup_times)],
            "work_per_pass": samples[0][3],
        }
        return metrics, detail

    def traced(self, seconds):
        """Odd passes run traced and even passes untraced, so both halves see
        the same machine; the wrappers are removed between passes."""
        self.one_pass(0)
        tracer = spans.Tracer()
        modules = self.sg.all()
        deltas = {}

        @contextlib.contextmanager
        def around(index):
            if index % 2 == 0:
                yield
                return
            with tracer.tracing(modules) as delta:
                yield
            deltas[index] = delta

        samples, _ = self.loop(seconds, 1, around)
        traced = [s for s in samples if s[0] in deltas]
        untraced = [s for s in samples if s[0] % 2 == 0]
        per_pass = [spans.layer_metrics(deltas[s[0]]) for s in traced]
        metrics = {
            name: (statistics.median(p[name] for p in per_pass), _layer_unit(name))
            for name in per_pass[0]
        }
        untraced_p50 = statistics.median(s[1] for s in untraced)
        traced_p50 = statistics.median(s[1] for s in traced)
        metrics["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "fraction")
        total = tracer.counts
        self_sum = sum(total[f"{layer}.self_ns"] for layer in spans.LAYERS) * 1e-9
        top = sorted(((k[8:], v * 1e-9 / len(traced)) for k, v in total.items() if k.startswith("self_ns:")),
                     key=lambda kv: -kv[1])[:12]
        detail = {
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "wrapped_functions": tracer.wrapped,
            "traced_self_s_sum": self_sum,
            "traced_wall_s_sum": sum(s[1] for s in traced),
            "top_self_s_per_pass": {k: round(v, 6) for k, v in top},
        }
        return metrics, detail


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_step") or name.endswith("ns_per_matrix"):
        return "ns"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run(root, workdir, workload, seed, seconds, trace):
    """Run one workload; returns (result dict for the last line, detail dict)."""
    bench = Run(root, workdir, workload, seed)
    bench.setup()
    metrics, detail = bench.traced(seconds) if trace else bench.end_to_end(seconds)
    checks = bench.checks
    detail.update({
        "workload": workload,
        "seed": seed,
        "inputs": bench.inputs,
        "checks_attempted": checks.attempted,
        "checks_failed": checks.failed,
        "fail_share": checks.failed / checks.attempted,
        "failures": checks.failures,
    })
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    for name, (v, _) in metrics.items():
        if not math.isfinite(v):
            raise RuntimeError(f"metric {name} is not finite: {v}")
    return result, detail
