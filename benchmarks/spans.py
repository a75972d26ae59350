"""Per-layer spans around sgdual's public functions, installed from outside.

``Tracer.tracing(modules)`` replaces every public function of every sgdual
module, and every public method of the classes those modules define, with a
timing wrapper.  The wrapper is installed on each name a caller looks up:
``sgdual.transition.expm2`` and ``sgdual.rmatrix.expm2`` get the same
wrapper as ``sgdual.matcore.expm2``, because the importing modules hold
their own reference.  Methods are patched in the class dict, so
``derivative`` is wrapped on each ``FieldEvaluator`` subclass that defines
it.  The layer of a span is the module that defines the function.

A span's self time is its duration minus the durations of the wrapped calls
it made.  Spans live on a stack in memory; only sums per layer and per
counter are kept.  Nothing here changes what sgdual computes.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("matcore", "fields", "lax", "transition", "charges", "defect", "rmatrix", "suites", "report", "cli")

_FIELD_EVALS = ("derivative", "sample")
_CONFIG_LOADERS = ("cli.ScenarioConfig.load", "cli.ScenarioConfig.from_dict")
_LAX_BUILDERS = ("lax.build_U", "lax.build_V", "lax.build_U_hat", "lax.build_V_hat")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _is_field_eval(key) -> bool:
    return key is not None and key.startswith("fields.") and key.rsplit(".", 1)[1] in _FIELD_EVALS


def _count_call(counts, key, parent_key, args, kwargs, result, dur):
    """Work counters measured at the layer boundary, keyed by metric name."""
    if _is_field_eval(key):
        # a base-class sample() that calls derivative() is one evaluation
        if not _is_field_eval(parent_key):
            counts["fields.eval_calls"] += 1
            counts["fields.eval_points"] += np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size
    elif key == "fields.simpson_uniform":
        counts["fields.quad_calls"] += 1
        counts["fields.quad_points"] += np.asarray(args[0]).shape[0]
    elif key == "matcore.expm2":
        counts["matcore.expm2_calls"] += 1
        counts["matcore.expm2_matrices"] += np.asarray(args[0]).size // 4
    elif key in _LAX_BUILDERS:
        counts["lax.matrices"] += result.size // 4
    elif key == "transition.propagate":
        counts["transition.magnus_steps"] += result.step_count
        counts["transition.propagate_ns"] += dur
    elif key == "transition.propagate_trajectory":
        counts["transition.magnus_steps"] += result[0].size - 1
        counts["transition.propagate_ns"] += dur
    elif key in ("charges.charges_infinity", "charges.charges_zero"):
        counts["charges.ledger_calls"] += 1
    elif key == "rmatrix.transition_bracket_check":
        counts["rmatrix.sites"] += _arg(args, kwargs, 5, "n_sites")
    elif key == "rmatrix.involution_check":
        counts["rmatrix.sites"] += _arg(args, kwargs, 3, "n_sites")
    elif key == "rmatrix.lax_derivatives":
        counts["rmatrix.lax_derivatives_calls"] += 1
    elif key == "suites.run_suite":
        counts["suites.cases"] += len(result.cases)
    elif key in ("report.Report.write_csv", "report.Report.write_json"):
        counts["report.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    if key in _CONFIG_LOADERS and parent_key not in _CONFIG_LOADERS:
        counts["cli.config_ns"] += dur


class Tracer:
    """Span stack plus per-layer self time, layer entries and work counters."""

    def __init__(self):
        self._stack = []  # frames [key, layer, child_ns]
        self._wrappers = {}  # id(original) -> wrapper
        self._patched = []  # (owner, name, original attribute) to restore
        # metric counters plus "<layer>.self_ns", "<layer>.calls" and
        # "self_ns:<key>" for each wrapped function
        self.counts = Counter()

    @property
    def wrapped(self) -> int:
        """Number of distinct functions wrapped so far."""
        return len(self._wrappers)

    def snapshot(self) -> Counter:
        return Counter(self.counts)

    def _wrap(self, fn, layer, key):
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns
        self_key = layer + ".self_ns"
        calls_key = layer + ".calls"
        key_self = "self_ns:" + key

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                own = dur - frame[2]
                counts[self_key] += own
                counts[key_self] += own
                if parent is not None:
                    parent[2] += dur
            if parent is None or parent[1] != layer:
                counts[calls_key] += 1
            _count_call(counts, key, parent[0] if parent else None, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _wrapper_for(self, fn, key):
        layer = fn.__module__.split(".", 1)[1]
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self._wrap(fn, layer, key)
        return self._wrappers[id(fn)]

    def _patch(self, owner, name, original, replacement):
        self._patched.append((owner, name, original))
        setattr(owner, name, replacement)

    def _patch_class(self, cls, layer):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(raw):
                self._patch(cls, name, raw, self._wrapper_for(raw, key))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, name, raw, type(raw)(self._wrapper_for(raw.__func__, key)))

    def install(self, modules):
        """Wrap the public callables of the given sgdual modules."""
        for module in modules:
            for obj in list(vars(module).values()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__ and not issubclass(obj, BaseException):
                    self._patch_class(obj, module.__name__.split(".", 1)[1])
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith("sgdual.") or getattr(obj, "__wrapped__", None) is not None:
                    continue
                key = f"{owner.split('.', 1)[1]}.{obj.__name__}"
                self._patch(module, name, obj, self._wrapper_for(obj, key))

    def uninstall(self):
        """Put back every original attribute that ``install`` replaced."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def tracing(self, modules):
        """Wrappers installed for the body; yields the counter delta it adds."""
        before = self.snapshot()
        delta = Counter()
        self.install(modules)
        try:
            yield delta
        finally:
            self.uninstall()
            delta.update(self.counts)
            delta.subtract(before)


def layer_metrics(delta: Counter) -> dict:
    """Per-layer metric values for one traced pass from a counter delta."""
    sec = 1e-9
    steps = delta["transition.magnus_steps"]
    mats = delta["matcore.expm2_matrices"]
    return {
        "transition.calls": delta["transition.calls"],
        "transition.magnus_steps": steps,
        "transition.self_s": delta["transition.self_ns"] * sec,
        "transition.ns_per_step": delta["transition.propagate_ns"] / steps if steps else 0.0,
        "matcore.expm2_calls": delta["matcore.expm2_calls"],
        "matcore.expm2_matrices": mats,
        "matcore.self_s": delta["matcore.self_ns"] * sec,
        "matcore.ns_per_matrix": delta["self_ns:matcore.expm2"] / mats if mats else 0.0,
        "lax.calls": delta["lax.calls"],
        "lax.matrices": delta["lax.matrices"],
        "lax.self_s": delta["lax.self_ns"] * sec,
        "fields.eval_calls": delta["fields.eval_calls"],
        "fields.eval_points": delta["fields.eval_points"],
        "fields.quad_calls": delta["fields.quad_calls"],
        "fields.quad_points": delta["fields.quad_points"],
        "fields.self_s": delta["fields.self_ns"] * sec,
        "charges.ledger_calls": delta["charges.ledger_calls"],
        "charges.self_s": delta["charges.self_ns"] * sec,
        "rmatrix.calls": delta["rmatrix.calls"],
        "rmatrix.sites": delta["rmatrix.sites"],
        "rmatrix.lax_derivatives_calls": delta["rmatrix.lax_derivatives_calls"],
        "rmatrix.self_s": delta["rmatrix.self_ns"] * sec,
        "defect.calls": delta["defect.calls"],
        "defect.self_s": delta["defect.self_ns"] * sec,
        "suites.cases": delta["suites.cases"],
        "suites.self_s": delta["suites.self_ns"] * sec,
        "report.bytes": delta["report.bytes"],
        "report.self_s": delta["report.self_ns"] * sec,
        "cli.config_s": delta["cli.config_ns"] * sec,
    }
