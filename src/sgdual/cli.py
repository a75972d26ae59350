"""Batch driver: load a scenario config, run suites, write reports.

    sgdual run --config scenario.json --out reports/ --format csv --jobs 2
    sgdual list-suites

Exit codes: 0 all cases pass, 1 at least one case fails, 2 unusable config, output directory or report file.
A suite that raises on a usable config (no vacuum at the window edge, more
than ``transition.MAX_STEPS`` Magnus steps, more than ``fields.MAX_POINTS``
grid or probe points) reports one failing ``error`` case.
The JSON schema is strict: a key that would change nothing is rejected, which
catches misspelled tolerance names before they silently disable a gate.
``solution`` takes only the keys its kind reads: vacuum {kind, sigma},
defect_pair {kind, sigma, x0}, kink {kind, v, x0, orientation, sigma}.
Loading builds the solution (``suites.solution``; sigma defaults to 2) and the
geometry record: a solution its constructors refuse (|v| >= 1, an orientation
other than +-1, sigma <= 0, or a sigma whose Backlund pair fails) exits 2.
``spectral`` takes exactly one of ``lambda_list`` and ``sweep``, naming 1 to
10000 nonzero values no two of which share a case label (``suites.lambda_label``,
which names cases and metadata keys); ``suites`` names at least one suite and
each at most once, ``--jobs`` is at least 1 and ``--format`` is csv or json.
``numerics`` takes ``half_width`` and ``tolerances``; step and grid counts
follow from the solution.
Every numeric value must be a finite JSON number: tolerances are at least 0
and a sweep ``count`` is an integer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fields import ModelParams
from .suites import DEFAULT_TOLERANCES, DESCRIPTIONS, SUITES, Geometry, Solution, geometry, lambda_label, run_suite, solution

__all__ = ["ScenarioConfig", "ConfigError", "main", "run"]

SCHEMA_VERSION = 1

# the keys each solution kind reads; a key its kind would ignore is refused
_SOLUTION_KEYS = {
    "vacuum": {"kind", "sigma"},
    "defect_pair": {"kind", "sigma", "x0"},
    "kink": {"kind", "v", "x0", "orientation", "sigma"},
}
_NUMERIC_KEYS = {"half_width", "tolerances"}
_TOP_KEYS = {"schema", "model", "solution", "spectral", "numerics", "suites"}
_MAX_LAMBDAS = 10_000  # lambda values in a list or a sweep; each one costs several monodromies per suite
_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    pass


def _require_keys(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")


def _number(value, what, minimum=None, maximum=None, integer=False):
    """A finite JSON number (an integer if asked) in [minimum, maximum]; ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)  # JSON integers may be too large for a float
    except OverflowError:
        raise ConfigError(f"{what} must be finite, got an integer of {len(str(value))} digits") from None
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    if integer and number != int(number):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value!r}")
    if maximum is not None and number > maximum:
        raise ConfigError(f"{what} must be <= {maximum}, got {value!r}")
    return int(number) if integer else number


class ScenarioConfig(NamedTuple):
    params: ModelParams
    solution: Solution
    lambdas: list
    geometry: Geometry
    tolerances: dict
    suites: list
    ledgers: dict  # the charge ledgers built on the config, keyed by (field, picture, fixed, window); filled by the suites

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        _require_keys(data, _TOP_KEYS, "config")
        if data.get("schema") != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema {data.get('schema')!r}; expected {SCHEMA_VERSION}")
        model = data.get("model", {})
        _require_keys(model, {"m", "beta"}, "model")
        try:
            params = ModelParams(*(_number(model.get(k, 1.0), f"model.{k}") for k in ("m", "beta")))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        keys = data.get("solution", {"kind": "vacuum"})
        _require_keys(keys, set().union(*_SOLUTION_KEYS.values()), "solution")
        kind = keys.get("kind")
        if not isinstance(kind, str) or kind not in _SOLUTION_KEYS:
            raise ConfigError(f"solution kind must be vacuum|kink|defect_pair, got {kind!r}")
        _require_keys(keys, _SOLUTION_KEYS[kind], f"a {kind} solution")
        keys = {k: value if k == "kind" else _number(value, f"solution.{k}", integer=k == "orientation") for k, value in keys.items()}
        if kind == "kink" and "v" not in keys:
            raise ConfigError("kink solution needs a velocity v")
        if kind == "defect_pair" and "sigma" not in keys:
            raise ConfigError("defect_pair needs sigma > 0")
        try:  # the field and pair constructors are the one validator of the solution
            built = solution(params, keys)
        except ValueError as exc:
            raise ConfigError(f"cannot build the {kind} solution: {exc}") from exc
        spectral = data.get("spectral", {"lambda_list": [0.5, 1.0, 2.0, 4.0]})
        _require_keys(spectral, {"lambda_list", "sweep"}, "spectral")
        if len(spectral) != 1:
            raise ConfigError("spectral needs exactly one of lambda_list and sweep")
        if "lambda_list" in spectral:
            if not isinstance(spectral["lambda_list"], list):
                raise ConfigError("spectral.lambda_list must be a list")
            lambdas = spectral["lambda_list"]
            if len(lambdas) > _MAX_LAMBDAS:
                raise ConfigError(f"spectral.lambda_list names {len(lambdas)} values; the cap is {_MAX_LAMBDAS}")
            lambdas = [_number(l, "spectral.lambda_list entry") for l in lambdas]
        else:
            sweep = spectral["sweep"]
            _require_keys(sweep, {"min", "max", "count"}, "spectral.sweep")
            bounds = [_number(sweep.get(k), f"spectral.sweep.{k}") for k in ("min", "max")]
            count = _number(sweep.get("count"), "spectral.sweep.count", minimum=1, maximum=_MAX_LAMBDAS, integer=True)
            lambdas = list(np.linspace(*bounds, count))
        if not lambdas or any(l == 0.0 for l in lambdas):
            raise ConfigError("spectral values must be nonzero")
        if shared := [label for label, n in Counter(map(lambda_label, lambdas)).items() if n > 1]:
            raise ConfigError(f"spectral values must have distinct case labels; {shared} name more than one")
        numerics = data.get("numerics", {})
        _require_keys(numerics, _NUMERIC_KEYS, "numerics")
        half_width = _number(numerics.get("half_width", 30.0), "numerics.half_width")
        if half_width <= 0:
            raise ConfigError("half_width must be positive")
        tolerances = numerics.get("tolerances", {})
        _require_keys(tolerances, set(DEFAULT_TOLERANCES), "numerics.tolerances")
        tolerances = {k: _number(v, f"tolerance {k}", minimum=0.0) for k, v in tolerances.items()}
        suites = data.get("suites", sorted(SUITES))
        if not isinstance(suites, list) or not all(isinstance(s, str) for s in suites):
            raise ConfigError("suites must be a list of suite names")
        bad = [s for s in suites if s not in SUITES]
        if bad:
            raise ConfigError(f"unknown suites {bad}; available: {sorted(SUITES)}")
        if not suites:
            raise ConfigError("suites must name at least one suite")
        if len(set(suites)) != len(suites):
            raise ConfigError(f"suites lists a suite twice: {suites}")
        return cls(params, built, lambdas, geometry(half_width), tolerances, list(suites), {})

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


def run(config_path, out_dir, fmt: str = "csv", jobs: int = 1) -> int:
    """Execute the configured suites and write one report file per suite.

    fmt is csv or json and jobs is at least 1; anything else exits 2 before the output directory is made.
    """
    try:
        if jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {jobs}")
        if fmt not in _FORMATS:
            raise ConfigError(f"format must be csv or json, got {fmt!r}")
        config = ScenarioConfig.load(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # out_dir is a file, or lies under one
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    names = sorted(config.suites)
    workers = min(jobs, len(names), os.cpu_count() or 1)
    suite = partial(run_suite, config=config)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so that a serial run never imports multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(suite, names))
    else:
        reports = [suite(n) for n in names]
    exit_code = 0
    for name, report in zip(names, reports):
        path = out / f"{name}.{fmt}"
        try:
            if fmt == "csv":
                report.write_csv(path)
            else:
                report.write_json(path)
        except OSError as exc:  # the report path is a directory, or not writable
            print(f"output error: {exc}", file=sys.stderr)
            return 2
        status = "skip" if not report.cases else "pass" if report.passed else "FAIL"
        print(f"[{status}] {name}: {len(report.cases)} cases -> {path}")
        for case in report.failing():
            detail = f"; {json.loads(case.inputs)['error']}" if case.case == "error" else ""
            print(f"    failing case {case.case}: gap={case.gap:.3e} tolerance={case.tolerance:.3e}{detail}")
            exit_code = 1
    return exit_code


def list_suites() -> str:
    lines = []
    for name in sorted(SUITES):
        lines.append(f"{name:24s} {DESCRIPTIONS[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sgdual", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run verification suites from a JSON config")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", required=True)
    runp.add_argument("--format", choices=_FORMATS, default="csv")
    runp.add_argument("--jobs", type=int, default=1)
    sub.add_parser("list-suites", help="print the suite catalogue")
    args = parser.parse_args(argv)
    if args.command == "list-suites":
        print(list_suites())
        return 0
    return run(args.config, args.out, args.format, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
