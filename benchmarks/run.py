#!/usr/bin/env python3
"""sgdual benchmark: time to a verified report, with accuracy digits.

    python3 benchmarks/run.py --workload scenario-kink --seed 0 --seconds 50 --trace 0

Workloads: scenario-kink, lambda-sweep (see README.md in
this directory).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run from anywhere: the checkout
is the parent of this directory, and sgdual is imported from its ``src/``.
Exit code 2 means the checkout lacks the program or its demo configs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/sgdual/__init__.py", "demos/scenario_kink.json")
WORKDIR = ".bench_work"
# BLAS and OpenMP pools pinned to one thread: the single-threaded baseline
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("scenario-kink", "lambda-sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces the demo configs exactly")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: this checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness  # numpy is imported here, after the thread variables are set

    workdir = ROOT / WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, detail = harness.run(ROOT, workdir, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / WORKDIR).rmdir()
        except OSError:
            pass  # another run still uses it
    print("machine " + json.dumps(harness.machine_facts(THREAD_VARS), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:<22.10g} {metric['unit']}")
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
