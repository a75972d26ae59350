#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (not a benchmark run).

    python3 benchmarks/selftest.py

Runs every workload on the default seed with ``--seconds 0`` (one short pass
per config) in both modes and asserts that:
- every end-to-end and per-layer metric named in BENCHMARK.json is printed
  with its unit, and nothing else is;
- ``fail_share`` is 0 on the default seed;
- each workload's traced self-times sum to no more than its traced wall time.
It also copies only BENCHMARK.json and this directory into a scratch
checkout and asserts that the benchmark refuses to run there.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _line(stdout, tag):
    return json.loads(next(l for l in stdout.splitlines() if l.startswith(tag + " "))[len(tag) + 1:])


def check_workload(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ"
        detail = _line(proc.stdout, "detail")
        assert detail["fail_share"] == 0.0 and result["correct"], f"{workload}: {detail['failures']}"
        if trace:
            assert detail["traced_self_s_sum"] <= detail["traced_wall_s_sum"], detail
        print(f"ok  {workload:16s} trace={trace}  {result['attempted']} checks")


def check_refuses_without_program():
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, scratch / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(scratch, "scenario-kink", 0)
        assert proc.returncode != 0, "ran without the program"
        assert '"metrics"' not in proc.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(scratch)
    print("ok  refuses to run without src/ and demos/")


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    check_refuses_without_program()
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_workload(workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
