import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # one short pass of every workload in both modes: a change to src/ that makes a pass raise or fail a check fails here
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selftest.py")], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selftest passed")
