"""The package imports only the standard library and its declared runtime dependencies."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.split(r"[<>=!~\[;\s]", dep, maxsplit=1)[0] for dep in project["dependencies"]}


def _imported():
    names = set()
    for path in sorted((ROOT / "src" / "sgdual").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_non_stdlib_imports_are_the_declared_runtime_dependencies():
    assert _imported() - set(sys.stdlib_module_names) == _declared()


def test_import_and_a_kink_run_leave_scipy_unloaded(tmp_path):
    code = (
        "import sys, sgdual\n"
        "assert 'scipy' not in sys.modules, 'import sgdual'\n"
        "from sgdual import cli\n"
        f"assert cli.run({str(ROOT / 'demos' / 'scenario_kink.json')!r}, {str(tmp_path)!r}) == 0\n"
        "assert 'scipy' not in sys.modules, 'cli.run'\n"
        "assert 'multiprocessing' not in sys.modules, 'cli.run with one job'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
