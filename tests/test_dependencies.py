"""The package imports only the standard library and its declared runtime dependencies."""

import ast
import importlib
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
    modules = sorted(path.stem for path in (ROOT / "src" / "sgdual").glob("*.py") if path.stem != "__init__")
    code = (
        "import importlib, sys, sgdual\n"
        "assert 'scipy' not in sys.modules, 'import sgdual'\n"
        f"for name in {modules!r}: importlib.import_module('sgdual.' + name)\n"
        "assert 'dataclasses' not in sys.modules, 'import of every sgdual module'\n"
        "from sgdual import cli\n"
        f"assert cli.run({str(ROOT / 'demos' / 'scenario_kink.json')!r}, {str(tmp_path)!r}) == 0\n"
        "assert 'scipy' not in sys.modules, 'cli.run'\n"
        "assert 'multiprocessing' not in sys.modules, 'cli.run with one job'\n"
        "assert 'dataclasses' not in sys.modules, 'cli.run'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _sibling_imports(node):
    """The sgdual modules a relative import names: x for `from .x import y`, x and y for `from . import x, y`."""
    if not isinstance(node, ast.ImportFrom) or node.level == 0:
        return []
    return [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]


def test_sgdual_imports_sit_at_module_level_without_a_cycle():
    graph, nested = {}, []
    for path in sorted((ROOT / "src" / "sgdual").glob("*.py")):
        tree = ast.parse(path.read_text())
        graph[path.stem] = {target for node in tree.body for target in _sibling_imports(node)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(func) if _sibling_imports(node)]
    # a function-level import of a sibling hides a dependency, usually one that would close a cycle
    assert nested == []
    state = {}  # module -> "open" while on the DFS stack, "done" after

    def visit(module, trail):
        state[module] = "open"
        for target in sorted(graph.get(module, ())):
            assert state.get(target) != "open", " -> ".join(trail + [target])
            if target not in state:
                visit(target, trail + [target])
        state[module] = "done"

    for module in sorted(graph):
        if module not in state:
            visit(module, [module])


@pytest.mark.parametrize("name", sorted(path.stem for path in (ROOT / "src" / "sgdual").glob("*.py")))
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks `from module import *`
    module = importlib.import_module("sgdual" if name == "__init__" else f"sgdual.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
