"""Import structure of the package and of the demos, read with ``ast``."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "prolate"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _sibling_imports(node: ast.ImportFrom) -> set[str]:
    """Package modules named by a relative ``from`` import."""
    if node.level != 1:
        return set()
    if node.module is not None:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names if alias.name in MODULES}


def _imports(module: str) -> set[str]:
    tree = _tree(PACKAGE / f"{module}.py")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= _sibling_imports(node)
    return found


def test_no_import_cycle():
    graph = {m: _imports(m) for m in MODULES}
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            cycle = path[path.index(module):] + [module]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, path + [module])
        done.add(module)

    for module in MODULES:
        visit(module, [])


@pytest.mark.parametrize("module", MODULES)
def test_no_function_local_sibling_import(module):
    tree = _tree(PACKAGE / f"{module}.py")
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                assert not _sibling_imports(node), (module, fn.name, node.lineno)


def test_bounds_is_closed_form():
    assert not _imports("bounds") & {"spectrum", "verification", "cli"}


DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(demo):
    for node in ast.walk(_tree(demo)):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("prolate"):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), (demo.name, node.module, alias.name)


def test_cli_import_leaves_out_scipy_fft():
    # numpy.fft does the package's transforms; importing scipy.fft would add
    # tens of milliseconds and a few MiB to every start-up
    code = "import sys, prolate.cli; print('scipy.fft' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
