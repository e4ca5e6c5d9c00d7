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


# the package's start-up imports no scipy module: numpy does the transforms
# and builds the dense matrix, and spectrum's LAPACK forwarders import
# scipy.linalg on the first solve, so commands that solve nothing skip the
# half of the start-up that importing it costs. Nor do they start a thread or
# load the thread pool's module. A width count goes in rounds at every N, and
# with two CPUs in the affinity mask (which the child process inherits) a
# round solves its second order on the worker thread, so the width command
# here starts it exactly then; with one CPU both run on the calling thread.
# (concurrent.futures itself comes with scipy.linalg on numpy 2, through
# numpy.testing.)
_WORKER = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) >= 2
_START_UP = """
import contextlib, io, sys, threading
code = 0
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    import prolate
    if sys.argv[1:]:
        from prolate.cli import main
        code = main(sys.argv[1:])
print(code, 'scipy' in {m.split('.')[0] for m in sys.modules}, 'scipy.linalg' in sys.modules,
      threading.active_count(), 'concurrent.futures.thread' in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], "0 False False 1 False"),
        (["--help"], "0 False False 1 False"),
        (["width", "--n", "-3", "--w", "0.2"], "2 False False 1 False"),
        (["bounds", "--n", "1000", "--w", "0.125", "--eps", "1e-3", "--k", "250", "--K", "250"],
         "0 False False 1 False"),
        (["eigs", "--n", "256", "--w", "0.2", "--method", "dense", "--krange", "40:60"],
         "0 False False 1 False"),
        # the first solve loads scipy.linalg through the forwarders
        (["width", "--n", "64", "--w", "0.2", "--eps", "1e-3"],
         f"0 True True {1 + _WORKER} {_WORKER}"),
    ],
    ids=["import", "help", "usage-error", "bounds", "dense-eigs", "width"],
)
def test_start_up_leaves_out_scipy(argv, expected):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP, *argv], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected + "\n", "")


def test_width_search_reaches_the_spectrum_only_through_its_probe():
    # the width search is a function of its probe: it names no LAPACK call,
    # solver, thread helper or numpy, so it runs against a fake probe as it
    # does against the eigensolves
    tree = _tree(PACKAGE / "spectrum.py")
    (search,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_search_runs"
    ]  # fmt: skip
    named = {node.id for node in ast.walk(search) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(search) if isinstance(node, ast.Attribute)}
    forbidden = {"dstebz", "dstein", "_stebz", "_block_eigenvectors", "_solve_probes"}
    forbidden |= {"_worker", "_concurrent", "np"}
    assert not named & forbidden, named & forbidden
    assert "probe" in {arg.arg for arg in search.args.args}
