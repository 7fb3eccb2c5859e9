"""Every module the package imports is either in the standard library,
part of propcf, or a runtime dependency declared in pyproject.toml, the
CLI starts without importing numpy, and the input checks and the
expansion step live in exactreal alone."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "propcf"


def _declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group()
        names.add(name.lower().replace("-", "_"))
    return names


def _imported_roots(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_imports_are_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | {"propcf"} | _declared()
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    stray = [f"{path.name}:{line} imports {name}"
             for path in modules
             for line, name in _imported_roots(path)
             if name.lower() not in allowed]
    assert stray == []


def test_cli_import_leaves_numpy_unloaded():
    # numpy is most of the cold start; only growth fits and Monte Carlo load it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, propcf.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_input_checks_live_in_exactreal_alone():
    # exactreal's _exact, _unit and _at_least are the only input checks,
    # and only exactreal itself sees the unchecked _coerce
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exactreal.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name == "_coerce" for alias in node.names):
                stray.append(f"{path.name}:{node.lineno} imports _coerce")
            elif isinstance(node, ast.Attribute) and node.attr == "_coerce":
                stray.append(f"{path.name}:{node.lineno} reads _coerce")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in ("_exact", "_unit", "_at_least"):
                stray.append(f"{path.name}:{node.lineno} defines {node.name}")
    assert stray == []


def test_expansion_step_has_one_body():
    # the step's floor and remainder come from exactreal's _digit and its
    # bare-int kernel _qdigit alone: no other module may define either or
    # split a quotient with divmod
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in ("_digit", "_qdigit"):
                found.append((path.name, f"defines {node.name}"))
            elif isinstance(node, ast.Name) and node.id == "divmod":
                found.append((path.name, "calls divmod"))
    assert sorted(found) == [("exactreal.py", "calls divmod"),
                             ("exactreal.py", "defines _digit"),
                             ("exactreal.py", "defines _qdigit")]
