"""Every module the package imports is either in the standard library,
part of propcf, or a runtime dependency declared in pyproject.toml, only
the Monte Carlo imports numpy and no CLI command loads it, every module
parses as Python 3.10,
the input checks and the expansion step live in exactreal alone, the
four order comparisons share one body, so does the sign of q*u - p,
which the one-constructor margin reads,
only the floor, the step and the two square-root routines take integer
square roots, only cli's ``_csv_text`` writes CSV, the classification
sweeps call no public per-row function, and the witness check reads
neither the walk over remainders nor the divisor criterion."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from propcf.exactreal import ExactReal

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


def _with_src() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_numpy_unloaded():
    # numpy is most of the cold start; only the Monte Carlo loads it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, propcf.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=_with_src(), check=True)
    assert proc.stdout.strip() == "False"


def test_growth_commands_leave_numpy_unloaded():
    # the trend slope is fitted in the standard library
    script = ("import sys\n"
              "from propcf import cli\n"
              "codes = [cli.main([name, '--n', '50'])"
              " for name in ('simulate', 'growth')]\n"
              "print(codes, 'numpy' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_with_src(), check=True)
    assert proc.stderr.strip() == "[0, 0] False"


def test_numpy_is_imported_by_the_monte_carlo_alone():
    importers = set()

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        elif (isinstance(node, ast.Import) and any(
                alias.name.partition(".")[0] == "numpy"
                for alias in node.names)) or (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").partition(".")[0] == "numpy"):
            importers.add((path.name, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, ())
    assert importers == {("gauss2d.py", "cylinder_area_monte_carlo")}


def test_modules_parse_as_python_3_10():
    # pyproject.toml promises Python 3.10; the suite itself runs on newer
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_input_checks_live_in_exactreal_alone():
    # exactreal's _exact, _unit, _tail and _at_least are the only input
    # checks, each defined once, and only exactreal itself sees the
    # unchecked _coerce
    checks = ("_exact", "_unit", "_tail", "_at_least")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in checks:
                found.append((path.name, f"defines {node.name}"))
            elif path.name == "exactreal.py":
                continue
            elif isinstance(node, ast.ImportFrom) and any(
                    alias.name == "_coerce" for alias in node.names):
                found.append((path.name, "imports _coerce"))
            elif isinstance(node, ast.Attribute) and node.attr == "_coerce":
                found.append((path.name, "reads _coerce"))
    assert sorted(found) == sorted(("exactreal.py", f"defines {name}")
                                   for name in checks)


def test_expansion_step_has_one_body():
    """The step's floor and remainder come from exactreal's _digit and its
    bare-int kernel _qdigit alone: no other module may define either or
    split a quotient with divmod.

    The tree of ``pcf.enumerate_rational_expansions`` steps through
    ``_qdigit`` too: it is memoised over (t, s, remaining length), so the
    step runs once per distinct reduced remainder (639 times for 18/19,
    against 43,403 nodes), and an inline copy would buy nothing."""
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


def test_order_comparisons_share_one_body():
    codes = {ExactReal.__dict__[name].__code__
             for name in ("__lt__", "__le__", "__gt__", "__ge__")}
    assert len(codes) == 1


def test_shift_sign_is_the_affine_sign():
    """``_shift_sign(u, n)`` is ``_affine_sign(u, 1, n)`` and has no body of
    its own: one sign of q*u - p serves comparisons with an int and the
    witness cylinder test."""
    tree = ast.parse((PACKAGE / "exactreal.py").read_text())
    shift = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "_shift_sign")
    body = [node for node in shift.body
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant))]
    assert len(body) == 1 and isinstance(body[0], ast.Return)
    call = body[0].value
    assert isinstance(call, ast.Call)
    assert getattr(call.func, "id", None) == "_affine_sign"


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / module).read_text())
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == name)


def test_margin_is_one_constructor_on_the_affine_sign():
    """``_margin(u, q, p)`` reads the sign of q*u - p from ``_affine_sign``
    and builds u - |q*u - p| with one constructor per type, and
    ``approximation_margins`` calls it per row instead of chaining
    operators on exact values."""
    calls = [getattr(node.func, "id", None)
             for node in ast.walk(_function("exactreal.py", "_margin"))
             if isinstance(node, ast.Call)]
    assert calls.count("_affine_sign") == 1
    assert sorted(c for c in calls if c in ("Rational", "Surd")) == [
        "Rational", "Surd"]
    margins = _function("candidates.py", "approximation_margins")
    names = {node.id for node in ast.walk(margins)
             if isinstance(node, ast.Name)}
    assert "_margin" in names and "abs" not in names


def test_exact_text_has_one_body_per_type():
    """``Rational.__str__`` and ``Surd.__str__`` are one call each of
    ``_rational_text`` and ``_surd_text``, and ``cli.cmd_expand`` prints its
    reduced and margin cells through those bodies, from decimals in its
    exact context, with no margin list of its own."""
    tree = ast.parse((PACKAGE / "exactreal.py").read_text())
    for cls, body in (("Rational", "_rational_text"), ("Surd", "_surd_text")):
        node = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
        method = next(node for node in node.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "__str__")
        assert [getattr(node.func, "id", None) for node in ast.walk(method)
                if isinstance(node, ast.Call)] == [body]
    names = {node.id for node in ast.walk(_function("cli.py", "cmd_expand"))
             if isinstance(node, ast.Name)}
    assert {"_rational_text", "_affine_text", "_margin", "localcontext",
            "_EXACT"} <= names
    assert "approximation_margins" not in names


def test_witness_check_reads_no_walk_and_no_criterion():
    """``RealizationWitness.verify`` and its private body decide a witness
    by its cylinder, so neither names the walk over the remainders, the
    expansion step, the divisor criterion or its floor memo: a printed
    witness stays checked apart from the rule that built it."""
    tree = ast.parse((PACKAGE / "candidates.py").read_text())
    witness = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                   and node.name == "RealizationWitness")
    methods = {node.name: node for node in witness.body
               if isinstance(node, ast.FunctionDef)}
    named = {}
    for name in ("verify", "_verify"):
        named[name] = {node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(methods[name])
                       if isinstance(node, (ast.Name, ast.Attribute))}
    assert "_verify" in named["verify"]
    forbidden = {"_remainders", "_digit", "_fires", "_Floors"}
    assert (named["verify"] | named["_verify"]) & forbidden == set()


def _isqrt_callers(tree) -> set[str]:
    """Qualified names of the functions that call isqrt in a module."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "isqrt"
                or getattr(node.func, "attr", None) == "isqrt"):
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_integer_square_roots_have_four_callers():
    # one floor, the fused step, the radicand decomposition and the float
    # conversion of a surd: every other floor goes through floor_times
    found = {(path.name, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for name in _isqrt_callers(
                 ast.parse(path.read_text(), filename=str(path)))}
    assert found == {("exactreal.py", "floor_times"),
                     ("exactreal.py", "_digit"),
                     ("exactreal.py", "_squarefree_decompose"),
                     ("exactreal.py", "Surd.__float__")}


def test_oracle_never_reads_the_criterion():
    """``realizable_as_q2_oracle`` is the reference for the divisor
    criterion, so neither it nor any candidates function it calls, however
    deep, may name the criterion's body, its floor memo, its witness or the
    cutoff built on it."""
    tree = ast.parse((PACKAGE / "candidates.py").read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    criterion = {"_fires", "_Floors", "_q2_witness", "_cutoff"}
    seen, todo, named = set(), ["realizable_as_q2_oracle"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = {node.id for node in ast.walk(bodies[name])
                 if isinstance(node, ast.Name)}
        named |= names
        todo.extend((names & bodies.keys()) - criterion)
    assert "_forced_prefix" in seen
    assert named & criterion == set()


def test_sweeps_read_their_memos():
    """A sweep decides every row from its floor memos through the private
    bodies, so none of the three names a public per-row function (each of
    which checks its input and builds fresh memos)."""
    tree = ast.parse((PACKAGE / "candidates.py").read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef)}
    per_row = {"is_candidate", "candidate_p_for_q", "candidate_q_for_p",
               "realize_odd", "realizable_as_q2", "q2_cutoff_check"}
    for sweep in ("sweep_rows", "sweep_q_rows", "cutoff_margin_survey"):
        names = {node.id for node in ast.walk(bodies[sweep])
                 if isinstance(node, ast.Name)}
        assert "_Floors" in names, sweep
        assert names & per_row == set(), sweep


def test_csv_has_one_writer():
    """Only cli imports csv, and only ``cli._csv_text`` calls
    ``csv.writer``: every CSV table, on stdout or in an --out file, has
    one body."""
    imports, callers = [], set()

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Import) and any(
                alias.name.partition(".")[0] == "csv" for alias in node.names):
            imports.append((path.name, "import csv"))
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            imports.append((path.name, "from csv import"))
        elif (isinstance(node, ast.Attribute) and node.attr == "writer"
                and getattr(node.value, "id", None) == "csv"):
            callers.add((path.name, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, ())
    assert imports == [("cli.py", "import csv")]
    assert callers == {("cli.py", "_csv_text")}


def test_rational_coordinates_walk_in_blocks():
    """An orbit walks a rational x, and reads a rational y's digits,
    through ``exactreal._qwalk``: ``orbit`` and ``_classical_digits`` each
    call it and neither names ``_qdigit``, so a rational coordinate has one
    walk."""
    for name in ("orbit", "_classical_digits"):
        function = _function("gauss2d.py", name)
        calls = [getattr(node.func, "id", None)
                 for node in ast.walk(function) if isinstance(node, ast.Call)]
        names = {node.id for node in ast.walk(function)
                 if isinstance(node, ast.Name)}
        assert calls.count("_qwalk") == 1 and "_qdigit" not in names
