"""The one exit path: only ``cli.run`` freezes the garbage collector, and the ``keyrace``
script and ``python -m keyrace`` both run it, so ``cli.main`` stays safe to call in
process."""

import ast
from pathlib import Path

import pytest

import keyrace

_PACKAGE = Path(keyrace.__file__).parent


def _freeze_sites() -> list[tuple[str, tuple[str, ...]]]:
    """``(module, enclosing class and function names)`` of every ``gc.freeze`` and
    ``from gc import freeze`` in keyrace."""
    sites = []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "freeze"
                and isinstance(node.value, ast.Name) and node.value.id == "gc"):
            sites.append((module, scope))
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            sites.extend((module, scope) for alias in node.names if alias.name == "freeze")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(_PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


def test_only_run_freezes_the_collector():
    assert _freeze_sites() == [("cli", ("run",))]


def _main_module_call() -> str:
    """``keyrace.cli:<name>`` of the one function ``__main__`` imports from ``.cli`` and calls."""
    tree = ast.parse((_PACKAGE / "__main__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module == "cli" and node.level == 1
                for alias in node.names}
    calls = [node.value.func.id for node in tree.body
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Name)]
    assert len(calls) == 1 and calls[0] in imported, (calls, imported)
    return f"keyrace.cli:{imported[calls[0]]}"


def test_the_script_runs_what_python_m_runs():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = _PACKAGE.parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"keyrace": _main_module_call()} == {"keyrace": "keyrace.cli:run"}
