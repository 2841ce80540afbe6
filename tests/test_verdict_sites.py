"""The one verdict rule: only ``validation._verdict`` and ``validation._repeated`` ask a
test report whether it rejects, so every statistical criterion passes or fails by the same
rule, and a new criterion cannot write its own."""

import ast
from pathlib import Path

import keyrace

_HELPERS = {("validation", ("_verdict",)), ("validation", ("_repeated",))}


def _calls() -> list[tuple[str, tuple[str, ...]]]:
    """``(module, enclosing class and function names)`` of every ``.reject_at(`` call in
    keyrace."""
    calls = []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reject_at"):
            calls.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(keyrace.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return calls


def test_only_the_verdict_helpers_ask_whether_a_test_rejects():
    # each helper asks once, and no other function asks at all
    assert sorted(_calls()) == sorted(_HELPERS)
