"""The one digest site: only ``cli._CsvReader`` hands ``CodedTable`` its names' digests.

``_prepare`` takes a table's ``_digests`` as they are, unchecked, so a
caller that passes them decides the race's uniforms.  The CSV reader
digests each name from the bytes it read it from, and the read-table
property checks those digests; no other caller may pass them.
"""

import ast
from pathlib import Path

import keyrace


def _sites() -> list[tuple[str, tuple[str, ...]]]:
    """``(module, enclosing class and function names)`` of every call in keyrace that
    passes the keyword ``_digests``."""
    sites = []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and any(k.arg == "_digests" for k in node.keywords):
            sites.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(keyrace.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


def test_only_the_csv_reader_passes_digests_to_a_table():
    assert _sites() == [("cli", ("_CsvReader", "table"))]
