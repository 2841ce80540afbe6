"""The one exit mapping: only ``cli.main`` turns an exception into the exit code of a parse
or domain error, so no command maps its own errors, and every command maps them alike."""

import ast
from pathlib import Path

import keyrace

_MAPPED = {"EXIT_PARSE", "EXIT_DOMAIN"}


def _reads() -> list[tuple[str, tuple[str, ...], str]]:
    """``(module, enclosing class and function names, name)`` of every read of a mapped
    exit code in keyrace, as a bare name or as an attribute."""
    reads = []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Name) and node.id in _MAPPED and isinstance(node.ctx, ast.Load):
            reads.append((module, scope, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in _MAPPED:
            reads.append((module, scope, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(keyrace.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return reads


def test_only_main_maps_an_error_to_the_parse_and_domain_exit_codes():
    reads = _reads()
    # each code is read somewhere, so the walk sees the mapping
    assert {name for *_, name in reads} == _MAPPED
    for module, scope, name in reads:
        assert (module, scope) == ("cli", ("main",)), (module, scope, name)
