"""The one fork site: only ``sampler._Children`` forks, pipes, exits, kills and reaps
processes, and only ``sampler._workers`` asks whether the platform can fork."""

import ast
from pathlib import Path

import keyrace

_PROCESS_CALLS = {"fork", "pipe", "_exit", "kill", "waitpid"}


def _is_os(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "os"


def _sites() -> list[tuple[str, tuple[str, ...], str]]:
    """``(module, enclosing class and function names, what)`` of every ``os.<process
    call>``, ``hasattr(os, ...)`` and ``from os import <process call>`` in keyrace."""
    sites = []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and _is_os(node.value) and node.attr in _PROCESS_CALLS:
            sites.append((module, scope, f"os.{node.attr}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "hasattr" and node.args and _is_os(node.args[0])):
            sites.append((module, scope, "hasattr(os)"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            sites.extend((module, scope, f"from os import {alias.name}")
                         for alias in node.names if alias.name in _PROCESS_CALLS)
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(keyrace.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


def test_only_children_fork_and_only_workers_ask_whether_the_platform_can():
    sites = _sites()
    # every one of them is there to be found, so the walk sees the fork site
    assert {what for *_, what in sites} == {f"os.{c}" for c in _PROCESS_CALLS} | {"hasattr(os)"}
    for module, scope, what in sites:
        if what == "hasattr(os)":
            assert (module, scope) == ("sampler", ("_workers",)), what
        else:
            assert (module, scope[:1]) == ("sampler", ("_Children",)), (module, scope, what)
