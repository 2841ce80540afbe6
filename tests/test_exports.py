"""Every exported name resolves, in the package and in each of its modules,
and every module-level import is used."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import keyrace

_MODULES = sorted(m.name for m in pkgutil.iter_modules(keyrace.__path__)
                  if not m.name.startswith("_"))

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _wrapped_by_perfbench() -> set[tuple[str, str]]:
    """Every ``(module, name)`` of a ``tracer.wrap(<module>, "<name>", ...)`` in perfbench.

    Its traced runs replace ``keyrace.<module>.<name>`` with a span, so each
    must exist, and an import kept only for that is not an unused one.
    """
    wrapped = set()
    for path in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "wrap" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "tracer"):
                module, name = node.args[:2]
                wrapped.add((module.id, name.value))
    return wrapped


def test_perfbench_wraps_names_that_exist():
    wrapped = _wrapped_by_perfbench()
    assert wrapped, "no tracer.wrap call found under perfbench/"
    missing = [(module, name) for module, name in sorted(wrapped)
               if not hasattr(importlib.import_module(f"keyrace.{module}"), name)]
    assert missing == []


@pytest.mark.parametrize("module", ["keyrace"] + [f"keyrace.{m}" for m in _MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [name for name in exported if not hasattr(mod, name)] == []


@pytest.mark.parametrize("path", sorted(pathlib.Path(keyrace.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = {name for module, name in _wrapped_by_perfbench() if module == path.stem}
    assert sorted(imported - used - exported - kept) == []
