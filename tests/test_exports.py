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

# imported only so that perfbench's traced runs can wrap them with spans:
# run.py wraps sampler.generate_order_key and probe.py wraps cli.merge_winner_maps
_KEPT_FOR_WRAPPING = {("sampler", "generate_order_key"), ("cli", "merge_winner_maps")}


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
    kept = {name for module, name in _KEPT_FOR_WRAPPING if module == path.stem}
    assert sorted(imported - used - exported - kept) == []
