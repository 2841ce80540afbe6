"""Every exported name resolves, in the package and in each of its modules,
every module-level import is used, and ``sample`` imports only its own path."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

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


# modules that only update, validate and bench use
_NOT_ON_THE_SAMPLE_PATH = {"keyrace.validation", "keyrace.dynamic", "keyrace.stats",
                           "keyrace.baselines"}


def test_sample_imports_only_its_path(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ID,QUAL,Strength\ng1,a,1.0\ng1,b,2.0\ng2,a,3.0\n", encoding="utf-8")
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "keyrace", "sample",
                             str(path)], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"keyrace.cli", "keyrace.sampler", "numpy"} <= imported
    assert sorted(imported & _NOT_ON_THE_SAMPLE_PATH) == []


def test_import_keyrace_loads_the_core_only():
    code = "import sys, keyrace; print(*sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert {"keyrace.families", "keyrace.sampler", "numpy"} <= loaded
    assert sorted(loaded & _NOT_ON_THE_SAMPLE_PATH) == []


def test_lazy_names_resolve_to_their_modules_and_are_listed():
    assert set(keyrace.__all__) <= set(dir(keyrace))
    for name, module in keyrace._LAZY.items():
        assert name in keyrace.__all__
        assert getattr(keyrace, name) is getattr(importlib.import_module(f"keyrace.{module}"),
                                                 name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        keyrace.no_such_name
