"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import keyrace

_MODULES = sorted(m.name for m in pkgutil.iter_modules(keyrace.__path__)
                  if not m.name.startswith("_"))


@pytest.mark.parametrize("module", ["keyrace"] + [f"keyrace.{m}" for m in _MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [name for name in exported if not hasattr(mod, name)] == []
