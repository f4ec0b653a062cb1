"""Every name a penwave module exports in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import pytest

import penwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(penwave.__path__))


def test_the_package_modules_declare_their_exports():
    declared = [name for name in MODULES
                if hasattr(importlib.import_module(f"penwave.{name}"), "__all__")]
    assert {"analysis", "compat", "cylinder", "geometry", "nullform", "solver"} <= set(declared)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"penwave.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
