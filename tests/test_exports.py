"""Every name a penwave module exports in ``__all__`` resolves on that module, and
every name it imports is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import penwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(penwave.__path__))
SRC = Path(penwave.__file__).parent


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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in ``__all__`` is read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_plain_from_and_exported_names():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from dataclasses import dataclass, field as f\nfrom .x import y\n"
              "__all__ = ['y']\n\n@dataclass\nclass A:\n    n: int = os.path.sep\n")
    assert _unused_imports(source) == ["line 2: math", "line 4: f"]
