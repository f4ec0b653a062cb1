"""Every name a penwave module exports in ``__all__`` resolves on that module and is
read by the package or its benchmark, and every name it imports is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import penwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(penwave.__path__))
SRC = Path(penwave.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"

# exported for the tests as an independent oracle of the null classifiers
UNREAD_BY_DESIGN = {"nullform.cone_sample_oracle"}


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


def _reads(source: str) -> set[str]:
    """Names a module reads: loaded bare names and attribute names.  A definition, an
    assignment target and an ``__all__`` string are not reads."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_exported_name_is_read():
    reads = set().union(*(_reads(path.read_text())
                          for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]))
    unread = [f"{name}.{n}" for name in MODULES
              for n in getattr(importlib.import_module(f"penwave.{name}"), "__all__", ())
              if n not in reads and f"{name}.{n}" not in UNREAD_BY_DESIGN]
    assert unread == []


def test_read_scan_skips_definitions_and_the_export_list():
    source = ("__all__ = ['f', 'g', 'C']\ndef f():\n    return 1\n\ndef g():\n    f()\n\n"
              "class C:\n    pass\nh = C\nx.y = 2\n")
    assert _reads(source) == {"f", "C", "x", "y"}
