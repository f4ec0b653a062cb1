"""Every name a penwave module exports in ``__all__`` resolves on that module and is
read by the package or its benchmark, as is every field and property of an exported
class, every name it imports is used, and the package's commands run on numpy alone."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
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


def _defined(source: str) -> set[str]:
    """Names a module defines at its top level: functions, classes and assignment targets.
    An imported name is not defined there."""
    tree = ast.parse(source)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_exported_names_are_defined_in_their_own_module(path):
    module = importlib.import_module(f"penwave.{path.stem}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if n not in _defined(path.read_text())] == []


def test_definition_scan_skips_imports():
    source = ("from .solver import Trajectory\nimport numpy as np\n__all__ = ['f', 'C', 'X']\n"
              "def f():\n    y = 1\nclass C:\n    pass\nX, (Y, Z) = 1, (2, 3)\nW: int = 4\n")
    assert _defined(source) == {"__all__", "f", "C", "X", "Y", "Z", "W"}


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


# read by the tests only, each against an independent computation
UNREAD_MEMBERS_BY_DESIGN = {
    # the per-row sides behind slack and headroom, checked against rows_Lp
    "analysis.EnergySlackReport.lhs", "analysis.EnergySlackReport.rhs",
    # the transformed q0's lower-order terms, checked against the direct pushforward
    "nullform.BilinearCoeffs.b", "nullform.BilinearCoeffs.c",
}


def _members(cls) -> list[str]:
    """The dataclass fields and the properties a class defines."""
    fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    return fields + [name for name, value in vars(cls).items() if isinstance(value, property)]


def _attribute_reads(source: str) -> set[str]:
    """Attribute names a module loads; an assigned attribute is not read."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_member_of_an_exported_class_is_read():
    reads = set().union(*(_attribute_reads(path.read_text())
                          for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]))
    unread = []
    for name in MODULES:
        module = importlib.import_module(f"penwave.{name}")
        for export in getattr(module, "__all__", ()):
            cls = getattr(module, export)
            if isinstance(cls, type):
                unread += [f"{name}.{export}.{m}" for m in _members(cls) if m not in reads]
    assert [member for member in unread if member not in UNREAD_MEMBERS_BY_DESIGN] == []


def test_member_scan_sees_fields_and_properties_and_skips_stores():
    @dataclasses.dataclass
    class C:
        a: int
        b: int = 0

        @property
        def p(self):
            return self.a

    assert _members(C) == ["a", "b", "p"]
    assert _attribute_reads("x.a = 1\ny = x.p\nz = x.q.r\n") == {"p", "q", "r"}


def test_read_scan_skips_definitions_and_the_export_list():
    source = ("__all__ = ['f', 'g', 'C']\ndef f():\n    return 1\n\ndef g():\n    f()\n\n"
              "class C:\n    pass\nh = C\nx.y = 2\n")
    assert _reads(source) == {"f", "C", "x", "y"}


# a short run, its certificates and pushforward, the boundary curve and three
# CLI commands, then the scipy modules the interpreter has loaded
RUNTIME_SCRIPT = """
import sys
from penwave import analysis, cli, geometry, solver
traj = solver.run(solver.SolverConfig(data=solver.DataSpec(center=1.5, width=0.25),
                                      dr=2e-2, cfl=0.45, t_max=8.0, r_max=14.0))
analysis.decay_certificate(traj)
analysis.weighted_norm_report(solver.transform_to_cylinder(traj, solver.CylinderGrid(20, 60)))
obs = geometry.ObstacleSpec(0.2)
geometry.boundary_curve(obs, 1.0)
geometry.boundary_curve_slope(obs, 1.0)
out = sys.argv[1]
with open(out + "/rows.csv", "w") as fh:
    fh.write("1.0,2.0\\n")
codes = [cli.main(["transform", "--input", out + "/rows.csv", "--out", out]),
         cli.main(["check-null", "--builtin", "q0"]),
         cli.main(["verify", "--check", "boundary-geometry"])]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_penwave_commands_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", RUNTIME_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"
