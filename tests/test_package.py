"""The package needs numpy alone at run time: scipy and hypothesis are test tools.
Its column tables all follow ``records.Table``'s one rule, and each of its
top-level functions and classes has a caller outside the tests."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import firescene
from firescene.records import Table

SRC = Path(__file__).resolve().parents[1] / "src"

_IMPORT_ALL = """
import importlib, pkgutil, sys
sys.modules["scipy"] = sys.modules["hypothesis"] = None  # any import of them fails
import firescene
for m in pkgutil.walk_packages(firescene.__path__, "firescene."):
    importlib.import_module(m.name)
    print(m.name)
"""


def test_every_module_imports_without_scipy_or_hypothesis():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    modules = {
        ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for p in (SRC / "firescene").rglob("*.py")
    }
    assert set(out.stdout.split()) == modules - {"firescene"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_table_is_a_frozen_dataclass_of_its_row_fields():
    for m in pkgutil.walk_packages(firescene.__path__, "firescene."):
        importlib.import_module(m.name)
    tables = [cls for cls in _subclasses(Table) if cls.__module__.startswith("firescene.")]
    assert {cls.__name__ for cls in tables} >= {"HotspotTable", "KeypointTable"}
    for cls in tables:
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls
        # A dataclass-generated __eq__ would compare arrays and raise.
        assert cls.__eq__ is Table.__eq__, cls
        assert [f.name for f in dataclasses.fields(cls)] == [f.name for f in dataclasses.fields(cls.row)], cls


def _uses(node: ast.AST) -> set[str]:
    """Names that ``node`` reads: bare names and attribute names, not imports or strings."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_top_level_definition_has_a_caller_in_the_package_or_the_benchmark():
    """A top-level function or class that only tests reach is surface no caller needs.

    A use inside the definition itself (recursion) or an import (a re-export
    or ``__all__``) does not count as a caller; a use anywhere else in
    ``src/`` or ``bench/`` does.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    used, defined = set(), []
    for path in sorted([*SRC.rglob("*.py"), *(SRC.parent / "bench").rglob("*.py")]):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, defs) and path.is_relative_to(SRC):
                defined.append((str(path.relative_to(SRC)), stmt.name))
            used |= _uses(stmt) - {getattr(stmt, "name", None)}
    dead = [f"{module}: {name}" for module, name in defined if name not in used]
    assert not dead, dead
