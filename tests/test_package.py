"""The package needs numpy alone at run time: scipy and hypothesis are test tools.
Its column tables all follow ``records.Table``'s one rule."""

from __future__ import annotations

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
