"""The package needs numpy alone at run time: scipy and hypothesis are test tools."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
