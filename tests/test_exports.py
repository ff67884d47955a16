"""Every exported name resolves: a deleted function or type must leave no
dangling entry in the package's or a module's ``__all__``.  The package and
its CLI import without scipy, which only the tests and the benchmark need."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stabrenyi

MODULES = [stabrenyi] + [
    importlib.import_module(f"stabrenyi.{info.name}")
    for info in pkgutil.iter_modules(stabrenyi.__path__)
]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_import_leaves_scipy_unloaded():
    package_root = str(Path(stabrenyi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, *filter(None, [env.get("PYTHONPATH")])]
    )
    code = "import sys, stabrenyi, stabrenyi.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_no_source_file_imports_scipy():
    sources = sorted(Path(stabrenyi.__file__).resolve().parent.rglob("*.py"))
    assert sources
    texts = {path.name: path.read_text(encoding="utf-8") for path in sources}
    offenders = [
        name for name, text in texts.items()
        if "import scipy" in text or "from scipy" in text
    ]
    assert offenders == []
