"""Every exported name resolves: a deleted function or type must leave no
dangling entry in the package's or a module's ``__all__``.  Every public
function or class a module defines is in its ``__all__``, and the package
re-exports each name as its defining module's own object.  The package and
its CLI import without scipy, which only the tests and the benchmark need."""

from __future__ import annotations

import importlib
import inspect
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


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_every_public_definition_is_exported(module):
    defined = [
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []


def _defining_module(name, obj):
    if inspect.isfunction(obj) or inspect.isclass(obj):
        return sys.modules[obj.__module__]
    (home,) = [m for m in MODULES[1:] if name in getattr(m, "__all__", ())]
    return home


def test_package_names_are_their_defining_modules_objects():
    names = [name for name in stabrenyi.__all__ if name != "__version__"]
    homes = {name: _defining_module(name, getattr(stabrenyi, name)) for name in names}
    assert [n for n in names if n not in homes[n].__all__] == []
    assert [n for n in names if getattr(homes[n], n) is not getattr(stabrenyi, n)] == []


def test_readout_dressed_purity_is_exported():
    # the benchmark's noise-fit refusal check calls it from the package
    assert stabrenyi.readout_dressed_purity is stabrenyi.noise.readout_dressed_purity


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
