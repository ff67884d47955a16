"""Every exported name resolves: a deleted function or type must leave no
dangling entry in the package's or a module's ``__all__``."""

from __future__ import annotations

import importlib
import pkgutil

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
