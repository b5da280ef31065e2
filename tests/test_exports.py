"""Every exported name resolves: qslora.__all__ and each submodule's
__all__ list only attributes that exist, so deleting a function without
its export fails here rather than at a user's import."""

import importlib
import pkgutil

import pytest

import qslora

MODULES = ["qslora"] + [
    f"qslora.{info.name}" for info in pkgutil.iter_modules(qslora.__path__)
]
EXPORTS = [
    (module, name)
    for module in MODULES
    for name in importlib.import_module(module).__all__
]


@pytest.mark.parametrize("module,name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
