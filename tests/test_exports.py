"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import vixsmile

MODULES = ["vixsmile"] + [
    f"vixsmile.{info.name}" for info in pkgutil.iter_modules(vixsmile.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
