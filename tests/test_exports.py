"""Every name a module exports through ``__all__`` resolves, and importing
the modules stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_modules_import_neither_concurrent_futures_nor_logging():
    # Each costs milliseconds of every process's start; the sampler's
    # workers are plain threads.
    script = ("import sys\n"
              + "".join(f"import {name}\n" for name in MODULES)
              + "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(vixsmile.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
