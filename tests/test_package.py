"""The public surface: every exported name resolves, and the package
imports without a third-party numeric library."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "module", ["wsrpt", "wsrpt.oracle", "wsrpt.adversary", "wsrpt.fuzz", "wsrpt.render"]
)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    namespace = {}
    exec(f"from {module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mod.__all__)


def test_import_loads_no_scipy_or_numpy():
    # A fresh interpreter, which finds the same package as this one.
    import wsrpt

    env = dict(os.environ, PYTHONPATH=str(Path(wsrpt.__file__).parents[1]))
    code = "import sys, wsrpt; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
