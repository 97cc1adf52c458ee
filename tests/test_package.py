"""The public surface: every exported name resolves."""

import importlib

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

