"""Public surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import logdamp

MODULES = ["logdamp"] + [f"logdamp.{m.name}"
                         for m in pkgutil.iter_modules(logdamp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
