"""Every name a ``dlbeam`` module exports through ``__all__`` exists, so a
deleted or renamed function cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import dlbeam

MODULES = sorted(m.name for m in pkgutil.iter_modules(dlbeam.__path__,
                                                      "dlbeam."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
