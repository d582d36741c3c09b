"""Every name a stoflow module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import stoflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(stoflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"stoflow.{name}")
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
