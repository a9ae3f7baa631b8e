"""Every name a ``semarm`` module exports exists, and is listed once."""

import importlib
import pkgutil

import pytest

import semarm

MODULES = sorted(info.name for info in pkgutil.iter_modules(semarm.__path__))


def test_every_module_is_found():
    assert {"cli", "extract", "graph", "quality", "transact"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist_once(name):
    module = importlib.import_module(f"semarm.{name}")
    exported = getattr(module, "__all__", [])
    assert all(isinstance(entry, str) for entry in exported)
    assert len(set(exported)) == len(exported), f"semarm.{name}.__all__ repeats a name"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == [], f"semarm.{name}.__all__ names what it does not define"
