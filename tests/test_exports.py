"""Every name a ``semarm`` module exports exists, is listed once, and is used
by the library itself unless it is allow-listed here with a reason."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import semarm

MODULES = sorted(info.name for info in pkgutil.iter_modules(semarm.__path__))

# Exported names that no code in src/semarm uses, each with why it stays.
UNUSED_EXPORTS = {
    "quality.REPORT_SCHEMA": "the published JSON schema of report.json",
    "quality.annotate_rules": "perfbench/tracing.py wraps it by name until the stage log lands",
    "quality.report_to_doc": "perfbench/tracing.py wraps it by name until the stage log lands",
    "graph.validate_schema": "the planned graph.schema_violations counter calls it (ROADMAP item 2)",
}


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


def _references(module: str, tree: ast.Module, exported: list[str]):
    """("module.name", top-level definition it sits in) for every reference in
    ``tree`` to an exported name: bare, through ``from .m import name``, or as
    ``m.name`` after ``from . import m``."""
    names, modules = {name: f"{module}.{name}" for name in exported}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module:
                    names[bound] = f"{node.module}.{alias.name}"
                else:
                    modules[bound] = alias.name
    for top in tree.body:
        inside = f"{module}.{getattr(top, 'name', '')}"
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
                yield names[node.id], inside
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                yield f"{modules[node.value.id]}.{node.attr}", inside


def test_every_export_is_used_in_src_or_allow_listed():
    exports = {name: getattr(importlib.import_module(f"semarm.{name}"), "__all__", [])
               for name in MODULES}
    used = set()
    for name in MODULES:
        tree = ast.parse(Path(semarm.__path__[0], f"{name}.py").read_text(encoding="utf-8"))
        used |= {ref for ref, inside in _references(name, tree, exports[name]) if ref != inside}
    unused = {f"{m}.{n}" for m, names in exports.items() for n in names} - used
    assert unused - UNUSED_EXPORTS.keys() == set(), "exported, but no code in src/semarm uses it"
    assert UNUSED_EXPORTS.keys() - unused == set(), "allow-listed, but src/semarm uses it"
