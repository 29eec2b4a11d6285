"""The package's public names: what ``adpbound`` re-exports each module lists."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import adpbound

MODULES = [
    importlib.import_module(f"adpbound.{info.name}")
    for info in pkgutil.iter_modules(adpbound.__path__)
]


def test_reexported_names_are_in_their_modules_all():
    tree = ast.parse(Path(adpbound.__file__).read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"adpbound.{node.module}")
            listed = getattr(module, "__all__", None)
            if listed is not None:
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert unlisted == []


def test_every_all_entry_exists():
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert MODULES and missing == []
