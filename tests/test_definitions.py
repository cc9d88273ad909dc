"""Every definition in the package is used by the package or exported."""

from __future__ import annotations

import ast
from pathlib import Path

import proprep

SOURCE = Path(proprep.__file__).parent


def test_every_definition_is_referenced_or_exported():
    # A def or class that nothing in the package names, and that the
    # package does not export, is code that only tests or nobody call.
    defined, referenced = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unused = [
        f"{where} {name}"
        for name, where in defined
        if name not in referenced
        and name not in proprep.__all__
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []


def test_every_export_exists_once():
    # A stale or repeated entry would break `from proprep import *` or hide
    # a name that was meant to go.
    missing = [name for name in proprep.__all__ if not hasattr(proprep, name)]
    assert missing == []
    assert len(set(proprep.__all__)) == len(proprep.__all__)
