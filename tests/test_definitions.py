"""Every definition in the package is used by the package or exported."""

from __future__ import annotations

import ast
from pathlib import Path

import proprep

SOURCE = Path(proprep.__file__).parent


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced_or_exported():
    # A def or class that nothing in the package names, and that the
    # package does not export, is code that only tests or nobody call.  A
    # method or property of class C counts as used only through an
    # attribute of its name in a module that names C or imports from C's
    # module, so a test-only member is caught even where unrelated code
    # reads an attribute of the same name.  (Counting only modules that
    # name C would flag live members read off a returned value, such as
    # `cli`'s `report.ok`, so importing from C's module counts too.)
    defined, referenced, members = [], set(), []
    named, attributes = {}, {}  # per module: names it uses, attributes it reads
    for path in sorted(SOURCE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        owner = {
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        named[module], attributes[module] = {module}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{path.name}:{node.lineno}"
                if isinstance(node, ast.ClassDef) or id(node) not in owner:
                    defined.append((node.name, where))
                else:
                    members.append((module, owner[id(node)], node.name, where))
                if isinstance(node, ast.ClassDef):
                    named[module].add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
                named[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                named[module].add(node.attr)
                attributes[module].add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
                named[module].add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                named[module].add(node.module)
    unused = [
        f"{where} {name}"
        for name, where in defined
        if name not in referenced and name not in proprep.__all__ and not dunder(name)
    ]
    unused += [
        f"{where} {cls}.{name}"
        for home, cls, name, where in members
        if not dunder(name)
        and not any(
            name in attributes[module] and {cls, home} & named[module]
            for module in named
        )
    ]
    assert unused == []


def test_every_export_exists_once():
    # A stale or repeated entry would break `from proprep import *` or hide
    # a name that was meant to go.
    missing = [name for name in proprep.__all__ if not hasattr(proprep, name)]
    assert missing == []
    assert len(set(proprep.__all__)) == len(proprep.__all__)
