"""No code in the package recurses as deep as an instance is large.

The generator searches write their nodes as generators and leave them to
`solvers.run_nodes`, which keeps the open ones on a list; only the committee
walk's two extenders call themselves, k levels deep.
"""

from __future__ import annotations

import ast
from pathlib import Path

import proprep

SOURCE = Path(proprep.__file__).parent
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)
BOUNDED = {"extend_minimax", "extend_sum"}  # depth k


def own_calls(scope: ast.AST):
    """The calls in a scope's body, not those of the functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Call):
            yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def calls_by_function():
    """(where, function name, call) for every call in the package."""
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.Module, *SCOPES)):
                name = getattr(scope, "name", "<module>")
                for call in own_calls(scope):
                    yield f"{path.name}:{call.lineno}", name, call


def test_only_the_committee_walk_calls_itself():
    recursive = []
    for where, name, call in calls_by_function():
        func = call.func
        if isinstance(func, ast.Name):
            called = func.id
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            called = func.attr if func.value.id in ("self", "cls") else None
        else:
            called = None
        if called == name and name not in BOUNDED:
            recursive.append(f"{where} {name}")
    assert recursive == []


def test_only_run_nodes_advances_a_search_node():
    senders = [
        f"{where} {name}"
        for where, name, call in calls_by_function()
        if isinstance(call.func, ast.Attribute)
        and call.func.attr == "send"
        and name != "run_nodes"
    ]
    assert senders == []
