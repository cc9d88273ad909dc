"""No code in the package recurses.

The generator searches write their nodes as generators and leave them to
`solvers.run_nodes`, and the committee walk keeps its frames on a list, so
no search is as deep on the call stack as its instance is large.  The check
reads each module's call graph by name: a function that reaches itself
through any chain of calls, a pair of helpers calling each other included,
fails it.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import proprep

SOURCE = Path(proprep.__file__).parent
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def called_name(call: ast.Call):
    """The name a call reaches: a plain name, or a method of self or cls."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr if func.value.id in ("self", "cls") else None
    return None


def on_cycles(graph: dict[str, set[str]]) -> list[str]:
    """The names that reach themselves in `graph`, a call graph by name."""
    cyclic = []
    for name in sorted(graph):
        seen, todo = set(), list(graph[name])
        while todo and name not in seen:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo.extend(graph.get(callee, ()))
        if name in seen:
            cyclic.append(name)
    return cyclic


def test_nothing_recurses():
    graphs: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
    for where, name, call in calls_by_function():
        called = called_name(call)
        if called is not None:
            graphs[where.split(":")[0]][name].add(called)
    recursive = []
    for module, graph in sorted(graphs.items()):
        cyclic = on_cycles(graph)
        if cyclic:
            recursive.append(f"{module}: {', '.join(cyclic)}")
    assert recursive == []


def test_a_pair_calling_each_other_is_a_cycle():
    graph = {
        "again": {"again"},
        "main": {"again", "ping"},
        "ping": {"pong"},
        "pong": {"ping", "leaf"},
    }
    assert on_cycles(graph) == ["again", "ping", "pong"]


def test_only_run_nodes_advances_a_search_node():
    senders = [
        f"{where} {name}"
        for where, name, call in calls_by_function()
        if isinstance(call.func, ast.Attribute)
        and call.func.attr == "send"
        and name != "run_nodes"
    ]
    assert senders == []
