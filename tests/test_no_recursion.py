"""No function in the package reaches itself through calls.

Every layer keeps explicit stacks so that inputs of any depth stay within
Python's recursion limit.  This test holds that line statically: it parses
each module of src/gramweave with ast, builds the module's call graph by
name, and fails on any function that can call itself, directly or through
other functions of the same module.

By name means: a call `f(...)` or `x.f(...)` is an edge to every function
or method named f defined in that module, whatever x is; `super().f(...)`
calls are ignored, since they reach a base class.  The graph over-
approximates calls within a module and sees none across modules.  Code
that Python generates is not covered: the `==`, `repr` and `hash` of
dataclasses recurse on nested values.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gramweave"


def call_graph(source: str) -> dict:
    """{function name: names it calls}, for the functions defined in source.

    A nested function's calls count for the functions around it too."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    defined = {f.name for f in functions}
    graph = {name: set() for name in defined}
    for function in functions:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                base = func.value
                if isinstance(base, ast.Call) and isinstance(base.func, ast.Name) \
                        and base.func.id == "super":
                    continue
                name = func.attr
            else:
                continue
            if name in defined:
                graph[function.name].add(name)
    return graph


def self_reaching(graph: dict) -> list:
    """The functions from which a path of calls leads back to themselves."""
    out = []
    for start in sorted(graph):
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                out.append(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
    return out


def test_the_guard_sees_recursion():
    source = '''
def direct(n):
    return direct(n - 1)

def ping(n):
    return pong(n)

def pong(n):
    return ping(n)

class Node:
    def walk(self):
        for child in self.children:
            child.walk()

    def __init__(self):
        super().__init__()

def outer():
    def rec(i):
        return rec(i + 1)
    return rec(0)

def loop(n):
    while n:
        n -= 1
'''
    assert self_reaching(call_graph(source)) == ["direct", "ping", "pong", "rec", "walk"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_reaches_itself(path):
    assert self_reaching(call_graph(path.read_text(encoding="utf-8"))) == []
