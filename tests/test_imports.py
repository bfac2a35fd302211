"""Import hygiene of the package, by plain ``ast`` walks, so no linter
is needed.

* A name bound by a top-level ``import`` or ``from ... import`` must be
  read somewhere in its module, or be listed in ``__all__``.
* No function imports: every dependency shows at the top of its module.
* The package's ``from .x import`` graph has no cycle, so the layers
  import in one direction only.
"""

import ast
from pathlib import Path

import pytest

import logistic_horizon

MODULES = sorted(Path(logistic_horizon.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def imports_in_functions(source: str) -> list[str]:
    tree = ast.parse(source)
    return [
        f"line {node.lineno}: in {func.name}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def package_graph(paths) -> dict[str, set[str]]:
    """Module name -> the package modules it imports from, wherever the
    import stands."""
    graph = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {
            node.module or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import path that returns to where it started, or []."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name) :] + [name]
        if name in done:
            return []
        path.append(name)
        for dep in sorted(graph.get(name, ())):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return []

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return []


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import numpy.linalg\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n"
        "    return numpy.linalg.norm(d)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 2: system", "line 4: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checkers_flag_function_imports_and_cycles():
    source = (
        "import os\n"
        "def f():\n"
        "    from math import comb\n"
        "    def g():\n"
        "        import sys\n"
    )
    assert imports_in_functions(source) == ["line 3: in f", "line 5: in f", "line 5: in g"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert imports_in_functions(path.read_text(encoding="utf-8")) == []


def test_package_imports_form_no_cycle():
    assert find_cycle(package_graph(MODULES)) == []
