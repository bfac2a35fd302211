"""A TimeSeries or DiffSeries holds one array, and nothing builds a tuple copy of it.

A plain ``ast`` walk over ``series.py``: a ``.tolist()`` call may appear
only where a tuple is the output, in ``TimeSeries.values`` and
``DiffSeries.values`` (each built when it is read) and in
``_ambiguity`` (the rival pairs), and in ``cumulate``, which hands its
prefix sums to ``TimeSeries`` as a list for ``struct`` to pack; the
list is dropped once the new series holds its array.
"""

import ast
from pathlib import Path

import logistic_horizon

SERIES = Path(logistic_horizon.__file__).parent / "series.py"
ALLOWED = {"TimeSeries.values", "DiffSeries.values", "_ambiguity", "cumulate"}


def tolist_calls(source: str) -> list[str]:
    """Every .tolist() call, as "line N in QUALNAME" of the enclosing def."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "tolist"
            ):
                found.append(f"line {child.lineno} in {'.'.join(scope) or '<module>'}")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_checker_names_the_enclosing_definition():
    source = (
        "x = a.tolist()\n"
        "class C:\n"
        "    @property\n"
        "    def v(self):\n"
        "        return tuple(self.a.tolist())\n"
        "def f(a):\n"
        "    return [b.tolist() for b in a], a.to_list()\n"
    )
    assert tolist_calls(source) == ["line 1 in <module>", "line 5 in C.v", "line 7 in f"]


def test_series_converts_to_lists_only_for_tuple_outputs():
    calls = tolist_calls(SERIES.read_text(encoding="utf-8"))
    assert [c for c in calls if c.split(" in ")[1] not in ALLOWED] == []
