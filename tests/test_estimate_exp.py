"""nlls takes libm's exp, and nothing brings back numpy's real SIMD exp.

A plain ``ast`` walk over ``estimate.py``: every ``np.exp`` call must
take an ``.astype(complex)`` argument.  Complex exp with a zero
imaginary part is libm's exp bit for bit (see ``test_kernels.py``); the
real one differs in the last bit on a few percent of inputs, which
moves nlls fits.
"""

import ast
from pathlib import Path

import logistic_horizon

ESTIMATE = Path(logistic_horizon.__file__).parent / "estimate.py"


def _is_complex_cast(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "astype"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "complex"
    )


def real_exp_calls(source: str) -> list[int]:
    """Line of every np.exp or numpy.exp call whose argument is not cast to complex."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "exp"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and not (node.args and _is_complex_cast(node.args[0]))
    ]


def test_checker_flags_every_real_exp():
    source = (
        "a = np.exp((-c * t).astype(complex)).real\n"
        "b = np.exp(-c * t)\n"
        "c = numpy.exp(x.astype(float))\n"
        "d = math.exp(x) + np.exp(x.astype(complex), out=y)\n"
        "e = [np.exp(v) for v in x]\n"
    )
    assert real_exp_calls(source) == [2, 3, 5]


def test_estimate_calls_exp_only_on_complex_arguments():
    assert real_exp_calls(ESTIMATE.read_text(encoding="utf-8")) == []
