"""Integer arguments are checked in one place, ``errors.require_int``.

A plain ``ast`` walk, as in ``test_imports.py``: no module of the
package may spell out ``isinstance(..., bool)`` outside the helper.
A refusal names an int too long for ``repr`` by its sign and size.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import logistic_horizon
from logistic_horizon import (
    DomainError,
    GenSpec,
    LogisticHorizonError,
    LogisticParams,
    RiccatiParams,
    benchmark_estimators,
    build_poly,
    characteristic_level,
    eulerian_row,
    eval_poly,
    get_fixture,
    higher_order_estimate,
    level_crossing_time,
    normal_icdf,
    nth_central_diff,
    polyfit_estimate,
    riccati_nth_derivative,
)
from logistic_horizon.errors import require_int
from logistic_horizon.eulerian import eulerian_explicit

MODULES = sorted(Path(logistic_horizon.__file__).parent.glob("*.py"))
GERMANY = get_fixture("mobile-germany").series
PARAMS = LogisticParams(1.0, 1.0, 1.0)
SPEC = GenSpec(PARAMS, 9)


def _is_bool_check(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
    )


def bool_checks(source: str) -> list[int]:
    tree = ast.parse(source)
    helper = {
        id(node)
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name == "require_int"
        for node in ast.walk(func)
    }
    return sorted(n.lineno for n in ast.walk(tree) if id(n) not in helper and _is_bool_check(n))


def test_checker_flags_bool_checks_outside_the_helper():
    source = (
        "def require_int(v):\n"
        "    return isinstance(v, bool)\n"
        "def f(n):\n"
        "    return isinstance(n, (int, bool)) or isinstance(n, int)\n"
        "ok = isinstance(1, bool)\n"
    )
    assert bool_checks(source) == [4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_inline_integer_checks(path):
    assert bool_checks(path.read_text(encoding="utf-8")) == []


def test_require_int_accepts_only_ints_at_or_above_the_bound():
    require_int(3, "n", 3)
    require_int(-7, "seed")
    for bad in (True, np.int64(4), 4.0, "4", None):
        with pytest.raises(DomainError, match=r"^n must be an integer >= 3, got "):
            require_int(bad, "n", 3)
    with pytest.raises(DomainError, match=r"^n must be an integer >= 3, got 2$"):
        require_int(2, "n", 3)
    with pytest.raises(DomainError, match=r"^seed must be an integer, got False$"):
        require_int(False, "seed")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: eulerian_row(np.int64(2)), "row index must be an integer >= 0"),
        (lambda: eulerian_explicit(-1, 0), "n must be an integer >= 0"),
        (lambda: characteristic_level(np.int64(3)), "derivative order must be an integer >= 2"),
        (lambda: nth_central_diff(GERMANY, 2.0), "difference order must be an integer >= 2"),
        (lambda: higher_order_estimate(GERMANY, True), "derivative order must be an integer >= 3"),
        (lambda: polyfit_estimate(GERMANY, np.int64(6)), "degree must be an integer >= 4"),
        (lambda: GenSpec(PARAMS, n_points=np.int64(9)), "n_points must be an integer >= 3"),
        (lambda: GenSpec(PARAMS, n_points=9, seed=1.0), "seed must be an integer"),
        (lambda: benchmark_estimators([SPEC], [True]), "truncation must be an integer >= 1"),
    ],
)
def test_every_site_uses_the_helper(call, message):
    with pytest.raises(DomainError, match=f"^{message}, got "):
        call()



HUGE = 10**5000  # past Python's limit of 4300 digits for repr of an int
RICCATI = RiccatiParams(1.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: require_int(-HUGE, "n", 3), "n must be an integer >= 3, got a negative int of 16610 bits"),
        (lambda: GenSpec(PARAMS, n_points=-HUGE), "n_points must be an integer >= 3, got a negative int of 16610 bits"),
        (lambda: GenSpec(PARAMS, 9, t_step=HUGE), "t_step must be positive and finite, got an int of 16610 bits"),
        (lambda: LogisticParams(1, 1, HUGE), "c must be positive and finite, got an int of 16610 bits"),
        (lambda: RiccatiParams(-HUGE, 0, 1), "r must be nonzero and finite, got a negative int of 16610 bits"),
        (lambda: eulerian_explicit(3, HUGE), "k must satisfy 0 <= k <= n, got k=an int of 16610 bits for n=3"),
        (lambda: polyfit_estimate(GERMANY, HUGE + 1), "degree must be an even integer >= 4, got an int of 16610 bits"),
        (lambda: level_crossing_time(PARAMS, HUGE), "level must lie strictly between 0 and u_max=1.0, got an int of 16610 bits"),
        (lambda: normal_icdf(-HUGE), "p must lie strictly inside (0, 1), got a negative int of 16610 bits"),
        (lambda: eval_poly(build_poly(3), HUGE), "P_4(an int of 16610 bits) is out of float range: "),
        (lambda: riccati_nth_derivative(RICCATI, 3, HUGE), "derivative of order 3 at u=an int of 16610 bits is out of float range: "),
        (lambda: characteristic_level(HUGE), "derivative order an int of 16610 bits exceeds the construction cap 25"),
        (lambda: polyfit_estimate(GERMANY, HUGE), "need more points than the degree: 18 points for degree an int of 16610 bits"),
        (lambda: nth_central_diff(GERMANY, HUGE), "series too short: need at least an int of 16610 bits points, got 18"),
        (lambda: benchmark_estimators([SPEC], [HUGE]), "truncation an int of 16610 bits must lie in [1, n_points=9]"),
    ],
    ids=[
        "require_int", "n_points", "t_step", "LogisticParams", "RiccatiParams", "k", "odd degree", "level", "p",
        "eval_poly", "riccati", "order cap", "even degree", "stencil", "truncation",
    ],
)
def test_a_refusal_shows_an_int_too_long_for_repr(call, message):
    with pytest.raises(LogisticHorizonError, match=f"^{re.escape(message)}"):
        call()
