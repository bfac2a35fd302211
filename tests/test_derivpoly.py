"""Derivative polynomials: exact structure, roots, and the closed-form
derivative values they encode."""

import math
from fractions import Fraction

import numpy as np
import pytest

from logistic_horizon import (
    DomainError,
    LogisticParams,
    RiccatiParams,
    build_poly,
    characteristic_level,
    eval_poly,
    level_crossing_time,
    logistic_nth_derivative,
    poly_roots,
    riccati_nth_derivative,
)
from logistic_horizon.derivpoly import MAX_DERIV_ORDER

# hand expansion of the factored forms for the first three orders
EXPECTED_COEFFS = {
    1: (0, 1, -1),
    2: (0, 1, -3, 2),
    3: (0, 1, -7, 12, -6),
}

# closed forms for the least positive roots
RHO3 = 0.5 - math.sqrt(3) / 6
RHO4 = 0.5 - math.sqrt(6) / 6
RHO5 = 0.5 - math.sqrt(30 * (15 + math.sqrt(105))) / 60


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_coefficients(n):
    p = build_poly(n)
    assert p.monomial_coeffs == EXPECTED_COEFFS[n]
    assert p.deriv_order == n
    assert p.poly_order == n + 1


@pytest.mark.parametrize("n", range(1, 13))
def test_coefficient_structure(n):
    p = build_poly(n)
    cs = p.monomial_coeffs
    assert cs[0] == 0
    assert sum(cs) == 0
    sign = -1 if n % 2 else 1
    assert cs[-1] == sign * math.factorial(n)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_deriv(a):
    return [i * c for i, c in enumerate(a)][1:]


@pytest.mark.parametrize("n", range(1, 13))
def test_chain_rule_identity(n):
    # the next polynomial is the derivative of this one times the first
    lhs = list(build_poly(n + 1).monomial_coeffs)
    rhs = _poly_mul(_poly_deriv(list(build_poly(n).monomial_coeffs)),
                    list(build_poly(1).monomial_coeffs))
    assert lhs == rhs


@pytest.mark.parametrize("n", range(1, 11))
def test_factored_eval_matches_exact_monomial_horner(n):
    p = build_poly(n)
    scale = max(abs(c) for c in p.monomial_coeffs)
    for i in range(26):
        u = i / 25
        exact = Fraction(0)
        uq = Fraction(u)
        for c in reversed(p.monomial_coeffs):
            exact = exact * uq + c
        assert eval_poly(p, u) == pytest.approx(float(exact), abs=1e-12 * scale)


def test_eval_known_points():
    p3 = build_poly(2)
    p4 = build_poly(3)
    assert eval_poly(p3, 0.5) == 0.0
    assert eval_poly(p4, 0.0) == 0.0
    assert eval_poly(p4, 1.0) == 0.0
    # -6 * (1/2)(1/2 - 1)(1/2 - 1/2 - r)(1/2 - 1/2 + r) with r = sqrt(3)/6
    assert eval_poly(p4, 0.5) == pytest.approx(-0.125, abs=1e-15)


@pytest.mark.parametrize("m", range(2, 14))
def test_reflection_symmetry(m):
    p = build_poly(m - 1)
    sign = 1 if m % 2 == 0 else -1
    for i in range(100):
        x = -0.5 + i / 99
        left = eval_poly(p, 0.5 + x)
        right = eval_poly(p, 0.5 - x)
        assert left == pytest.approx(sign * right, abs=1e-10)


def test_roots_first_orders():
    assert poly_roots(1) == [0.0, 1.0]
    r3 = poly_roots(2)
    assert r3[0] == 0.0 and r3[-1] == 1.0
    assert r3[1] == 0.5
    r4 = poly_roots(3)
    assert r4[1] == pytest.approx(RHO3, abs=1e-12)
    assert r4[2] == pytest.approx(1 - RHO3, abs=1e-12)
    r6 = poly_roots(5)
    assert len(r6) == 6
    assert r6[1] == pytest.approx(RHO5, abs=1e-9)


@pytest.mark.parametrize("n", range(1, 11))
def test_roots_are_simple_and_separated(n):
    from logistic_horizon.derivpoly import _eval_factored_deriv
    from logistic_horizon.eulerian import eulerian_row

    roots = poly_roots(n)
    assert len(roots) == n + 1
    row = eulerian_row(n)
    for r in roots:
        assert abs(_eval_factored_deriv(n, row, r)) > 0.1
    for a, b in zip(roots, roots[1:]):
        assert b - a > 1e-10


def test_roots_vanish_to_tolerance():
    for n in range(2, 11):
        p = build_poly(n)
        scale = max(abs(c) for c in p.monomial_coeffs)
        for r in poly_roots(n):
            assert abs(eval_poly(p, r)) <= 1e-9 * scale


def test_characteristic_levels():
    assert characteristic_level(2) == 0.5
    assert characteristic_level(3) == pytest.approx(RHO3, abs=1e-12)
    assert characteristic_level(4) == pytest.approx(RHO4, abs=1e-12)
    assert characteristic_level(5) == pytest.approx(RHO5, abs=1e-12)
    with pytest.raises(DomainError):
        characteristic_level(1)


def test_cached_orders_still_validate():
    # 3.0 and True hash like 3 and 1: a lookup before validation would
    # hand them the cached fraction
    characteristic_level(3)
    poly_roots(3)
    for bad in (3.0, np.int64(3), True, 1):
        with pytest.raises(DomainError):
            characteristic_level(bad)
    for bad in (3.0, np.int64(3), True, False):
        with pytest.raises(DomainError):
            poly_roots(bad)


def test_cached_roots_cannot_be_mutated():
    level = characteristic_level(4)
    roots = poly_roots(4)
    want = list(roots)
    roots[1] = 0.25
    roots.append(2.0)
    assert poly_roots(4) == want
    assert characteristic_level(4) == level == want[1]


def test_order_validation():
    with pytest.raises(DomainError):
        build_poly(0)
    with pytest.raises(DomainError):
        build_poly(MAX_DERIV_ORDER + 1)
    with pytest.raises(DomainError):
        poly_roots(0)
    with pytest.raises(DomainError):
        build_poly(2.5)


def test_riccati_known_values():
    assert riccati_nth_derivative(RiccatiParams(1.0, 0.0, 1.0), 2, 0.0) == 0.0
    assert riccati_nth_derivative(RiccatiParams(-1.0, 0.0, 1.0), 2, 0.5) == pytest.approx(0.0, abs=1e-15)
    # term-by-term: 1*(-8) + 4*4 + 1*(-2)
    assert riccati_nth_derivative(RiccatiParams(1.0, 2.0, 5.0), 3, 3.0) == pytest.approx(6.0, abs=1e-12)


def test_riccati_params_validation():
    with pytest.raises(DomainError):
        RiccatiParams(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        RiccatiParams(1.0, 2.0, 2.0)


def test_riccati_order_validation():
    with pytest.raises(DomainError):
        riccati_nth_derivative(RiccatiParams(1.0, 0.0, 1.0), 1, 0.5)


def test_logistic_derivative_known_values():
    lp = LogisticParams(1.0, 1.0, 1.0)
    assert logistic_nth_derivative(lp, 2, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert logistic_nth_derivative(lp, 1, 0.0) == pytest.approx(0.25, abs=1e-15)


def test_logistic_third_derivative_vanishes_at_characteristic_level():
    lp = LogisticParams(7.0, 17.0, 1.5)
    t = level_crossing_time(lp, characteristic_level(3) * lp.u_max)
    # third-derivative scale here is ~ c^3 u_max; demand near machine zero
    assert abs(logistic_nth_derivative(lp, 3, t)) < 1e-9


def _fd_oracle(u_max, a, c, n, t, h="1e-3"):
    # repeated central differences of the closed form, carried out in
    # 50-digit arithmetic so the subtractive cancellation at n = 5 does
    # not swamp the comparison
    import mpmath as mp

    with mp.workdps(50):
        um = mp.mpf(str(u_max))
        av = mp.mpf(str(a))
        cv = mp.mpf(str(c))
        hh = mp.mpf(h)

        def u(x):
            return um / (1 + av * mp.exp(-cv * x))

        def diff(k, x):
            if k == 0:
                return u(x)
            return (diff(k - 1, x + hh) - diff(k - 1, x - hh)) / (2 * hh)

        return float(diff(n, mp.mpf(str(t))))


# times picked away from the first five derivatives' zero crossings so a
# relative comparison is meaningful at every point
FD_TIMES = [0.0, 0.15, 0.55, 0.75, 1.45, 1.60, 1.70, 2.05, 2.20, 2.35,
            2.95, 3.10, 3.25, 3.60, 3.75, 4.20, 4.50, 4.80, 5.20, 5.80]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_finite_difference_consistency(n):
    lp = LogisticParams(7.0, 17.0, 1.5)
    for t in FD_TIMES:
        expected = _fd_oracle(7.0, 17.0, 1.5, n, t)
        got = logistic_nth_derivative(lp, n, t)
        assert got == pytest.approx(expected, rel=1e-4)
