"""Derivative polynomials: exact structure, roots, and the closed-form
derivative values they encode."""

import math
from fractions import Fraction

import numpy as np
import pytest

from logistic_horizon import (
    DomainError,
    LogisticParams,
    NumericalError,
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

# bit patterns of the fractions at every order and of all roots up to
# order 14; the inner roots of higher orders may move within the 1e-13
# bisection width, so they are not pinned
LEVEL_HEX = {
    2: "0x1.0000000000000p-1",
    3: "0x1.b0cb174df9c00p-3",
    4: "0x1.77d0a3fcf45f8p-4",
    5: "0x1.52755f7eebb83p-5",
    6: "0x1.39c2602b12d06p-6",
    7: "0x1.29111095c6908p-7",
    8: "0x1.1d8bd87b0e283p-8",
    9: "0x1.15749327f9932p-9",
    10: "0x1.0fb15aa6b05a3p-10",
    11: "0x1.0b8ae75bb0ebep-11",
    12: "0x1.0886f8a6b6b11p-12",
    13: "0x1.065235fbf43c6p-13",
    14: "0x1.04b2c12e62609p-14",
    15: "0x1.037fd00fdacfep-15",
    16: "0x1.029c464ce7766p-16",
    17: "0x1.01f326f585598p-17",
    18: "0x1.01753055e4676p-18",
    19: "0x1.011738606d59ep-19",
    20: "0x1.00d107a5018a5p-20",
    21: "0x1.009c8deef2aa2p-21",
    22: "0x1.00754bfba3fa0p-22",
    23: "0x1.0057e287e129fp-23",
    24: "0x1.0041e2fd2890ep-24",
    25: "0x1.00316ec2256fap-25",
}
ROOTS_HEX = {
    1: "0x0.0p+0 0x1.0000000000000p+0",
    2: "0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0",
    3: (
        "0x0.0p+0 0x1.b0cb174df9c00p-3 0x1.93cd3a2c81900p-1 "
        "0x1.0000000000000p+0"
    ),
    4: (
        "0x0.0p+0 0x1.77d0a3fcf45f8p-4 0x1.0000000000000p-1 "
        "0x1.d105eb8061741p-1 0x1.0000000000000p+0"
    ),
    5: (
        "0x0.0p+0 0x1.52755f7eebb83p-5 0x1.34343e6f9e70ap-2 "
        "0x1.65e5e0c830c7cp-1 0x1.ead8aa0811446p-1 "
        "0x1.0000000000000p+0"
    ),
    6: (
        "0x0.0p+0 0x1.39c2602b12d06p-6 0x1.718be13749b3ep-3 "
        "0x1.0000000000000p-1 0x1.a39d07b22d930p-1 "
        "0x1.f631ecfea7696p-1 0x1.0000000000000p+0"
    ),
    7: (
        "0x0.0p+0 0x1.29111095c6908p-7 0x1.bf2e04c69c712p-4 "
        "0x1.650557fe7c9e6p-2 0x1.4d7d5400c1b0fp-1 "
        "0x1.c81a3f672c71ep-1 0x1.fb5bbbbda8e5ap-1 "
        "0x1.0000000000000p+0"
    ),
    8: (
        "0x0.0p+0 0x1.1d8bd87b0e283p-8 0x1.11dbb2645299ap-4 "
        "0x1.eef7663c893fdp-3 0x1.ffffffffffd96p-2 "
        "0x1.84422670ddb03p-1 0x1.ddc489b375acap-1 "
        "0x1.fdc4e84f09e3bp-1 0x1.0000000000000p+0"
    ),
    9: (
        "0x0.0p+0 0x1.15749327f9932p-9 0x1.5368d18cd0fbcp-5 "
        "0x1.57d1bff994b1ap-3 0x1.832edc14208a9p-2 "
        "0x1.3e6891f5efa68p-1 0x1.aa0b90019ad3ap-1 "
        "0x1.eac972e732f02p-1 0x1.feea8b6cd8068p-1 "
        "0x1.0000000000000p+0"
    ),
    10: (
        "0x0.0p+0 0x1.0fb15aa6b05a3p-10 0x1.a919a705b0bdep-6 "
        "0x1.e027dbe529014p-4 0x1.2348d3a88ae75p-2 "
        "0x1.0000000000058p-1 0x1.6e5b962bba813p-1 "
        "0x1.c3fb04835adfdp-1 0x1.f2b732c7d27a0p-1 "
        "0x1.ff782752aca7cp-1 0x1.0000000000000p+0"
    ),
    11: (
        "0x0.0p+0 0x1.0b8ae75bb0ebep-11 0x1.0ca318a0234eep-6 "
        "0x1.515f7439c4adbp-4 0x1.b62a54c183a5cp-3 "
        "0x1.979a475e9fe09p-2 0x1.3432dc50b0106p-1 "
        "0x1.92756acf9f102p-1 0x1.d5d41178c76a2p-1 "
        "0x1.f79ae73afee58p-1 0x1.ffbd1d462913cp-1 "
        "0x1.0000000000000p+0"
    ),
    12: (
        "0x0.0p+0 0x1.0886f8a6b6b11p-12 0x1.562667bff73a4p-7 "
        "0x1.dd1718c9f2dcep-5 0x1.4a461d14b63a0p-3 "
        "0x1.431d91bd2606ap-2 0x1.ffffffffffcc7p-2 "
        "0x1.5e7137216cfa3p-1 0x1.ad6e78bad26dap-1 "
        "0x1.e22e8e7360d20p-1 0x1.faa7666100230p-1 "
        "0x1.ffdeef20eb292p-1 0x1.0000000000000p+0"
    ),
    13: (
        "0x0.0p+0 0x1.065235fbf43c6p-13 0x1.b6a0cd908939fp-8 "
        "0x1.5357f922f1099p-5 0x1.f38d0114aaf7ap-4 "
        "0x1.ffbd4f18959dep-3 0x1.a651473972ba6p-2 "
        "0x1.2cd75c6346b5ap-1 0x1.8010ac39da956p-1 "
        "0x1.c18e5fdd6a9e8p-1 0x1.eaca806dd0ef4p-1 "
        "0x1.fc92be64deed8p-1 0x1.ffef9adca040ap-1 "
        "0x1.0000000000000p+0"
    ),
    14: (
        "0x0.0p+0 0x1.04b2c12e62609p-14 0x1.1ab51f4de7b34p-8 "
        "0x1.e55c5ab22657ap-6 0x1.7b37f67368df5p-4 "
        "0x1.958a8daafc10ap-3 0x1.5b2216287d6f6p-2 "
        "0x1.ffffffffffe5ep-2 0x1.526ef4ebc1513p-1 "
        "0x1.9a9d5c9540f90p-1 0x1.d099013192e26p-1 "
        "0x1.f0d51d2a6ecd4p-1 0x1.fdca95c164306p-1 "
        "0x1.fff7da69f68ccp-1 0x1.0000000000000p+0"
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_coefficients(n):
    p = build_poly(n)
    assert p.monomial_coeffs == EXPECTED_COEFFS[n]
    assert p.deriv_order == n
    assert len(p.monomial_coeffs) == n + 2


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
    from logistic_horizon.derivpoly import _eulerian_sum
    from logistic_horizon.eulerian import eulerian_row

    roots = poly_roots(n)
    assert len(roots) == n + 1
    # P'_{n+1}(u) is S(n + 1, u, u - 1; 0) up to sign
    row = eulerian_row(n + 1)
    for r in roots:
        assert abs(_eulerian_sum(row, n + 1, r, r - 1.0, 0)) > 0.1
    for a, b in zip(roots, roots[1:]):
        assert b - a > 1e-10


def test_roots_vanish_to_tolerance():
    for n in range(2, 11):
        p = build_poly(n)
        scale = max(abs(c) for c in p.monomial_coeffs)
        for r in poly_roots(n):
            assert abs(eval_poly(p, r)) <= 1e-9 * scale


def test_pinned_levels_and_roots():
    for n, want in LEVEL_HEX.items():
        assert characteristic_level(n).hex() == want
    for n, want in ROOTS_HEX.items():
        assert [r.hex() for r in poly_roots(n)] == want.split()


@pytest.mark.parametrize("n", range(1, MAX_DERIV_ORDER + 1))
def test_kernel_is_the_derivative(n):
    # d/du P_{n+1} = (-1)^n S(n + 1, u, u - 1; 0), checked against the
    # exact derivative of the monomial form at dyadic (exact) points
    from logistic_horizon.derivpoly import _eulerian_sum
    from logistic_horizon.eulerian import eulerian_row

    deriv = _poly_deriv(list(build_poly(n).monomial_coeffs))
    row = eulerian_row(n + 1)
    sign = -1 if n % 2 else 1
    for i in range(-32, 97):
        u = i / 64
        exact = Fraction(0)
        for c in reversed(deriv):
            exact = exact * Fraction(u) + c
        scale = sum(a * abs(u) ** k * abs(u - 1) ** (n - k) for k, a in enumerate(row[: n + 1]))
        got = sign * _eulerian_sum(row, n + 1, u, u - 1.0, 0)
        assert abs(got - float(exact)) <= 1e-12 * scale


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


# fsum's intermediate overflow, a term that overflows to -inf, and a term
# far past float range, on either side
@pytest.mark.parametrize("u", [2.0742890763388816e16, 1e17, 1e300, -1e300])
def test_eval_poly_refuses_a_value_out_of_float_range(u):
    with pytest.raises(NumericalError, match=r"P_18\(.*\) is out of float range"):
        eval_poly(build_poly(17), u)


def test_eval_poly_keeps_a_non_finite_argument():
    assert eval_poly(build_poly(17), math.inf) == -math.inf
    assert math.isnan(eval_poly(build_poly(17), math.nan))


@pytest.mark.parametrize(
    "params, n, u",
    [
        ((1.0, 0.0, 1.0), 17, 1e17),  # a term overflows to inf
        ((1.0, -1e308, 1e308), 3, 1e308),  # u - u1 overflows, so a term is inf * 0
        ((1e10, 0.0, 1.0), 25, 1e10),  # r**n and the sum are finite, their product is not
    ],
    ids=["term", "difference", "product"],
)
def test_riccati_refuses_a_value_out_of_float_range(params, n, u):
    with pytest.raises(NumericalError, match=f"derivative of order {n} at u=.* is out of float range"):
        riccati_nth_derivative(RiccatiParams(*params), n, u)
    assert riccati_nth_derivative(RiccatiParams(*params), n, math.inf) == math.inf


def test_riccati_params_validation():
    with pytest.raises(DomainError):
        RiccatiParams(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        RiccatiParams(1.0, 2.0, 2.0)
    with pytest.raises(DomainError, match="u1 and u2 must be finite"):
        RiccatiParams(1.0, math.nan, 1.0)


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


def test_bisection_brackets_have_nonzero_ends_of_opposite_sign():
    # _roots(n) bisects S(n, u, u - 1; 0) between consecutive roots of the
    # order below; no end is a root, so _bisect_root has no exit for one.
    # Exact-zero midpoints do occur, and its fm == 0.0 return stays
    from logistic_horizon.derivpoly import _bisect_root, _eulerian_sum
    from logistic_horizon.eulerian import eulerian_row

    brackets = zero_midpoints = 0
    for n in range(2, MAX_DERIV_ORDER + 1):
        row = eulerian_row(n)
        below = poly_roots(n - 1)
        for a, b in zip(below, below[1:]):
            values = []  # f at a, at b, then at each midpoint

            def f(u):
                values.append(_eulerian_sum(row, n, u, u - 1.0, 0))
                return values[-1]

            _bisect_root(f, a, b)
            fa, fb, *midpoints = values
            assert abs(fa) >= 0.5 and abs(fb) >= 0.5 and (fa > 0) != (fb > 0)
            zero_midpoints += midpoints.count(0.0)
            brackets += 1
    assert brackets == 300
    assert zero_midpoints > 0


def test_bisection_refuses_a_bracket_without_a_sign_change_and_stops_at_adjacent_floats():
    from logistic_horizon.derivpoly import _bisect_root

    with pytest.raises(NumericalError, match="no sign change"):
        _bisect_root(lambda u: u * u + 1.0, -1.0, 1.0)
    # two adjacent floats 2.3e-13 apart, wider than the 1e-13 tolerance: the
    # midpoint rounds to an end, so the loop ends without evaluating it
    a, b = 1024.0, math.nextafter(1024.0, math.inf)
    calls = []

    def f(u):
        calls.append(u)
        return u - 1024.0 - 1e-13

    assert b - a > 1e-13
    assert _bisect_root(f, a, b) in (a, b)
    assert calls == [a, b]
