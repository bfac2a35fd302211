"""Logistic curve evaluation, parameter plumbing, and crossing times."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logistic_horizon import (
    DomainError,
    LogisticHorizonError,
    LogisticParams,
    NumericalError,
    characteristic_level,
    characteristic_time,
    level_crossing_time,
    logistic_eval,
    logistic_nth_derivative,
)


def test_params_accessors():
    lp = LogisticParams(7.0, 17.0, 1.5)
    assert logistic_eval(lp, 0.0) == pytest.approx(7.0 / 18.0, rel=1e-15)
    assert lp.c1 == pytest.approx(1.5 / 7.0, rel=1e-15)


def test_params_validation():
    for bad in [(0, 1, 1), (-3, 1, 1), (1, 0, 1), (1, -2, 1), (1, 1, 0), (1, 1, -0.5)]:
        with pytest.raises(DomainError):
            LogisticParams(*bad)
    with pytest.raises(DomainError):
        LogisticParams(float("inf"), 1.0, 1.0)


def test_eval_known_values():
    lp = LogisticParams(7.0, 17.0, 1.5)
    assert logistic_eval(lp, 0.0) == pytest.approx(7.0 / 18.0, rel=1e-15)
    mid = level_crossing_time(lp, 3.5)
    assert logistic_eval(lp, mid) == pytest.approx(3.5, rel=1e-12)
    assert logistic_eval(lp, 40.0) == pytest.approx(7.0, rel=1e-9)


def test_eval_extreme_arguments_do_not_overflow():
    lp = LogisticParams(7.0, 17.0, 1.5)
    assert logistic_eval(lp, -1e6) == 0.0
    assert logistic_eval(lp, 1e6) == pytest.approx(7.0, rel=1e-15)
    # monotone between the extremes
    ts = [-50, -5, 0, 5, 50]
    vals = [logistic_eval(lp, t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0 <= v <= 7.0 for v in vals)


def test_level_crossing_time_closed_form():
    lp = LogisticParams(2.0, 17.0, 1.5)
    # at the half level the log reduces to ln(a)
    assert level_crossing_time(lp, 1.0) == pytest.approx(math.log(17.0) / 1.5, rel=1e-14)
    with pytest.raises(DomainError):
        level_crossing_time(lp, 0.0)
    with pytest.raises(DomainError):
        level_crossing_time(lp, 2.0)


@pytest.mark.parametrize(
    "params, level, expected",
    [
        ((1.0, 1e-300, 1.0), 1e-300, -1381.5510557964274),  # a * level underflows to 0
        ((1e10, 1e300, 1.0), 5e9, 690.7755278982137),  # a * level overflows to inf
    ],
)
def test_level_crossing_time_where_the_ratio_leaves_float_range(params, level, expected):
    assert level_crossing_time(LogisticParams(*params), level) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("level_frac", [0.01, 0.1, 0.2113, 0.5, 0.9, 0.999])
def test_level_crossing_round_trip(level_frac):
    lp = LogisticParams(7.0, 17.0, 1.5)
    level = level_frac * lp.u_max
    t = level_crossing_time(lp, level)
    assert logistic_eval(lp, t) == pytest.approx(level, rel=1e-10)


def test_inflection_at_half_saturation():
    lp = LogisticParams(123.0, 5.0, 0.7)
    t2 = characteristic_time(lp, 2)
    assert logistic_eval(lp, t2) == pytest.approx(lp.u_max / 2, rel=1e-12)
    # symmetric parameterization puts the inflection at the origin
    sym = LogisticParams(4.0, 1.0, 2.0)
    assert characteristic_time(sym, 2) == pytest.approx(0.0, abs=1e-15)


def test_characteristic_times_strictly_decreasing():
    lp = LogisticParams(7.0, 17.0, 1.5)
    times = [characteristic_time(lp, n) for n in range(2, 6)]
    assert all(a > b for a, b in zip(times, times[1:]))


def test_characteristic_time_matches_derivative_sign_change():
    # bracket the third derivative's zero by bisection, independently
    # of the root-finding used in the library
    lp = LogisticParams(7.0, 17.0, 1.5)
    t3 = characteristic_time(lp, 3)
    assert abs(logistic_nth_derivative(lp, 3, t3)) < 1e-8
    lo, hi = t3 - 0.5, t3 + 0.5
    flo = logistic_nth_derivative(lp, 3, lo)
    fhi = logistic_nth_derivative(lp, 3, hi)
    assert flo > 0 > fhi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if logistic_nth_derivative(lp, 3, mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(t3, abs=1e-10)
    assert logistic_eval(lp, t3) == pytest.approx(characteristic_level(3) * 7.0, rel=1e-10)


def test_characteristic_time_order_validation():
    lp = LogisticParams(7.0, 17.0, 1.5)
    with pytest.raises(DomainError):
        characteristic_time(lp, 1)


def test_rate_equation_numerically():
    # du/dt = (c/u_max) u (u_max - u), checked against a high-precision
    # central difference so the quiet tail does not drown in roundoff
    import mpmath as mp

    lp = LogisticParams(7.0, 17.0, 1.5)
    with mp.workdps(50):
        um, av, cv = mp.mpf(7), mp.mpf(17), mp.mpf("1.5")
        h = mp.mpf("1e-5")
        for i in range(31):
            t = mp.mpf(-5) + i * mp.mpf("0.5")
            u_plus = um / (1 + av * mp.exp(-cv * (t + h)))
            u_minus = um / (1 + av * mp.exp(-cv * (t - h)))
            fd = float((u_plus - u_minus) / (2 * h))
            u = logistic_eval(lp, float(t))
            assert lp.c1 * u * (lp.u_max - u) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize(
    "params, n, t, cause",
    [
        ((1.0, 1.0, 1e200), 2, 1e-200, "Numerical result out of range"),
        ((1.4e101, 6.7e5, 2.0), 5, -0.40, "-inf + inf in fsum"),
    ],
    ids=["power-overflow", "fsum-inf-minus-inf"],
)
def test_nth_derivative_out_of_float_range_is_a_numerical_error(params, n, t, cause):
    message = f"derivative of order {n} at u=.* is out of float range"
    with pytest.raises(NumericalError, match=message) as info:
        logistic_nth_derivative(LogisticParams(*params), n, t)
    assert cause in str(info.value)
    assert info.value.__cause__ is None and info.value.__suppress_context__


@pytest.mark.parametrize("n, expected", [(2, "0.0"), (3, "-0.0")])
def test_nth_derivative_is_zero_where_the_eulerian_sum_is_zero(n, expected):
    # u underflows to 0, where every term of the sum vanishes; r**n alone would overflow
    lp = LogisticParams(7.1e5, 6.2e257, 4.2e235)
    assert logistic_eval(lp, -784.0) == 0.0
    assert repr(logistic_nth_derivative(lp, n, -784.0)) == expected


@pytest.mark.parametrize("params, c1", [((1e-300, 1.0, 1e300), "inf"), ((1e300, 1.0, 1e-300), "0.0")])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_nth_derivative_refuses_c_over_u_max_out_of_float_range(params, c1, n):
    message = f"c / u_max is out of float range: {params[2]!r} / {params[0]!r} gives {c1}"
    with pytest.raises(NumericalError, match=re.escape(message)):
        logistic_nth_derivative(LogisticParams(*params), n, 0.0)


@pytest.mark.parametrize("t", [10**400, -(10**400)], ids=["plus", "minus"])
def test_a_time_past_float_range_is_refused(t):
    lp = LogisticParams(1.0, 1.0, 1.0)
    message = f"^t must be within float range, got {t!r}$"
    with pytest.raises(DomainError, match=message) as info:
        logistic_eval(lp, t)
    assert info.value.__cause__ is None and info.value.__suppress_context__
    with pytest.raises(DomainError, match=message):
        logistic_nth_derivative(lp, 3, t)
    # a float past the same range is kept: the curve's limits
    assert logistic_eval(lp, math.inf if t > 0 else -math.inf) == (1.0 if t > 0 else 0.0)


wide = st.floats(1e-300, 1e300)


@given(wide, wide, wide, st.integers(1, 25), st.floats(allow_nan=False, allow_infinity=False))
def test_nth_derivative_returns_a_float_or_raises_a_package_error(u_max, a, c, n, t):
    lp = LogisticParams(u_max, a, c)
    try:
        value = logistic_nth_derivative(lp, n, t)
    except LogisticHorizonError:
        return
    assert isinstance(value, float)
