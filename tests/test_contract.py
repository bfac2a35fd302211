"""Every public function of series, synthetic, derivpoly and logistic
returns or refuses with a LogisticHorizonError, never another
exception, on finite arguments out to the ends of float range, and on
ints beyond it (±10**400) where it takes them: TimeSeries's values,
the constructors LogisticParams, GenSpec and RiccatiParams, and the
time t of logistic_eval and logistic_nth_derivative.

The estimators and logistic_nth_derivative have properties of their
own in test_estimate.py and test_logistic.py.
"""

import math
from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logistic_horizon import (
    POLICIES,
    GenSpec,
    LogisticHorizonError,
    LogisticParams,
    RiccatiParams,
    TimeSeries,
    benchmark_estimators,
    build_poly,
    characteristic_level,
    characteristic_time,
    cumulate,
    eval_poly,
    find_characteristic_point,
    generate,
    level_crossing_time,
    logistic_eval,
    logistic_nth_derivative,
    normal_icdf,
    nth_central_diff,
    poly_roots,
    riccati_nth_derivative,
    second_central_diff,
    second_left_diff,
)
from logistic_horizon.series import SERIES_KINDS

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308)
value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)
# series values, times and constructor arguments, with ints too large to convert to a float
BEYOND = (10**400, -(10**400))
number = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES + BEYOND)
# curve parameters and levels: mostly valid, with 0.0 still refused
magnitude = number.map(abs)


def _outcome(call, *args):
    """What ``call(*args)`` returns, or None where it refuses."""
    try:
        return call(*args)
    except LogisticHorizonError:
        return None


@given(st.lists(number, max_size=12), st.sampled_from(SERIES_KINDS), st.integers(1, 8))
@example([10**400, 1, 2], "raw", 1)
def test_series_functions_return_or_refuse(values, kind, order):
    ts = _outcome(TimeSeries, map(str, range(len(values))), values, kind)
    if ts is None:
        return
    _outcome(cumulate, ts)
    for diff in (second_central_diff, second_left_diff, partial(nth_central_diff, order=order)):
        ds = _outcome(diff, ts)
        if ds is not None:
            for policy in POLICIES:
                _outcome(find_characteristic_point, ds, policy)


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
@given(
    st.tuples(magnitude, magnitude, magnitude),
    st.integers(2, 12),
    st.tuples(number, magnitude, magnitude),
    st.integers(-(2**64), 2**64),
    st.lists(st.integers(0, 12), max_size=3),
    value,
)
@example((1.0, 1.0, 10**400), 5, (0.0, 1.0, 0.0), 0, [], 0.5)
@example((1.0, 1.0, 1.0), 5, (0.0, 1.0, 10**400), 0, [], 0.5)
def test_synthetic_functions_return_or_refuse(curve, n_points, start_step_noise, seed, truncations, p):
    _outcome(normal_icdf, p)
    params = _outcome(LogisticParams, *curve)
    if params is None:
        return
    spec = _outcome(GenSpec, params, n_points, *start_step_noise, seed)
    if spec is None:
        return
    _outcome(generate, spec)
    _outcome(benchmark_estimators, [spec], truncations)


@given(st.integers(-1, 30), number, number, number, value)
@example(17, 1.0, 0.0, 1.0, 2.0742890763388816e16)  # fsum's intermediate overflow in eval_poly
@example(2, 10**400, 0.0, 1.0, 0.5)
@example(2, 1.0, -(10**400), 1.0, 0.5)
def test_derivpoly_functions_return_or_refuse(n, r, u1, u2, u):
    _outcome(poly_roots, n)
    _outcome(characteristic_level, n)
    poly = _outcome(build_poly, n)
    if poly is not None:
        _outcome(eval_poly, poly, u)
    params = _outcome(RiccatiParams, r, u1, u2)
    if params is not None:
        _outcome(riccati_nth_derivative, params, n, u)


@given(magnitude, magnitude, magnitude, number, magnitude, st.integers(0, 30))
@example(1.0, 1.0, 1.0, 10**400, 0.5, 2)  # -c * t overflows converting t
@example(1.0, 1.0, 1.0, -(10**400), 0.5, 3)
@example(1.0, 1e-300, 1.0, 0.0, 1e-300, 2)  # a * level underflows to 0
@example(1e10, 1e300, 1.0, 0.0, 5e9, 2)  # a * level overflows to inf
@example(1.7e308, 5e-324, 6.017714653835298, 0.0, 1.0, 23)  # the ratio underflows at order 23's level
def test_logistic_functions_return_or_refuse(u_max, a, c, t, level, n):
    params = _outcome(LogisticParams, u_max, a, c)
    if params is None:
        return
    assert isinstance(_outcome(logistic_eval, params, t), float) or t in BEYOND
    _outcome(logistic_nth_derivative, params, n, t)
    for crossing in (_outcome(level_crossing_time, params, level), _outcome(characteristic_time, params, n)):
        # a sum of three logarithms, each within 745 of 0, over c:
        # finite wherever c is at least 1e-300
        assert crossing is None or math.isfinite(crossing) or c < 1e-300
