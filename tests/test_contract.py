"""Every public function of series, synthetic, derivpoly and logistic
returns or refuses with a LogisticHorizonError, never another
exception, on finite arguments out to the ends of float range.

The estimators and logistic_nth_derivative have properties of their
own in test_estimate.py and test_logistic.py.
"""

import math
from functools import partial

import pytest
from hypothesis import example, given, settings
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
    normal_icdf,
    nth_central_diff,
    poly_roots,
    riccati_nth_derivative,
    second_central_diff,
    second_left_diff,
)
from logistic_horizon.series import SERIES_KINDS

# 150 examples, or more under the active profile, such as "thorough"
# (see conftest.py)
SETTINGS = settings(deadline=None, database=None, max_examples=max(150, settings.default.max_examples))

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308)
value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)
# curve parameters and levels: mostly valid, with 0.0 still refused
magnitude = value.map(abs)


def _outcome(call, *args):
    """What ``call(*args)`` returns, or None where it refuses."""
    try:
        return call(*args)
    except LogisticHorizonError:
        return None


@SETTINGS
@given(st.lists(value, max_size=12), st.sampled_from(SERIES_KINDS), st.integers(1, 8))
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


@SETTINGS
@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
@given(
    st.tuples(magnitude, magnitude, magnitude),
    st.integers(2, 12),
    st.tuples(value, magnitude, magnitude),
    st.integers(-(2**64), 2**64),
    st.lists(st.integers(0, 12), max_size=3),
    value,
)
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


@SETTINGS
@given(st.integers(-1, 30), value, value, value, value)
@example(17, 1.0, 0.0, 1.0, 2.0742890763388816e16)  # fsum's intermediate overflow in eval_poly
def test_derivpoly_functions_return_or_refuse(n, r, u1, u2, u):
    _outcome(poly_roots, n)
    _outcome(characteristic_level, n)
    poly = _outcome(build_poly, n)
    if poly is not None:
        _outcome(eval_poly, poly, u)
    params = _outcome(RiccatiParams, r, u1, u2)
    if params is not None:
        _outcome(riccati_nth_derivative, params, n, u)


@SETTINGS
@given(magnitude, magnitude, magnitude, value, magnitude, st.integers(0, 30))
@example(1.0, 1e-300, 1.0, 0.0, 1e-300, 2)  # a * level underflows to 0
@example(1e10, 1e300, 1.0, 0.0, 5e9, 2)  # a * level overflows to inf
@example(1.7e308, 5e-324, 6.017714653835298, 0.0, 1.0, 23)  # the ratio underflows at order 23's level
def test_logistic_functions_return_or_refuse(u_max, a, c, t, level, n):
    params = _outcome(LogisticParams, u_max, a, c)
    if params is None:
        return
    assert isinstance(logistic_eval(params, t), float)
    for crossing in (_outcome(level_crossing_time, params, level), _outcome(characteristic_time, params, n)):
        # a sum of three logarithms, each within 745 of 0, over c:
        # finite wherever c is at least 1e-300
        assert crossing is None or math.isfinite(crossing) or c < 1e-300
