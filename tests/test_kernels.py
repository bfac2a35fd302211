"""The numpy kernels against per-sample reference loops, bit for bit.

Each reference below is the plain scalar loop that states what the
kernel computes.  The kernels must agree with it exactly: same floats
down to the sign of zero, same indices, same Python types.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logistic_horizon import (
    FIRST_LOCAL_MAX,
    GLOBAL_MAX,
    LAST_LOCAL_MAX_BEFORE_DECLINE,
    POLICIES,
    CharacteristicPointNotFound,
    DiffSeries,
    DomainError,
    GenSpec,
    LogisticParams,
    TimeSeries,
    estimate_nlls,
    estimate_scd,
    find_characteristic_point,
    generate,
    higher_order_estimate,
    nth_central_diff,
    second_central_diff,
    second_left_diff,
)
from logistic_horizon.estimate import _logistic_residuals

SETTINGS = settings(max_examples=150, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
# few distinct values, so that ties and plateaus are common
coarse = st.integers(-3, 3).map(float)
levels = st.lists(st.one_of(finite, coarse), min_size=3, max_size=40)


def _bits(x):
    """Exact identity of a value: floats by their bit pattern."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    return (type(x).__name__, x)


def _series(values):
    return TimeSeries(tuple(str(i) for i in range(len(values))), tuple(values), "cumulative")


# ------------------------------------------------------------- references


def _ref_scd(y):
    vals = [None] * len(y)
    for t in range(1, len(y) - 1):
        vals[t] = (y[t + 1] - 2.0 * y[t] + y[t - 1]) / 2.0
    return tuple(vals)


def _ref_sld(y):
    vals = [None] * len(y)
    for t in range(2, len(y)):
        vals[t] = (y[t] - 2.0 * y[t - 1] + y[t - 2]) / 2.0
    return tuple(vals)


def _ref_central(y, order):
    lo, hi = order // 2, (order + 1) // 2
    vals = [None] * len(y)
    for t in range(lo, len(y) - hi):
        acc = 0.0
        for j in range(order + 1):
            acc += (-1) ** j * math.comb(order, j) * y[t - lo + (order - j)]
        vals[t] = acc / 2.0
    return tuple(vals)


def _ref_maxima(vals):
    out = []
    for i in range(1, len(vals) - 1):
        v, left, right = vals[i], vals[i - 1], vals[i + 1]
        if v is None or left is None or right is None:
            continue
        if v > left and v > right:
            out.append(i)
    return out


def _ref_ambiguity(winner, vals):
    defined = [(i, v) for i, v in enumerate(vals) if v is not None]
    winner_value = vals[winner]
    span = winner_value - min(v for _, v in defined)
    rivals = {i: vals[i] for i in _ref_maxima(vals) if i != winner}
    for i, v in defined:
        if i != winner and winner_value - v <= 0.25 * span:
            rivals[i] = v
    return tuple(sorted(rivals.items()))


def _ref_detect(vals, policy):
    """("ok", index, ambiguity), ("not-found", fallback index,
    fallback ambiguity) or ("too-few",)."""
    defined = [(i, v) for i, v in enumerate(vals) if v is not None]
    if len(defined) < 3:
        return ("too-few",)
    best_i, best_v = defined[0]
    for i, v in defined[1:]:
        if v > best_v:
            best_i, best_v = i, v
    if policy == GLOBAL_MAX:
        return ("ok", best_i, _ref_ambiguity(best_i, vals))
    maxima = _ref_maxima(vals)
    if policy == LAST_LOCAL_MAX_BEFORE_DECLINE:
        min_value = min(v for _, v in defined)
        first_min = next(i for i, v in defined if v == min_value)
        maxima = [i for i in maxima if i < first_min]
    if not maxima:
        return ("not-found", best_i, _ref_ambiguity(best_i, vals))
    index = maxima[0] if policy == FIRST_LOCAL_MAX else maxima[-1]
    return ("ok", index, _ref_ambiguity(index, vals))


def _ref_residuals(y, u_max, a, c):
    n = len(y)
    res = np.empty(n)
    jac = np.empty((n, 3))
    for t in range(n):
        e = math.exp(-c * t)
        den = 1.0 + a * e
        res[t] = u_max / den - y[t]
        jac[t, 0] = 1.0 / den
        jac[t, 1] = -u_max * e / (den * den)
        jac[t, 2] = u_max * a * t * e / (den * den)
    return res, jac


# ---------------------------------------------------------------- stencils


@SETTINGS
@given(levels)
def test_second_differences_match_reference(y):
    ts = _series(y)
    assert _bits(second_central_diff(ts).values) == _bits(_ref_scd(y))
    assert _bits(second_left_diff(ts).values) == _bits(_ref_sld(y))


@SETTINGS
@given(st.integers(2, 6), st.lists(st.one_of(finite, coarse), min_size=7, max_size=40))
def test_central_differences_match_reference(order, y):
    ds = nth_central_diff(_series(y), order)
    assert _bits(ds.values) == _bits(_ref_central(y, order))


# --------------------------------------------------------------- detection

# infinities stand for overflowed stencils; a slot of nan is not tested,
# since the detector reads nan as an undefined slot
diff_slot = st.one_of(st.none(), finite, coarse, st.sampled_from((-math.inf, math.inf)))


@SETTINGS
@given(st.lists(diff_slot, min_size=3, max_size=30), st.sampled_from(POLICIES))
@example([None, -math.inf, -math.inf, -math.inf, None], GLOBAL_MAX)
@example([None, math.inf, 1.0, math.inf, 0.0, None], LAST_LOCAL_MAX_BEFORE_DECLINE)
def test_detection_matches_reference(vals, policy):
    src = _series([0.0] * len(vals))
    ds = DiffSeries(source=src, kind="scd", values=tuple(vals))
    want = _ref_detect(vals, policy)
    try:
        point = find_characteristic_point(ds, policy)
    except CharacteristicPointNotFound as exc:
        got = ("not-found", exc.fallback.index, exc.fallback.ambiguity)
        assert exc.fallback.policy_used == GLOBAL_MAX
    except DomainError:
        got = ("too-few",)
    else:
        got = ("ok", point.index, point.ambiguity)
        assert _bits(point.diff_value) == _bits(vals[point.index])
    assert _bits(got) == _bits(want)


@SETTINGS
@given(levels, st.sampled_from(POLICIES))
def test_detection_on_stencils_matches_reference(y, policy):
    ds = second_central_diff(_series(y))
    want = _ref_detect(ds.values, policy)
    try:
        point = find_characteristic_point(ds, policy)
        got = ("ok", point.index, point.ambiguity)
    except CharacteristicPointNotFound as exc:
        got = ("not-found", exc.fallback.index, exc.fallback.ambiguity)
    except DomainError:
        got = ("too-few",)
    assert _bits(got) == _bits(want)


def test_detection_ties_and_plateaus():
    # plateau at 5: no strict maximum there; the tie for the global max
    # goes to the earliest index, and the first minimum bounds the
    # decline policy
    vals = (None, 1.0, 5.0, 5.0, 2.0, 4.0, 0.0, 3.0, 0.0, None)
    ds = DiffSeries(source=_series([0.0] * 10), kind="scd", values=vals)
    assert find_characteristic_point(ds, GLOBAL_MAX).index == 2
    assert find_characteristic_point(ds, FIRST_LOCAL_MAX).index == 5
    assert find_characteristic_point(ds, LAST_LOCAL_MAX_BEFORE_DECLINE).index == 5
    point = find_characteristic_point(ds, GLOBAL_MAX)
    assert point.ambiguity == ((3, 5.0), (5, 4.0), (7, 3.0))
    assert all(type(i) is int and type(v) is float for i, v in point.ambiguity)


# -------------------------------------------------------------- residuals

positive = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(
    st.lists(st.floats(0.1, 1e6), min_size=4, max_size=60),
    positive,
    positive,
    st.floats(1e-6, 5.0),
)
def test_logistic_residuals_match_reference(y, u_max, a, c):
    y = np.array(y)
    res, jac = _logistic_residuals(y, u_max, a, c)
    want_res, want_jac = _ref_residuals(y, u_max, a, c)
    assert res.tobytes() == want_res.tobytes()
    assert jac.tobytes() == want_jac.tobytes()
    assert jac.flags.c_contiguous


# --------------------------------------------------- pinned 10^4-point run

# float.hex of each estimate on the noisy series below, as computed by
# the scalar per-sample loops the kernels replaced.  Noise keeps nlls
# off the exact ceiling and gives scd thousands of ambiguity rivals.
LONG_SPEC = GenSpec(
    params=LogisticParams(1000.0, 200.0, 0.001), n_points=10_000, noise_sd=1.0, seed=7
)
LONG_PINNED = {
    "nlls": "0x1.f400a1662fb69p+9",
    "scd": "0x1.89a922938adbap+4",
    "order5": "0x1.d8054fde9fa50p+6",
}


@pytest.mark.filterwarnings("ignore:estimated saturation level")
def test_long_series_estimates_are_bit_identical():
    ts = generate(LONG_SPEC)
    got = {
        "nlls": estimate_nlls(ts).u_max_hat.hex(),
        "scd": estimate_scd(ts).u_max_hat.hex(),
        "order5": higher_order_estimate(ts, 5).u_max_hat.hex(),
    }
    assert got == LONG_PINNED
