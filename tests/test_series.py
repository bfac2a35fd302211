"""Difference transforms and characteristic-point detection."""

import math
import random

import pytest

from logistic_horizon import (
    FIRST_LOCAL_MAX,
    GLOBAL_MAX,
    LAST_LOCAL_MAX_BEFORE_DECLINE,
    CharacteristicPointNotFound,
    DiffSeries,
    DomainError,
    LogisticParams,
    TimeSeries,
    cumulate,
    find_characteristic_point,
    get_fixture,
    level_crossing_time,
    nth_central_diff,
    second_central_diff,
    second_left_diff,
)

# hand arithmetic on the ten-week cumulative window: each cell is
# (y[t+1] - 2 y[t] + y[t-1]) / 2, an exact half of an integer
WINDOW_SCD = (-556.0, -412.0, 358.0, 291.5, -74.5, -259.5, -97.5, -588.5)


def _window():
    return get_fixture("loyalty-tnlc-window").series


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_time_series_names_the_nonfinite_index(bad):
    with pytest.raises(DomainError, match=r"value at index 2 is not finite"):
        TimeSeries(tuple("abcde"), (1.0, 2.0, bad, 4.0, math.inf), "raw")


def test_time_series_validation():
    with pytest.raises(DomainError):
        TimeSeries(("a", "b"), (1.0,), "raw")
    with pytest.raises(DomainError):
        TimeSeries(("a",), (1.0,), "weekly")
    with pytest.raises(DomainError):
        TimeSeries((), (), "raw")
    with pytest.raises(DomainError):
        TimeSeries(("a", "b", "c"), (1.0, float("nan"), 3.0), "raw")


def test_cumulate():
    ts = TimeSeries(tuple("abcdef"), (3, 12, 8, 17, 22, 30), "raw")
    cum = cumulate(ts)
    assert cum.kind == "cumulative"
    assert cum.values == (3, 15, 23, 40, 62, 92)
    assert cum.labels == ts.labels
    single = cumulate(TimeSeries(("x",), (5,), "raw"))
    assert single.values == (5.0,)
    with pytest.raises(DomainError):
        cumulate(cum)


def test_cumulate_loyalty_head():
    nlc = get_fixture("loyalty-nlc").series
    head = TimeSeries(nlc.labels[:10], nlc.values[:10], "raw")
    assert cumulate(head).values[-1] == 85305


def test_scd_golden_window():
    ds = second_central_diff(_window())
    assert ds.kind == "scd"
    assert ds.values[0] is None and ds.values[-1] is None
    assert ds.values[1:-1] == WINDOW_SCD


def test_scd_trivia():
    const = second_central_diff(TimeSeries(tuple("abcd"), (4.0, 4.0, 4.0, 4.0), "raw"))
    assert const.values[1:-1] == (0.0, 0.0)
    quad = second_central_diff(
        TimeSeries(tuple(str(t) for t in range(6)), tuple(float(t * t) for t in range(6)), "raw")
    )
    assert all(v == 1.0 for v in quad.values[1:-1])
    with pytest.raises(DomainError):
        second_central_diff(TimeSeries(("a", "b"), (1.0, 2.0), "raw"))


def test_sld_golden_window():
    ds = second_left_diff(_window())
    assert ds.kind == "sld"
    assert ds.values[0] is None and ds.values[1] is None
    assert ds.values[4] == 358.0


def test_sld_trivia():
    lin = second_left_diff(
        TimeSeries(tuple(str(t) for t in range(5)), tuple(2.0 * t for t in range(5)), "raw")
    )
    assert all(v == 0.0 for v in lin.values[2:])


@pytest.mark.parametrize("fixture", ["mobile-germany", "mobile-slovakia", "loyalty-tnlc-window"])
def test_shift_identity_on_fixtures(fixture):
    ts = get_fixture(fixture).series
    scd = second_central_diff(ts).values
    sld = second_left_diff(ts).values
    for t in range(1, len(ts) - 1):
        assert scd[t] == sld[t + 1]


def test_shift_identity_on_random_series():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(3, 40)
        vals = tuple(rng.uniform(-100, 100) for _ in range(n))
        ts = TimeSeries(tuple(str(i) for i in range(n)), vals, "raw")
        scd = second_central_diff(ts).values
        sld = second_left_diff(ts).values
        for t in range(1, n - 1):
            assert scd[t] == sld[t + 1]


def test_nth_central_diff_order_two_is_scd():
    ts = _window()
    assert nth_central_diff(ts, 2).values == second_central_diff(ts).values
    with pytest.raises(DomainError):
        nth_central_diff(ts, 1)


def test_nth_central_diff_higher_orders():
    # cubic data: third difference is constant 6/2 = 3, fourth is zero
    vals = tuple(float(t**3) for t in range(8))
    ts = TimeSeries(tuple(str(t) for t in range(8)), vals, "raw")
    d3 = nth_central_diff(ts, 3)
    assert d3.kind == "central-3"
    defined = [v for v in d3.values if v is not None]
    assert defined == [3.0] * len(defined)
    d4 = nth_central_diff(ts, 4)
    assert all(v == 0.0 for v in d4.values if v is not None)


def test_first_local_max_on_window():
    point = find_characteristic_point(second_central_diff(_window()))
    assert point.index == 3
    assert point.label == "08/12"
    assert point.diff_value == 358.0
    assert point.series_value == 100776.0
    assert point.policy_used == FIRST_LOCAL_MAX


def test_first_local_max_skips_plateau():
    # the 1997/1998 plateau (0.02, 0.02) is not strict and must lose to 1999
    ds = second_central_diff(get_fixture("mobile-germany").series)
    point = find_characteristic_point(ds)
    assert point.label == "1999"
    assert point.series_value == pytest.approx(0.28)
    assert point.diff_value == pytest.approx(0.095)


def test_convex_series_has_no_local_max():
    vals = tuple(float(t * t) for t in range(8))
    ts = TimeSeries(tuple(str(t) for t in range(8)), vals, "raw")
    with pytest.raises(CharacteristicPointNotFound) as err:
        find_characteristic_point(second_central_diff(ts))
    fallback = err.value.fallback
    assert fallback is not None
    # all defined cells tie at 1.0; the fallback takes the earliest
    assert fallback.index == 1
    assert fallback.policy_used == GLOBAL_MAX


def test_global_max_policy_takes_earliest_tie():
    values = (None, 1.0, 5.0, 2.0, 5.0, 3.0, None)
    src = TimeSeries(tuple(str(i) for i in range(7)), tuple(range(7)), "raw")
    ds = DiffSeries(source=src, kind="scd", values=values)
    point = find_characteristic_point(ds, GLOBAL_MAX)
    assert point.index == 2


def test_last_local_max_before_decline_on_medical_data():
    ts = cumulate(get_fixture("medical-qmd").series)
    ds = second_left_diff(ts)
    point = find_characteristic_point(ds, LAST_LOCAL_MAX_BEFORE_DECLINE)
    assert point.index == 5
    assert point.label == "11/09"
    assert point.series_value == 92.0
    assert point.diff_value == 4.0
    # the default policy stops earlier on this series
    first = find_characteristic_point(ds, FIRST_LOCAL_MAX)
    assert first.index == 3
    assert first.diff_value == 4.5


def test_ambiguity_flags_nearby_rival():
    ds = second_central_diff(get_fixture("mobile-slovakia").series)
    point = find_characteristic_point(ds)
    assert point.label == "1999"
    rivals = dict(point.ambiguity)
    assert 5 in rivals  # the year 2000, one step later and almost as high
    assert rivals[5] == pytest.approx(0.03)
    assert point.index not in rivals


def test_ambiguity_absent_for_clear_winner():
    # monotone after the peak: no rival maxima, nothing within a quarter span
    values = (None, 0.0, 10.0, 3.0, 2.0, 1.0, None)
    src = TimeSeries(tuple(str(i) for i in range(7)), tuple(range(7)), "raw")
    ds = DiffSeries(source=src, kind="scd", values=values)
    point = find_characteristic_point(ds)
    assert point.index == 2
    assert point.ambiguity == ()


def test_ambiguity_includes_rival_local_max_even_when_far():
    values = (None, 0.0, 10.0, 0.0, 0.5, 0.2, None)
    src = TimeSeries(tuple(str(i) for i in range(7)), tuple(range(7)), "raw")
    ds = DiffSeries(source=src, kind="scd", values=values)
    point = find_characteristic_point(ds)
    assert point.index == 2
    assert dict(point.ambiguity) == {4: 0.5}


def test_detector_needs_three_defined_values():
    src = TimeSeries(tuple("abcd"), (1.0, 2.0, 4.0, 8.0), "raw")
    ds = second_central_diff(src)
    with pytest.raises(DomainError):
        find_characteristic_point(ds)


def test_detector_rejects_unknown_policy():
    ds = second_central_diff(_window())
    with pytest.raises(DomainError):
        find_characteristic_point(ds, "best-looking")


def test_detection_near_level_crossing_of_clean_logistic():
    lp = LogisticParams(1.0, 100.0, 0.5)
    from logistic_horizon import characteristic_level, generate, GenSpec

    ts = generate(GenSpec(params=lp, n_points=31))
    point = find_characteristic_point(second_central_diff(ts))
    t_star = level_crossing_time(lp, characteristic_level(3) * lp.u_max)
    assert abs(point.index - round(t_star)) <= 1


@pytest.mark.parametrize("alpha", [0.5, 3.0, 1000.0])
def test_detected_index_scale_invariant(alpha):
    base = _window()
    point = find_characteristic_point(second_central_diff(base))
    scaled = TimeSeries(base.labels, tuple(alpha * v for v in base.values), base.kind)
    scaled_point = find_characteristic_point(second_central_diff(scaled))
    assert scaled_point.index == point.index
