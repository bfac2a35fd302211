"""Difference transforms and characteristic-point detection."""

import copy
import dataclasses
import math
import pickle
import random
from functools import partial
from unittest import mock

import numpy as np
import pytest

from logistic_horizon import (
    FIRST_LOCAL_MAX,
    GLOBAL_MAX,
    LAST_LOCAL_MAX_BEFORE_DECLINE,
    POLICIES,
    CharacteristicPointNotFound,
    DiffSeries,
    DomainError,
    GenSpec,
    LogisticHorizonError,
    LogisticParams,
    TimeSeries,
    benchmark_estimators,
    cumulate,
    estimate_scd,
    estimate_sld,
    find_characteristic_point,
    fit_logistic_nlls,
    get_fixture,
    higher_order_estimate,
    level_crossing_time,
    nth_central_diff,
    second_central_diff,
    second_left_diff,
)
from logistic_horizon import series as series_module
from logistic_horizon.estimate import METHODS, run_method

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


def test_str_labels_are_kept_as_given():
    labels = tuple(f"week {i}" for i in range(5))
    ts = TimeSeries(labels, (1.0, 2.0, 3.0, 4.0, 5.0), "raw")
    assert ts.labels is labels
    assert TimeSeries(list(labels), [1, 2, 3, 4, 5], "raw").labels == labels


def _points(ts):
    # a point at every index of a hand-built difference series, so each label is read
    ds = DiffSeries(source=ts, kind="scd", array=(None,) * len(ts))
    return [series_module._make_point(ds, i, GLOBAL_MAX) for i in range(len(ts))]


@pytest.mark.parametrize(
    "labels",
    [
        (1, 2, 3),
        tuple(np.arange(3)),
        ("a", 2, np.int64(3)),
        (1.5, "b", None),
        tuple(np.array(["x", "y", "z"])),  # numpy.str_, a str subclass
        (0.5, -0.0, 1e300),
    ],
)
def test_other_labels_become_str(labels):
    # the series keeps them as given, the same tuple; a detected point shows str() of its label
    ts = TimeSeries(labels, (1.0, 2.0, 3.0), "raw")
    assert ts.labels is labels
    assert all(a is b for a, b in zip(TimeSeries(list(labels), (1.0, 2.0, 3.0), "raw").labels, labels))
    points = _points(ts)
    assert [point.label for point in points] == [str(label) for label in labels]
    assert all(type(point.label) is str for point in points)


def test_generator_labels_become_str():
    # a generator is read once into a tuple of what it yields; points show its str()
    ts = TimeSeries((i / 2 for i in range(3)), (1.0, 2.0, 3.0), "raw")
    assert ts.labels == (0.0, 0.5, 1.0) and all(type(label) is float for label in ts.labels)
    assert [point.label for point in _points(ts)] == ["0.0", "0.5", "1.0"]
    assert TimeSeries((f"w{i}" for i in range(3)), (1.0, 2.0, 3.0), "raw").labels == ("w0", "w1", "w2")


def test_labels_are_converted_when_read():
    # the series keeps the label objects it was given; a point applies str() when it is made
    week = ["week", 1]
    ts = TimeSeries(("a", week), (1.0, 2.0), "raw")
    assert ts.labels == ("a", ["week", 1]) and ts.labels[1] is week
    week[1] = 2
    assert ts.labels == ("a", ["week", 2])
    ds = DiffSeries(source=ts, kind="scd", array=(None, None))
    assert series_module._make_point(ds, 1, GLOBAL_MAX).label == "['week', 2]"
    # a list label is unhashable, and so is the series
    with pytest.raises(TypeError):
        hash(ts)
    assert ts == TimeSeries(("a", ["week", 2]), (1.0, 2.0), "raw")


def test_series_compares_by_its_labels_as_given():
    ts = TimeSeries((1, 2, np.int64(3)), (1.0, 2.0, 4.0), "cumulative")
    twin = TimeSeries(("1", "2", "3"), (1.0, 2.0, 4.0), "cumulative")
    assert ts != twin
    same = TimeSeries([1, 2, 3], [1, 2, 4], "cumulative")
    assert ts == same and hash(ts) == hash(same)
    assert repr(ts) == "TimeSeries(labels=(1, 2, np.int64(3)), values=(1.0, 2.0, 4.0), kind='cumulative')"
    assert repr(twin) == "TimeSeries(labels=('1', '2', '3'), values=(1.0, 2.0, 4.0), kind='cumulative')"
    assert len(ts) == 3
    for clone in (pickle.loads(pickle.dumps(ts)), copy.deepcopy(ts), copy.copy(ts)):
        assert clone == ts and hash(clone) == hash(ts) and clone != twin
        assert [type(label) for label in clone.labels] == [int, int, np.int64]
    for changes in ({"kind": "raw"}, {"values": (1.0, 2.0, 8.0)}):
        moved = dataclasses.replace(ts, **changes)
        assert moved.labels is ts.labels and moved != dataclasses.replace(twin, **changes)
    assert cumulate(dataclasses.replace(ts, kind="raw")).labels is ts.labels


def _label_variants(ts):
    n = len(ts)
    yield ts
    yield TimeSeries(range(n), ts.values, ts.kind)
    yield TimeSeries(tuple(np.array(ts.labels)), ts.values, ts.kind)  # numpy.str_
    yield TimeSeries([float(i) if i % 2 else str(i) for i in range(n)], ts.values, ts.kind)
    yield TimeSeries([[i] for i in range(n)], ts.values, ts.kind)  # unhashable


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
def test_point_labels_are_the_series_labels():
    windows = [_window(), _quadratic_levels(), cumulate(get_fixture("medical-qmd").series)]
    seen = set()
    for ts in (v for w in windows for v in _label_variants(w)):
        for policy in POLICIES:
            for run in (
                lambda: estimate_scd(ts, policy=policy).char_point,
                lambda: estimate_sld(ts, policy=policy).char_point,
                lambda: higher_order_estimate(ts, 4, policy=policy).char_point,
                lambda: find_characteristic_point(second_left_diff(ts), policy),
            ):
                try:
                    point = run()
                    seen.add(policy)
                except CharacteristicPointNotFound as exc:
                    point = exc.fallback
                    seen.add("fallback")
                assert point.label == str(ts.labels[point.index])
                assert type(point.label) is str
    assert seen == {*POLICIES, "fallback"}


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
def test_estimators_do_not_depend_on_the_labels():
    # str, int and unhashable labels: every method and policy gives the same
    # outcome, bit for bit, and nothing hashes a series on the way
    raw = get_fixture("loyalty-nlc").series
    n = len(raw)
    variants = [raw, TimeSeries(range(n), raw.values, "raw"), TimeSeries([[i] for i in range(n)], raw.values, "raw")]
    levels = [cumulate(ts) for ts in variants]
    assert [len(ts) for ts in levels] == [n] * 3 and levels[1].labels == tuple(range(n))

    def outcome(call):
        try:
            est = call()
        except CharacteristicPointNotFound as exc:  # its message names the fallback's label
            return "not found", exc.fallback.index
        except LogisticHorizonError as exc:
            return type(exc).__name__, str(exc)
        if isinstance(est, tuple):  # fit_logistic_nlls
            return repr(est)
        point = est.char_point
        return est.u_max_hat.hex(), None if point is None else (point.index, point.diff_value.hex())

    for calls in zip(
        *(
            [partial(run_method, m, ts, n=5, policy=p) for m in METHODS for p in POLICIES]
            + [partial(fit_logistic_nlls, ts)]
            for ts in levels
        )
    ):
        got = [outcome(call) for call in calls]
        assert got[0] == got[1] == got[2], got


def _bit_equal(array, values):
    # float64, read-only, nan exactly where values holds None
    assert array.dtype == np.float64 and array.shape == (len(values),)
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 0.0
    for x, v in zip(array.tolist(), values):
        assert math.isnan(x) if v is None else x.hex() == v.hex()


def test_time_series_array_is_read_only_and_bit_equal():
    ts = TimeSeries(tuple("abcd"), (3, 0.1, -0.0, 2.5e300), "raw")
    _bit_equal(ts.array, ts.values)
    assert all(type(v) is float for v in ts.values)


def test_time_series_array_leaves_eq_hash_pickle_and_replace_alone():
    ts = TimeSeries(tuple("abc"), (1.0, 2.0, 4.0), "cumulative")
    twin = TimeSeries(["a", "b", "c"], [1, 2, 4], "cumulative")
    assert ts == twin and hash(ts) == hash(twin)
    assert ts != TimeSeries(tuple("abc"), (1.0, 2.0, 5.0), "cumulative")
    assert "array" not in repr(ts)
    for clone in (pickle.loads(pickle.dumps(ts)), copy.deepcopy(ts), copy.copy(ts)):
        assert clone == ts and hash(clone) == hash(ts)
        _bit_equal(clone.array, clone.values)
    moved = dataclasses.replace(ts, values=(1.0, 2.0, 8.0))
    assert moved.values == (1.0, 2.0, 8.0) and moved.labels == ts.labels
    _bit_equal(moved.array, moved.values)
    relabelled = dataclasses.replace(ts, labels=("x", "y", "z"))
    assert relabelled.values == ts.values and relabelled.array.tobytes() == ts.array.tobytes()
    with pytest.raises(ValueError):
        dataclasses.replace(ts, array=np.zeros(3))
    # the array is the only copy of the data: values is a new tuple on every read
    assert ts.values == ts.values and ts.values is not ts.values
    assert repr(ts) == "TimeSeries(labels=('a', 'b', 'c'), values=(1.0, 2.0, 4.0), kind='cumulative')"


def test_diff_series_array_follows_values():
    ts = TimeSeries(tuple("abcdef"), (1.0, 2.0, 4.0, 7.0, 9.0, 10.0), "cumulative")
    for ds in (second_central_diff(ts), second_left_diff(ts), nth_central_diff(ts, 3)):
        _bit_equal(ds.array, ds.values)
        # one constructor: a tuple with None gives the stencil's array byte for byte
        by_hand = DiffSeries(source=ts, kind=ds.kind, array=ds.values)
        _bit_equal(by_hand.array, by_hand.values)
        assert by_hand.array.tobytes() == ds.array.tobytes()
        # equality and hash are by identity; repr shows the array
        assert by_hand != ds and ds == ds and hash(ds) == object.__hash__(ds)
        assert "array=array([" in repr(ds)
        clone = pickle.loads(pickle.dumps(ds))
        assert clone.array.tobytes() == ds.array.tobytes() and clone.values == ds.values
        moved = dataclasses.replace(ds, array=(None, 5.0, 6.0, 7.0, 8.0, None))
        _bit_equal(moved.array, moved.values)
        with pytest.raises(DomainError, match="diff values must align with the source series"):
            dataclasses.replace(ds, array=ds.values[:-1])
        with pytest.raises(DomainError, match="diff values must align with the source series"):
            dataclasses.replace(ds, array=np.zeros((2, 3)))


def test_diff_series_copies_the_array_it_is_given():
    ts = TimeSeries(tuple("abcde"), (1.0, 2.0, 4.0, 7.0, 9.0), "cumulative")
    given = np.array([np.nan, 1.0, 2.0, 0.5, np.nan])
    ds = DiffSeries(ts, "scd", given)
    assert given.flags.writeable and ds.array is not given
    given[1] = 99.0
    assert ds.values == (None, 1.0, 2.0, 0.5, None)
    assert find_characteristic_point(ds).index == 2
    _bit_equal(ds.array, ds.values)


def test_diff_series_pickle_and_copy_keep_a_read_only_array():
    ts = TimeSeries(tuple("abcdef"), (1.0, 2.0, 4.0, 7.0, 9.0, 10.0), "cumulative")
    ds = second_central_diff(ts)
    for clone in (pickle.loads(pickle.dumps(ds)), copy.copy(ds), copy.deepcopy(ds)):
        _bit_equal(clone.array, ds.values)
        assert clone.array.tobytes() == ds.array.tobytes() and clone.values == ds.values
        assert (clone.source, clone.kind) == (ds.source, ds.kind)


def test_overflowed_stencil_slots_read_none():
    # inf - inf in the order-3 stencil leaves nan in every computed slot
    ds = nth_central_diff(TimeSeries(tuple("abcdefgh"), (1e308,) * 8, "cumulative"), 3)
    assert ds.values == (None,) * 8
    assert np.isnan(ds.array).all()
    # the stencil's nan is the one a hand-built None becomes, bit for bit
    assert DiffSeries(ds.source, ds.kind, ds.values).array.tobytes() == ds.array.tobytes()
    for order in (4, 5):
        with pytest.raises(DomainError, match="need at least 3 defined difference values, got 0"):
            higher_order_estimate(ds.source, order)


def test_time_series_accepts_finite_values_whose_sum_overflows():
    ts = TimeSeries(tuple("abc"), (1e308, 1e308, -1e308), "raw")
    assert ts.values == (1e308, 1e308, -1e308)
    _bit_equal(ts.array, ts.values)


def test_time_series_names_the_first_nonfinite_index_of_any_input():
    with pytest.raises(DomainError, match=r"value at index 3 is not finite: inf"):
        TimeSeries([1, 2, 3, 4, 5], [1, 2.0, np.float64(3), np.inf, np.nan], "raw")


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
    ds = DiffSeries(source=src, kind="scd", array=values)
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
    ds = DiffSeries(source=src, kind="scd", array=values)
    point = find_characteristic_point(ds)
    assert point.index == 2
    assert point.ambiguity == ()


def test_ambiguity_includes_rival_local_max_even_when_far():
    values = (None, 0.0, 10.0, 0.0, 0.5, 0.2, None)
    src = TimeSeries(tuple(str(i) for i in range(7)), tuple(range(7)), "raw")
    ds = DiffSeries(source=src, kind="scd", array=values)
    point = find_characteristic_point(ds)
    assert point.index == 2
    assert dict(point.ambiguity) == {4: 0.5}


def _counting_rival_builds():
    return mock.patch("logistic_horizon.series._ambiguity", wraps=series_module._ambiguity)


def _quadratic_levels():
    # a constant SCD: no strict local maximum under any policy but global-max
    return TimeSeries(tuple("abcdefgh"), tuple(t * t for t in range(8)), "cumulative")


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
def test_detection_and_estimates_build_no_rivals():
    found = get_fixture("mobile-slovakia").series
    specs = [GenSpec(LogisticParams(1000.0, 200.0, 0.4), 41, noise_sd=sd) for sd in (0.0, 5.0)]
    with _counting_rival_builds() as spy:
        for ts in (found, _quadratic_levels()):
            for policy in POLICIES:
                for run in (
                    lambda: find_characteristic_point(second_central_diff(ts), policy),
                    lambda: estimate_scd(ts, policy=policy),
                    lambda: estimate_sld(ts, policy=policy),
                    lambda: higher_order_estimate(ts, 4, policy=policy),
                ):
                    try:
                        run()
                    except CharacteristicPointNotFound as exc:
                        assert exc.fallback.policy_used == GLOBAL_MAX
        rows = benchmark_estimators(specs, [9, 20, 41])
    assert {row["status"] for row in rows} >= {"ok", "not-found"}
    assert spy.call_count == 0


def test_each_read_of_the_rivals_builds_them_once():
    ds = second_central_diff(get_fixture("mobile-slovakia").series)
    point = find_characteristic_point(ds)
    with pytest.raises(CharacteristicPointNotFound) as info:
        find_characteristic_point(second_central_diff(_quadratic_levels()))
    for p in (point, info.value.fallback):
        with _counting_rival_builds() as spy:
            first = p.ambiguity
            assert spy.call_count == 1
            assert p.ambiguity == first and spy.call_count == 2
        a = p.diff_series.array
        assert first == series_module._ambiguity(p.index, a)
    assert point.diff_series is ds


def test_rivals_survive_pickle_and_deepcopy():
    est = estimate_scd(_window())
    with pytest.raises(CharacteristicPointNotFound) as info:
        find_characteristic_point(second_central_diff(_quadratic_levels()))
    for point in (est.char_point, info.value.fallback):
        rivals = point.ambiguity
        assert rivals  # non-empty, so the comparisons below say something
        for clone in (pickle.loads(pickle.dumps(point)), copy.deepcopy(point)):
            assert clone == point and clone.ambiguity == rivals
    for clone in (pickle.loads(pickle.dumps(est)), copy.deepcopy(est)):
        assert clone.char_point.ambiguity == est.char_point.ambiguity
    exc = pickle.loads(pickle.dumps(info.value))
    assert exc.fallback.ambiguity == info.value.fallback.ambiguity


def test_point_equality_hash_and_repr_leave_the_diff_series_out():
    one, two = (find_characteristic_point(second_central_diff(_window())) for _ in range(2))
    assert one.diff_series is not two.diff_series
    assert one == two and hash(one) == hash(two)
    assert repr(one) == (
        "CharacteristicPoint(index=3, label='08/12', diff_value=358.0, "
        "series_value=100776.0, policy_used='first-local-max')"
    )


def test_global_max_looks_for_no_local_maxima():
    ds = second_central_diff(_window())
    calls = {}
    for policy in POLICIES:
        with mock.patch.object(
            series_module, "_strict_local_maxima", wraps=series_module._strict_local_maxima
        ) as spy:
            point = find_characteristic_point(ds, policy)
            estimate_scd(_window(), policy=policy)
        calls[policy] = spy.call_count
        assert point.ambiguity  # reading the rivals still finds them
    assert calls == {GLOBAL_MAX: 0, FIRST_LOCAL_MAX: 2, LAST_LOCAL_MAX_BEFORE_DECLINE: 2}


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
