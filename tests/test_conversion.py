"""A TimeSeries reads its values as float() does, on one of two paths.

Any container with a ``len()`` is packed by ``struct`` in one C pass:
a tuple, a list, an ndarray of any dtype.  ``np.fromiter`` reads only
what has no ``len()``, such as a generator, and what ``struct``
refuses.  ``struct`` refuses None (read as nan, then refused as not
finite) and str, which ``float()`` parses, and on any value ``float()``
refuses it raises ``struct.error``, so ``np.fromiter`` reads the input
again and raises ``float()``'s own exception type.  For every value
``struct`` accepts, it reads as ``float()`` does: ``__float__``, then
``__index__``.

The reference converts value by value with ``float()``.  A series built
from the same input must hold the same bits, read back the same floats,
compare and hash like a series built from the reference tuple, and
refuse every input that ``float()`` refuses.  Two refusals changed
type when the per-value ``float()`` pass went: None now reads as nan
and is refused as not finite (a ``DomainError``, was ``TypeError``),
and a sequence in place of a value raises ``ValueError`` (was
``TypeError``).
"""

import math
import re
import struct
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logistic_horizon import DomainError, GenSpec, LogisticParams, TimeSeries, cumulate, generate

# 150 examples, or more under the active profile, such as "thorough"
# (see conftest.py)
SETTINGS = settings(
    deadline=None, database=None, max_examples=max(150, settings.default.max_examples)
)

value = st.one_of(
    st.floats(),  # nan and both infinities included
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**53 + 1, 2**63 + 1, -(2**63) - 1, 2**64 + 3]),
    st.integers(2**1023, 2**1025),  # past the float range from 2**1024 on
    st.booleans(),
    st.none(),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.decimals(),
    st.fractions(),
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from([" 1_000 ", "-0", "1e999", "١٢٣", "nan", "abc", "", "0x10"]),
)
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda v: (x for x in v),
    "ndarray": lambda v: np.array(v, dtype=object),
}


def expected(vals):
    """The floats float() reads from vals, or the exception type the
    series raises: float()'s own, except that None reads as nan."""
    for v in vals:
        if v is not None:
            try:
                float(v)
            except Exception as exc:
                return type(exc)
    return tuple(math.nan if v is None else float(v) for v in vals)


def reaches_fromiter(vals, container):
    """Whether np.fromiter reads vals: a container with no len(), or a
    value that struct refuses (None, str, or one float() refuses)."""
    refused = any(v is None or isinstance(v, str) for v in vals) or isinstance(expected(vals), type)
    return container == "generator" or refused


def _labels(n):
    return tuple(str(i) for i in range(n))


NUMBERS = [1.5, -0.0, 5e-324, 7, -(2**63), 2**53 + 1, True, False, np.float32(0.1), np.int64(-3),
           np.float64(2.5), Decimal("0.1"), Fraction(1, 3)]


@SETTINGS
@given(st.lists(value, max_size=30), st.sampled_from(sorted(CONTAINERS)))
@example([2**63 + 1, True, Decimal("0.1"), Fraction(1, 3), "1_000", np.float32(0.1)], "generator")
@example([1.0, None, 2.0], "tuple")
@example([1.0, "abc", None], "list")
@example([1e308, 1e308], "ndarray")  # packed, np.fromiter never called
@example(NUMBERS, "tuple")
@example(NUMBERS, "list")
@example(NUMBERS, "ndarray")
@example([], "tuple")
@example([], "ndarray")
@example([1.0, None], "list")  # read by np.fromiter from here on
@example([1.0, None], "ndarray")
@example(["1.5", 2.0], "tuple")
@example([1.0, 2**1024], "list")
@example([1.0, 2**1024], "ndarray")
@example([1.0, -(2**1025)], "tuple")
@example([1.0, Decimal("sNaN")], "tuple")
@example(NUMBERS, "generator")
@example([], "generator")
def test_conversion_matches_float(vals, container):
    want = expected(vals)
    given_values = CONTAINERS[container](vals)
    reaches = reaches_fromiter(vals, container)
    # np.fromiter is watched where it should read the input, and raises where it should not
    fromiter = mock.Mock(wraps=np.fromiter) if reaches else mock.Mock(side_effect=AssertionError("np.fromiter called"))
    with mock.patch.object(np, "fromiter", fromiter):
        try:
            ts = TimeSeries(_labels(len(vals)), given_values, "raw")
        except Exception as exc:  # checked against float() below
            ts = exc
    assert fromiter.called == reaches
    if isinstance(want, type):
        assert isinstance(ts, want), ts
        return
    bad = [i for i, x in enumerate(want) if not math.isfinite(x)]
    if not want or bad:
        message = (
            f"value at index {bad[0]} is not finite: {want[bad[0]]!r}" if bad else "at least one observation"
        )
        assert isinstance(ts, DomainError) and re.search(message, str(ts))
        return
    assert ts.array.tobytes() == struct.pack(f"={len(want)}d", *want)
    assert [x.hex() for x in ts.values] == [x.hex() for x in want]
    assert all(type(x) is float for x in ts.values)
    twin = TimeSeries(_labels(len(vals)), want, "raw")
    assert ts == twin and hash(ts) == hash(twin)


@pytest.mark.parametrize(
    "array",
    [
        np.array([-0.0, 5e-324, 1e308, 0.1]),
        np.array([2**62 + 1, -(2**63), 7], dtype=np.int64),
        np.array([0.1, 3.0], dtype=np.float32),
        np.array([True, False]),
    ],
)
def test_numeric_arrays_convert_as_float_does(array):
    with mock.patch.object(np, "fromiter", side_effect=AssertionError("np.fromiter called")):
        ts = TimeSeries(_labels(len(array)), array, "raw")
    want = tuple(float(x) for x in array)
    assert ts.array.tobytes() == struct.pack(f"={len(want)}d", *want)
    assert ts == TimeSeries(_labels(len(want)), want, "raw")


def test_refusals_that_changed_type():
    with pytest.raises(DomainError, match=r"value at index 1 is not finite: nan"):
        TimeSeries(tuple("abc"), (1.0, None, 2.0), "raw")
    with pytest.raises(ValueError):
        TimeSeries(tuple("ab"), [1.0, [2.0]], "raw")


def test_long_series_array_is_float64_aligned_and_read_only():
    # a long-series shape: 10^4 noiseless points, inflection halfway
    spec = GenSpec(params=LogisticParams(1000.0, 100.0, math.log(100.0) / 5000), n_points=10_000)
    values = generate(spec).values
    want = np.fromiter(values, float).tobytes()
    for container in (tuple, list):
        a = TimeSeries(_labels(len(values)), container(values), "cumulative").array
        assert a.dtype == np.float64 and a.flags.aligned and a.flags.c_contiguous
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
        assert a.tobytes() == want


def test_cumulate_packs_its_prefix_sums_without_fromiter():
    # mixed signs and magnitudes, so that the order of the additions shows
    rng = np.random.default_rng(5)
    raw = TimeSeries(_labels(10_000), (rng.standard_normal(10_000) * 10.0 ** rng.uniform(-8, 8, 10_000)).tolist())
    want = np.cumsum(raw.array).tobytes()
    with mock.patch.object(np, "fromiter", side_effect=AssertionError("np.fromiter called")):
        levels = cumulate(raw)
    assert levels.kind == "cumulative" and levels.labels == raw.labels
    assert levels.array.tobytes() == want
