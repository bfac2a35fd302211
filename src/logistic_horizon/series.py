"""Equally spaced time series, discrete second differences, and
characteristic-point detection.

A characteristic point is the sample index playing the role of a zero
of some derivative of an underlying growth curve.  For the third
derivative this is where the second derivative peaks, so on sampled
data it is found as a local maximum of the second central difference
(SCD) or the second left difference (SLD):

    SCD[t] = (y[t+1] - 2 y[t] + y[t-1]) / 2      (undefined at both ends)
    SLD[t] = (y[t] - 2 y[t-1] + y[t-2]) / 2      (undefined at first two)

The index is the time axis: series are equally spaced by construction
and any calendar bookkeeping lives in the labels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CharacteristicPointNotFound, DomainError, require_int

SERIES_KINDS = ("raw", "cumulative")

FIRST_LOCAL_MAX = "first-local-max"
LAST_LOCAL_MAX_BEFORE_DECLINE = "last-local-max-before-decline"
GLOBAL_MAX = "global-max"
POLICIES = (FIRST_LOCAL_MAX, LAST_LOCAL_MAX_BEFORE_DECLINE, GLOBAL_MAX)


@dataclass(frozen=True, init=False)
class TimeSeries:
    """Labelled, equally spaced observations.

    kind says how the values are to be read: "raw" for per-period
    increments, "cumulative" for running levels.  Every estimator
    refuses a raw series: it needs levels.  A series holds its values
    once, as the read-only float64 array `array`, each value as float()
    reads it: struct packs any container with a len() in one C pass, and
    np.fromiter reads the rest and what struct refuses (None as nan,
    str, a value float() refuses).  `values` is built from it when read,
    as a new tuple of floats each time.  `labels` is the tuple of the
    labels as given, of any type; a detected point's label is str() of
    its series label.  ==, hash, repr, dataclasses.replace and pickle go
    by labels, values and kind, so labels (1, 2) do not equal ("1", "2")
    and an unhashable label makes hash() raise TypeError.
    """

    labels: tuple
    values: tuple[float, ...]  # the property below; a field for ==, hash, repr and replace
    kind: str = "raw"
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, labels, values, kind: str = "raw"):
        labels = tuple(labels)
        try:
            y = np.frombuffer(struct.Struct(f"{len(values)}d").pack(*values))
        except (TypeError, struct.error):  # no len(), None, str, ...: fromiter reads or raises as float()
            y = np.fromiter(values, float)
        if len(labels) != len(y):
            raise DomainError(f"labels and values differ in length ({len(labels)} vs {len(y)})")
        if len(y) == 0:
            raise DomainError("series must contain at least one observation")
        if kind not in SERIES_KINDS:
            raise DomainError(f"kind must be one of {SERIES_KINDS}, got {kind!r}")
        finite = np.isfinite(y)
        if np.count_nonzero(finite) < len(y):
            i = int(finite.argmin())
            raise DomainError(f"value at index {i} is not finite: {float(y[i])!r}")
        y.setflags(write=False)
        self.__dict__.update(labels=labels, kind=kind, array=y)  # frozen: no __setattr__

    def __reduce__(self):  # pickle and copy go through __init__: a fresh read-only array
        return type(self), (self.labels, self.values, self.kind)

    def __len__(self) -> int:
        return len(self.array)

    @property
    def values(self) -> tuple[float, ...]:
        """The array as a tuple of floats; every read builds a new tuple."""
        return tuple(self.array.tolist())


@dataclass(frozen=True, eq=False)  # an ndarray cannot take part in == or hash
class DiffSeries:
    """A difference transform of a series, aligned index-for-index.

    array is a read-only float64 copy of what it is given, one slot per
    source observation, nan (None in a tuple) where the stencil would
    reach outside the series.  kind is "scd", "sld" or "central-k" (order k).
    """

    source: TimeSeries
    kind: str
    array: np.ndarray

    def __post_init__(self):
        a = np.array(self.array, dtype=float)
        if a.shape != (len(self.source),):
            raise DomainError("diff values must align with the source series")
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    def __reduce__(self):  # pickle and copy go through __init__: a fresh read-only array
        return type(self), (self.source, self.kind, self.array)

    @property
    def values(self) -> tuple:
        """The array as a tuple, None where it is nan; every read builds a new tuple."""
        return tuple(None if v != v else v for v in self.array.tolist())


@dataclass(frozen=True)
class CharacteristicPoint:
    """A detected index, with enough context to audit the decision.

    diff_series is the difference series the point was found on; ==,
    hash and repr leave it out.  ambiguity is computed from it when
    read, as a new tuple each time: every rival candidate as an (index,
    diff_value) pair, in index order, namely all other strict local
    maxima plus every defined value close to the winner (within a
    quarter of the winner's height above the minimum).  Rivals are
    diagnostic only; they never change the selection.
    """

    index: int
    label: str
    diff_value: float
    series_value: float
    policy_used: str
    diff_series: DiffSeries = field(repr=False, compare=False)

    @property
    def ambiguity(self) -> tuple[tuple[int, float], ...]:
        """The rival pairs, computed from diff_series on every read."""
        return _ambiguity(self.index, self.diff_series.array)


@np.errstate(over="ignore")  # a sum that overflows is refused below as not finite
def cumulate(ts: TimeSeries) -> TimeSeries:
    """Prefix sums of a raw series, added left to right; labels are kept."""
    if ts.kind != "raw":
        raise DomainError("series is already cumulative")
    # as a list of floats, which struct packs faster than the array's numpy scalars
    return TimeSeries(labels=ts.labels, values=np.cumsum(ts.array).tolist(), kind="cumulative")


def _require_length(ts: TimeSeries, minimum: int) -> None:
    if len(ts) < minimum:
        raise DomainError(f"series too short: need at least {minimum} points, got {len(ts)}")


@np.errstate(over="ignore", invalid="ignore")
def _second_diff(ts: TimeSeries, kind: str, lead: int) -> DiffSeries:
    # one stencil ((y[t+1] - 2 y[t]) + y[t-1]) / 2, written from slot `lead` on;
    # here and below, overflow yields inf silently, as scalar floats do
    _require_length(ts, 3)
    y = ts.array
    a, d = _padded(len(y), lead, len(y) - 2)
    np.subtract(y[2:], np.multiply(y[1:-1], 2.0, out=d), out=d)
    d += y[:-2]
    d /= 2.0
    return DiffSeries(ts, kind, a)


def _padded(n: int, lead: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.empty(n)
    a.fill(np.nan)
    return a, a[lead : lead + m]


def second_central_diff(ts: TimeSeries) -> DiffSeries:
    """(y[t+1] - 2 y[t] + y[t-1]) / 2 at the interior indices."""
    return _second_diff(ts, "scd", 1)


def second_left_diff(ts: TimeSeries) -> DiffSeries:
    """(y[t] - 2 y[t-1] + y[t-2]) / 2, defined from index 2 on."""
    return _second_diff(ts, "sld", 2)


@np.errstate(over="ignore", invalid="ignore")
def nth_central_diff(ts: TimeSeries, order: int) -> DiffSeries:
    """Order-k central difference divided by 2, the SCD generalization.

    The stencil is the k-th forward difference over the window starting
    at t - k//2, so order 2 reproduces second_central_diff slot for
    slot (including the halving, which detectors do not care about but
    golden tables do).
    """
    require_int(order, "difference order", 2)
    _require_length(ts, order + 1)
    y = ts.array
    m = len(y) - order
    a, acc = _padded(len(y), order // 2, m)
    acc.fill(0.0)  # the +0.0 start fixes the sign of a zero sum
    coef = 1  # (-1)^j C(order, j) as an exact int, rounded to float once where it is used
    for j in range(order + 1):
        acc += coef * y[order - j : order - j + m]
        coef = coef * (j - order) // (j + 1)
    acc[acc != acc] = np.nan  # inf - inf gives -nan; store the plain nan that None converts to
    acc /= 2.0
    return DiffSeries(ts, "scd" if order == 2 else f"central-{order}", a)


def _strict_local_maxima(a: np.ndarray) -> np.ndarray:
    # both neighbors must exist and be defined; plateaus never qualify
    mid = a[1:-1]
    return ((mid > a[:-2]) & (mid > a[2:])).nonzero()[0] + 1


def _first_index_of(a: np.ndarray, value) -> int:
    # earliest index on ties; nan slots never match, unlike in nanargmax
    return int((a == value).argmax())


@np.errstate(over="ignore", invalid="ignore")
def _ambiguity(winner: int, a: np.ndarray) -> tuple[tuple[int, float], ...]:
    winner_value = a[winner]
    rival = winner_value - a <= 0.25 * (winner_value - np.fmin.reduce(a))
    rival[_strict_local_maxima(a)] = True
    rival[winner] = False
    idx = rival.nonzero()[0]
    return tuple(zip(idx.tolist(), a[idx].tolist()))


def _make_point(ds: DiffSeries, index: int, policy: str) -> CharacteristicPoint:
    return CharacteristicPoint(
        index=index,
        label=str(ds.source.labels[index]),
        diff_value=float(ds.array[index]),
        series_value=float(ds.source.array[index]),
        policy_used=policy,
        diff_series=ds,
    )


def find_characteristic_point(ds: DiffSeries, policy: str = FIRST_LOCAL_MAX) -> CharacteristicPoint:
    """Select the characteristic index of a difference series.

    first-local-max takes the earliest index strictly above both
    neighbors.  global-max takes the largest defined value, earliest on
    ties.  last-local-max-before-decline takes the last strict local
    max occurring before the series first reaches its global minimum;
    it exists for data whose growth phase ended inside the window, and
    it is the policy under which a late prominent peak wins over early
    wiggle.

    When the requested policy finds no admissible index, the raised
    error carries the global-max point as a fallback suggestion.
    """
    if policy not in POLICIES:
        raise DomainError(f"policy must be one of {POLICIES}, got {policy!r}")
    # undefined slots are nan, which every comparison rejects
    a = ds.array
    n_defined = int(np.count_nonzero(a == a))
    if n_defined < 3:
        raise DomainError(f"need at least 3 defined difference values, got {n_defined}")

    if policy != GLOBAL_MAX:
        candidates = _strict_local_maxima(a)
        if policy == LAST_LOCAL_MAX_BEFORE_DECLINE:
            candidates = candidates[candidates < _first_index_of(a, np.fmin.reduce(a))]
        if len(candidates):
            index = candidates[0] if policy == FIRST_LOCAL_MAX else candidates[-1]
            return _make_point(ds, int(index), policy)
    top = _make_point(ds, _first_index_of(a, np.fmax.reduce(a)), GLOBAL_MAX)
    if policy == GLOBAL_MAX:
        return top
    raise CharacteristicPointNotFound(
        f"no strict local maximum admissible under policy {policy!r}; "
        f"global maximum is at index {top.index} (label {top.label!r})",
        fallback=top,
    )
