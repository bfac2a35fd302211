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

import itertools
import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import CharacteristicPointNotFound, DomainError

SERIES_KINDS = ("raw", "cumulative")

FIRST_LOCAL_MAX = "first-local-max"
LAST_LOCAL_MAX_BEFORE_DECLINE = "last-local-max-before-decline"
GLOBAL_MAX = "global-max"
POLICIES = (FIRST_LOCAL_MAX, LAST_LOCAL_MAX_BEFORE_DECLINE, GLOBAL_MAX)


@dataclass(frozen=True)
class TimeSeries:
    """Labelled, equally spaced observations.

    kind says how the values are to be read: "raw" for per-period
    increments, "cumulative" for running levels.  Estimators that
    assume a level series check this field.
    """

    labels: tuple[str, ...]
    values: tuple[float, ...]
    kind: str = "raw"

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(map(str, self.labels)))
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if len(self.labels) != len(self.values):
            raise DomainError(
                f"labels and values differ in length ({len(self.labels)} vs {len(self.values)})"
            )
        if len(self.values) == 0:
            raise DomainError("series must contain at least one observation")
        if self.kind not in SERIES_KINDS:
            raise DomainError(f"kind must be one of {SERIES_KINDS}, got {self.kind!r}")
        if not all(map(math.isfinite, self.values)):
            i = list(map(math.isfinite, self.values)).index(False)
            raise DomainError(f"value at index {i} is not finite: {self.values[i]!r}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DiffSeries:
    """A difference transform of a series, aligned index-for-index.

    values has one slot per source observation; slots where the stencil
    would reach outside the series hold None instead of a number.  kind
    is "scd", "sld", or "central-k" for the order-k generalization.
    """

    source: TimeSeries
    kind: str
    values: tuple = field(default=())

    def __post_init__(self):
        if len(self.values) != len(self.source):
            raise DomainError("diff values must align with the source series")


@dataclass(frozen=True)
class CharacteristicPoint:
    """A detected index, with enough context to audit the decision.

    ambiguity holds rival candidates as (index, diff_value) pairs: all
    other strict local maxima plus any defined value close to the
    winner (within a quarter of the winner's height above the minimum).
    Rivals are diagnostic only; they never change the selection.
    """

    index: int
    label: str
    diff_value: float
    series_value: float
    policy_used: str
    ambiguity: tuple[tuple[int, float], ...] = ()


def cumulate(ts: TimeSeries) -> TimeSeries:
    """Prefix sums of a raw series; labels are kept."""
    if ts.kind != "raw":
        raise DomainError("series is already cumulative")
    return TimeSeries(
        labels=ts.labels,
        values=tuple(itertools.accumulate(ts.values)),
        kind="cumulative",
    )


def _require_length(ts: TimeSeries, minimum: int) -> None:
    if len(ts) < minimum:
        raise DomainError(f"series too short: need at least {minimum} points, got {len(ts)}")


@np.errstate(over="ignore", invalid="ignore")
def _second_diff(ts: TimeSeries, kind: str, lead: int) -> DiffSeries:
    # one stencil ((y[t+1] - 2 y[t]) + y[t-1]) / 2, placed `lead` slots in;
    # here and below, overflow yields inf silently, as scalar floats do
    _require_length(ts, 3)
    y = np.asarray(ts.values)
    inner = tuple((((y[2:] - 2.0 * y[1:-1]) + y[:-2]) / 2.0).tolist())
    return DiffSeries(source=ts, kind=kind, values=(None,) * lead + inner + (None,) * (2 - lead))


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
    if not isinstance(order, int) or isinstance(order, bool) or order < 2:
        raise DomainError(f"difference order must be an integer >= 2, got {order!r}")
    _require_length(ts, order + 1)
    y = np.asarray(ts.values)
    m = len(y) - order
    acc = np.zeros(m)
    for j in range(order + 1):
        acc = acc + (-1) ** j * comb(order, j) * y[order - j : order - j + m]
    lo = order // 2
    vals = (None,) * lo + tuple((acc / 2.0).tolist()) + (None,) * (order - lo)
    kind = "scd" if order == 2 else f"central-{order}"
    return DiffSeries(source=ts, kind=kind, values=vals)


def _strict_local_maxima(a: np.ndarray) -> np.ndarray:
    # both neighbors must exist and be defined; plateaus never qualify
    mid = a[1:-1]
    return ((mid > a[:-2]) & (mid > a[2:])).nonzero()[0] + 1


def _first_index_of(a: np.ndarray, value) -> int:
    # earliest index on ties; nan slots never match, unlike in nanargmax
    return int((a == value).argmax())


@np.errstate(over="ignore", invalid="ignore")
def _ambiguity(winner: int, a: np.ndarray, maxima: np.ndarray) -> tuple[tuple[int, float], ...]:
    winner_value = a[winner]
    rival = winner_value - a <= 0.25 * (winner_value - np.fmin.reduce(a))
    rival[maxima] = True
    rival[winner] = False
    idx = rival.nonzero()[0]
    return tuple(zip(idx.tolist(), a[idx].tolist()))


def _make_point(ds: DiffSeries, a: np.ndarray, maxima: np.ndarray, index: int, policy: str):
    return CharacteristicPoint(
        index=index,
        label=ds.source.labels[index],
        diff_value=ds.values[index],
        series_value=ds.source.values[index],
        policy_used=policy,
        ambiguity=_ambiguity(index, a, maxima),
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
    # undefined slots become nan, which every comparison rejects
    a = np.array(ds.values, dtype=float)
    n_defined = int(np.count_nonzero(a == a))
    if n_defined < 3:
        raise DomainError(f"need at least 3 defined difference values, got {n_defined}")

    maxima = _strict_local_maxima(a)
    candidates = maxima
    if policy == LAST_LOCAL_MAX_BEFORE_DECLINE:
        candidates = maxima[maxima < _first_index_of(a, np.fmin.reduce(a))]
    if policy != GLOBAL_MAX and len(candidates):
        index = candidates[0] if policy == FIRST_LOCAL_MAX else candidates[-1]
        return _make_point(ds, a, maxima, int(index), policy)
    top = _make_point(ds, a, maxima, _first_index_of(a, np.fmax.reduce(a)), GLOBAL_MAX)
    if policy == GLOBAL_MAX:
        return top
    raise CharacteristicPointNotFound(
        f"no strict local maximum admissible under policy {policy!r}; "
        f"global maximum is at index {top.index} (label {top.label!r})",
        fallback=top,
    )
