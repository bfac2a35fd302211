"""The numpy kernels against per-sample reference loops, bit for bit.

Each reference below is the plain scalar loop that states what the
kernel computes.  The kernels must agree with it exactly: same floats
down to the sign of zero, same indices, same Python types.
"""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logistic_horizon import (
    FIXTURE_NAMES,
    FIRST_LOCAL_MAX,
    MAX_DERIV_ORDER,
    GLOBAL_MAX,
    LAST_LOCAL_MAX_BEFORE_DECLINE,
    POLICIES,
    CharacteristicPointNotFound,
    DiffSeries,
    DomainError,
    GenSpec,
    LogisticParams,
    RiccatiParams,
    TimeSeries,
    build_poly,
    cumulate,
    estimate_nlls,
    estimate_scd,
    estimate_sld,
    eulerian_row,
    eval_poly,
    find_characteristic_point,
    generate,
    get_fixture,
    higher_order_estimate,
    logistic_eval,
    logistic_nth_derivative,
    nth_central_diff,
    riccati_nth_derivative,
    second_central_diff,
    second_left_diff,
)
from logistic_horizon import estimate
from logistic_horizon.estimate import (
    _lm_refine,
    _logistic_residuals,
    _logit_line,
    _solve1,
    _work_arrays,
)

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
        # a slot that overflowed to nan (inf - inf) reads None, like one outside the series
        vals[t] = None if math.isnan(acc) else acc / 2.0
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


# the Levenberg-Marquardt loop as it was before it kept its parameters
# as Python floats and called the LAPACK routine directly, on the
# reference residuals; the current loop must give the same bits


@np.errstate(over="ignore", invalid="ignore")
def _ref_lm_refine(y, u_max, a, c):
    ymax = y.max()
    p = np.array([u_max, a, c])
    res, jac = _ref_residuals(y, *p)
    sse = float(res @ res)
    lam = 1e-3
    converged = False
    for _ in range(200):
        h = jac.T @ jac
        g = jac.T @ res
        h_diag, neg_g = np.diag(h.diagonal()), -g
        accepted = False
        for _ in range(50):
            m = h + lam * h_diag
            try:
                step = np.linalg.solve(m, neg_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            q = p + step
            if not (q[0] > ymax and q[1] > 0 and q[2] > 0):
                lam *= 10.0
                continue
            res_q, jac_q = _ref_residuals(y, *q)
            sse_q = float(res_q @ res_q)
            if sse_q <= sse:
                rel = float((np.abs(step) / np.maximum(np.abs(p), 1e-300)).max())
                p, res, jac, sse = q, res_q, jac_q, sse_q
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                if rel < 1e-10:
                    converged = True
                break
            lam *= 10.0
        if not accepted:
            converged = True
            break
        if converged:
            break
    rmse = math.sqrt(sse / len(y))
    return (float(p[0]), float(p[1]), float(p[2])), rmse, converged


# the derivative-polynomial sums as each was written out on its own,
# before they shared one Eulerian kernel


def _ref_powers(x, top):
    out = [1.0] * (top + 1)
    for i in range(1, top + 1):
        out[i] = out[i - 1] * x
    return out


def _ref_eval_factored(n, row, u):
    up = _ref_powers(u, n + 1)
    vp = _ref_powers(u - 1.0, n)
    s = math.fsum(row[k] * up[k + 1] * vp[n - k] for k in range(n))
    return -s if n % 2 else s


def _ref_riccati_nth_derivative(params, n, u):
    row = eulerian_row(n)
    x = u - params.u1
    y = u - params.u2
    xp = _ref_powers(x, n + 1)
    yp = _ref_powers(y, n)
    s = math.fsum(row[k] * xp[k + 1] * yp[n - k] for k in range(n))
    return params.r**n * s


def _ref_logistic_nth_derivative(lp, n, t):
    u = logistic_eval(lp, t)
    if n == 1:
        return lp.c1 * u * (lp.u_max - u)
    row = eulerian_row(n)
    up = _ref_powers(u, n + 1)
    vp = _ref_powers(u - lp.u_max, n)
    s = math.fsum(row[k] * up[k + 1] * vp[n - k] for k in range(n))
    return (-lp.c1) ** n * s


# ---------------------------------------------------------------- stencils


@given(levels)
@example([-0.0, 0.0, -0.0, 0.0])  # -0.0 results: a sum started at +0.0 would read +0.0
@example([0.0, 1e308, 0.0, 0.0])  # 2 y[t] overflows: halving each term first would not
@example([-1.5e308, -0.8e308, 1.5e308, 0.0])  # y[t+1] - 2 y[t] overflows; the outer terms first would not
@example([1e308, 1e308, 1e308, 1e308])  # adding the outer terms first gives inf - inf
def test_second_differences_match_reference(y):
    ts = _series(y)
    assert _bits(second_central_diff(ts).values) == _bits(_ref_scd(y))
    assert _bits(second_left_diff(ts).values) == _bits(_ref_sld(y))


@given(st.integers(2, 6), st.lists(st.one_of(finite, coarse), min_size=7, max_size=40))
@example(6, [0.0, -2.9961552247705263e307, 0.0, 0.0, 0.0, 2.9961552247705263e307, 0.0])
@example(2, [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0])  # every term -0.0: the +0.0 start shows
def test_central_differences_match_reference(order, y):
    ds = nth_central_diff(_series(y), order)
    assert _bits(ds.values) == _bits(_ref_central(y, order))


# ------------------------------------------------------------- prefix sums

extremes = st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0])


def _ref_cumulate(y):
    """Running sums left to right, or the refusal of the first that overflows."""
    sums = list(itertools.accumulate(y))
    for i, v in enumerate(sums):
        if not math.isfinite(v):
            return "refused", f"value at index {i} is not finite: {v!r}"
    return "ok", sums


def _cumulate_outcome(y):
    raw = TimeSeries(tuple(str(i) for i in range(len(y))), tuple(y), "raw")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow is refused, not warned about
        try:
            return "ok", list(cumulate(raw).values)
        except DomainError as exc:
            return "refused", str(exc)


@given(st.lists(st.one_of(finite, coarse, extremes), min_size=1, max_size=40))
@example([1e308, 1e308, -1e308])  # inf from index 1 on: refused there
@example([-0.0, -0.0, 5e-324, -5e-324])
def test_cumulate_matches_reference(y):
    assert _bits(_cumulate_outcome(y)) == _bits(_ref_cumulate(y))


def test_cumulate_matches_reference_on_raw_fixtures():
    for name in FIXTURE_NAMES:
        series = get_fixture(name).series
        if series.kind == "raw":
            assert _bits(_cumulate_outcome(series.values)) == _bits(_ref_cumulate(series.values))


# --------------------------------------------------------------- detection

# infinities stand for overflowed stencils; a slot of nan is not tested,
# since the detector reads nan as an undefined slot
diff_slot = st.one_of(st.none(), finite, coarse, st.sampled_from((-math.inf, math.inf)))


@given(st.lists(diff_slot, min_size=3, max_size=30), st.sampled_from(POLICIES))
@example([None, -math.inf, -math.inf, -math.inf, None], GLOBAL_MAX)
@example([None, math.inf, 1.0, math.inf, 0.0, None], LAST_LOCAL_MAX_BEFORE_DECLINE)
def test_detection_matches_reference(vals, policy):
    src = _series([0.0] * len(vals))
    ds = DiffSeries(source=src, kind="scd", array=tuple(vals))
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


def _detect(ds, policy):
    try:
        point = find_characteristic_point(ds, policy)
        status = "ok"
    except CharacteristicPointNotFound as exc:
        point, status = exc.fallback, ("not-found", str(exc))
    except DomainError as exc:
        return ("too-few", str(exc))
    fields = (point.index, point.label, point.diff_value, point.series_value, point.ambiguity)
    return (status, point.policy_used) + fields


STENCILS = {
    "scd": second_central_diff,
    "sld": second_left_diff,
    **{order: lambda ts, order=order: nth_central_diff(ts, order) for order in range(2, 7)},
}


@given(
    st.sampled_from(sorted(STENCILS, key=str)),
    st.lists(st.one_of(finite, coarse), min_size=7, max_size=40),
    st.sampled_from(POLICIES),
)
@example(3, [0.0, 0.0, 1.7e308, 1.7e308, 0.0, 0.0, 0.0], GLOBAL_MAX)
def test_detection_on_stencil_and_hand_built_diffs_agree(stencil, y, policy):
    # rebuilding a stencil's series from its values, nan for None, gives
    # the same array byte for byte, overflowed slots included
    built = STENCILS[stencil](_series(y))
    by_hand = DiffSeries(source=built.source, kind=built.kind, array=built.values)
    assert built.array.tobytes() == by_hand.array.tobytes()
    assert not built.array.flags.writeable and not by_hand.array.flags.writeable
    assert _bits(_detect(built, policy)) == _bits(_detect(by_hand, policy))


def _outcome(detected):
    # a _detect result in the shape _ref_detect gives
    status = detected[0] if isinstance(detected[0], str) else detected[0][0]
    return (status,) if status == "too-few" else (status, detected[2], detected[-1])


def _fixture_windows():
    # every prefix of every fixture, as given and, if raw, cumulated
    for name in FIXTURE_NAMES:
        series = get_fixture(name).series
        for ts in (series, cumulate(series)) if series.kind == "raw" else (series,):
            for n in range(3, len(ts) + 1):
                yield TimeSeries(ts.labels[:n], ts.values[:n], ts.kind)


def test_detection_matches_the_reference_on_every_fixture_window():
    longest = 0
    for ts in _fixture_windows():
        for stencil in STENCILS.values():
            try:
                ds = stencil(ts)
            except DomainError:  # too short for this stencil
                continue
            for policy in POLICIES:
                got = _outcome(_detect(ds, policy))
                assert _bits(got) == _bits(_ref_detect(ds.values, policy))
                longest = max(longest, len(got[-1]) if len(got) > 1 else 0)
    assert longest == 74


def test_detection_ties_and_plateaus():
    # plateau at 5: no strict maximum there; the tie for the global max
    # goes to the earliest index, and the first minimum bounds the
    # decline policy
    vals = (None, 1.0, 5.0, 5.0, 2.0, 4.0, 0.0, 3.0, 0.0, None)
    ds = DiffSeries(source=_series([0.0] * 10), kind="scd", array=vals)
    assert find_characteristic_point(ds, GLOBAL_MAX).index == 2
    assert find_characteristic_point(ds, FIRST_LOCAL_MAX).index == 5
    assert find_characteristic_point(ds, LAST_LOCAL_MAX_BEFORE_DECLINE).index == 5
    point = find_characteristic_point(ds, GLOBAL_MAX)
    assert point.ambiguity == ((3, 5.0), (5, 4.0), (7, 3.0))
    assert all(type(i) is int and type(v) is float for i, v in point.ambiguity)


# -------------------------------------------------------------- residuals

positive = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)


@given(
    st.lists(st.floats(0.1, 1e6), min_size=4, max_size=60),
    positive,
    positive,
    st.floats(1e-6, 5.0),
)
def test_logistic_residuals_match_reference(y, u_max, a, c):
    y = np.array(y)
    t = np.arange(len(y), dtype=float)
    w = _work_arrays(len(y))
    _logistic_residuals(y, t, u_max, a, c, w)
    want_res, _ = _ref_residuals(y, u_max, a, c)
    assert w[-1].tobytes() == want_res.tobytes()


@given(
    st.lists(st.floats(0.1, 1e6), min_size=4, max_size=60),
    st.lists(st.tuples(positive, positive, st.floats(1e-6, 5.0)), min_size=1, max_size=6),
)
def test_residuals_into_one_set_of_work_arrays_match_fresh_calls(y, params):
    # nlls writes every trial into the same arrays: nothing may leak from one call to the next
    y = np.array(y)
    t = np.arange(len(y), dtype=float)
    w = _work_arrays(len(y))
    z, e, den, res = w
    assert np.shares_memory(z, e) and e.base is z
    for u_max, a, c in params:
        _logistic_residuals(y, t, u_max, a, c, w)
        want_e = [math.exp(-c * i) for i in range(len(y))]
        want_den = [1.0 + a * v for v in want_e]
        assert _bits(e.tolist()) == _bits(want_e)
        assert _bits(den.tolist()) == _bits(want_den)
        assert res.tobytes() == _ref_residuals(y, u_max, a, c)[0].tobytes()


# libm's exp through complex exp: cexp(x + 0i) is exp(x) * cos(0), and the
# residuals rely on that for every x <= 0 they can meet, -c * t with c > 0

# -0.0 and the negative float nearest 0, whose exp rounds to 1; a
# subnormal result; the last nonzero result and the first zero; -inf
EXP_EDGES = (-0.0, -5e-324, -708.4, -745.13, -745.14, -math.inf)


def _complex_exp(x):
    return np.exp(np.asarray(x, dtype=float).astype(complex)).real


def test_complex_exp_is_libm_exp():
    grid = np.linspace(-746.0, 0.0, 400_001)
    # -c * t for c from 1e-12 to 1e3 and t on a 10^4-point axis
    shapes = -np.outer(np.logspace(-12.0, 3.0, 76), np.arange(0.0, 1e4, 7.0)).ravel()
    x = np.concatenate([grid, shapes, EXP_EDGES])
    want = np.fromiter(map(math.exp, x.tolist()), float, len(x))
    assert _complex_exp(x).tobytes() == want.tobytes()
    assert math.isnan(_complex_exp([math.nan])[0])


@given(st.floats(max_value=0.0, allow_nan=False))
def test_complex_exp_is_libm_exp_on_any_nonpositive_float(x):
    assert _complex_exp([x])[0].hex() == math.exp(x).hex()


# ------------------------------------------------------- damped least squares


@st.composite
def lm_inputs(draw):
    """A noisy logistic window and a start, the ladder's cap among them."""
    n = draw(st.integers(4, 60))
    u_max, a, c = draw(st.floats(1.0, 1e5)), draw(st.floats(1.0, 1e3)), draw(st.floats(0.01, 2.0))
    noise = draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
    y = [u_max / (1.0 + a * math.exp(-c * t)) * (1.0 + eps) for t, eps in enumerate(noise)]
    mult = draw(st.sampled_from((1.05, 1.5, 3.0, 10.0)) | st.floats(0.5, 20.0))
    return y, (mult * max(y), draw(positive), draw(st.floats(1e-6, 5.0)))


def _logistic_window(n):
    return [1000.0 / (1.0 + 200.0 * math.exp(-0.4 * t)) for t in range(n)]


# 10 points of a noisy-sweep series (noise_sd 5, seed 1) from the first
# start of the ladder: runs into the 200-iteration cap
_SWEEP_SPEC = GenSpec(LogisticParams(1000.0, 200.0, 0.4), n_points=41, noise_sd=5.0, seed=1)
_CAPPED = (
    generate(_SWEEP_SPEC).values[:10],
    (
        float.fromhex("0x1.4d73e2dbf1647p+7"),
        float.fromhex("0x1.285d51f968544p+5"),
        float.fromhex("0x1.2403233e7907ep-1"),
    ),
)


# 2000 points of a noisy series past its inflection, from a start near
# the truth and from one whose exp(-c t) underflows through subnormals
_LONG = generate(
    GenSpec(LogisticParams(1000.0, 200.0, 0.005), n_points=2000, noise_sd=5.0, seed=1)
).values


@given(lm_inputs())
@example((_LONG, (1.05 * max(_LONG), 100.0, 0.004)))
@example((_LONG, (1.5 * max(_LONG), 500.0, 0.5)))
# exp(-c t) underflows to 0 past t = 0: the damped system is singular
@example((_logistic_window(20), (1500.0, 200.0, 1000.0)))
# u_max * a overflows to inf in the Jacobian
@example((_logistic_window(20), (1500.0, 1e300, 0.4)))
@example(_CAPPED)
def test_lm_refine_matches_reference(inputs):
    y, start = np.array(inputs[0]), inputs[1]
    got = _lm_refine(y, *start)
    assert _bits(got) == _bits(_ref_lm_refine(y, *start))
    assert all(type(v) is float for v in got[0])


def test_lm_refine_matches_reference_on_a_long_series():
    # every start of the four-cap ladder on a noiseless 10^4-point series past
    # its inflection; the first two converge to one fit, so nlls runs only those
    a = 25.0 * 0.99
    ts = generate(GenSpec(LogisticParams(1000.0, a, math.log(a) / 3980.0), n_points=10_000))
    y = ts.array
    starts = _ladder_starts(y.tolist())
    assert len(starts) == 4
    with mock.patch.object(estimate, "_lm_refine", wraps=_lm_refine) as refine:
        estimate_nlls(ts)
    assert [call.args[1:] for call in refine.call_args_list] == starts[:2]
    for start in starts:
        assert _bits(_lm_refine(y, *start)) == _bits(_ref_lm_refine(y, *start))


# the start ladder's sums, added left to right from the first term


def _ref_logit_line(z):
    n = len(z)
    tbar = (n - 1) / 2
    acc = z[0]
    for v in z[1:]:
        acc += v
    zbar = acc / n
    terms = [(t - tbar) * (v - zbar) for t, v in enumerate(z)]
    acc = terms[0]
    for v in terms[1:]:
        acc += v
    return zbar, acc / (n * (n**2 - 1) / 12)


def _ladder_starts(y):
    """(cap, a0, c0) of each cap of the nlls ladder (1.05, 1.5, 3 and 10 x
    max y) that gives a start, from its logit line; y is a list of floats."""
    ymax = max(y)
    tbar = (len(y) - 1) / 2
    starts = []
    for cap in (1.05 * ymax, 1.5 * ymax, 3.0 * ymax, 10.0 * ymax):
        if not cap > ymax:
            continue
        zbar, slope = _ref_logit_line([math.log((cap - v) / v) for v in y])
        try:
            a0 = math.exp(zbar - slope * tbar)
        except OverflowError:
            continue
        if math.isfinite(a0):
            starts.append((cap, a0, -slope if -slope > 0 else 1e-6))
    return starts


# left to right, 1e16 + 1.0 rounds back to 1e16: the sum is 0.0 where the
# exact (and Python 3.12's compensated) sum is 2.0
_CANCELLING = [1e16, 1.0, 1.0, -1e16]


@given(st.integers(4, 10_000), st.integers(0, 2**32 - 1))
@example(4, None)
def test_logit_line_sums_left_to_right(n, seed):
    if seed is None:
        z = _CANCELLING
        assert math.fsum(z) == 2.0
    else:
        rng = np.random.default_rng(seed)
        # mixed signs and magnitudes, so that the order of the additions shows
        z = (rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)).tolist()
    t = np.arange(len(z), dtype=float)
    dt = t - (len(z) - 1) / 2
    stt = len(z) * (len(z) ** 2 - 1) / 12
    got = _logit_line(np.array(z), dt, stt)
    assert _bits(got) == _bits(_ref_logit_line(z))
    if seed is None:
        assert got[0] == 0.0


@given(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
def test_solve1_is_the_routine_np_linalg_solve_runs(vals):
    m = np.array(vals[:9]).reshape(3, 3) + 4.0 * np.eye(3)  # diagonally dominant
    b = np.array(vals[9:])
    assert _solve1(m, b).tobytes() == np.linalg.solve(m, b).tobytes()


def test_solve1_singular_system_gives_nan():
    m = np.array([[4.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    b = np.array([1.0, 2.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(m, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            step = _solve1(m, b)
    assert step.shape == (3,) and np.isnan(step).all()


# --------------------------------------------------- derivative polynomials

orders = st.integers(1, MAX_DERIV_ORDER)
moderate = st.floats(-1e3, 1e3) | st.floats(-2.0, 2.0) | coarse


@given(orders, moderate)
def test_eval_poly_matches_reference(n, u):
    p = build_poly(n)
    assert eval_poly(p, u).hex() == _ref_eval_factored(n, p.eulerian_row, u).hex()


@given(st.integers(2, MAX_DERIV_ORDER), moderate.filter(bool), moderate, moderate, moderate)
def test_riccati_nth_derivative_matches_reference(n, r, u1, u2, u):
    if u1 == u2:
        u2 = u1 + 1.0
    params = RiccatiParams(r, u1, u2)
    want = _ref_riccati_nth_derivative(params, n, u)
    assert riccati_nth_derivative(params, n, u).hex() == want.hex()


@given(orders, positive, positive, st.floats(1e-6, 5.0), moderate)
def test_logistic_nth_derivative_matches_reference(n, u_max, a, c, t):
    lp = LogisticParams(u_max, a, c)
    want = _ref_logistic_nth_derivative(lp, n, t)
    assert logistic_nth_derivative(lp, n, t).hex() == want.hex()


# --------------------------------------------------- pinned 10^4-point run

# float.hex of each estimate on the noisy series below, as computed by
# the scalar per-sample loops the kernels replaced (sld by the code
# before the series carried their arrays).  Noise keeps nlls off the
# exact ceiling and gives scd thousands of ambiguity rivals.  nlls's
# first two starts agree here, so it stops there: the four-start ladder
# gave 0x1.f400a1662fb69p+9, 6.5e-15 relative above.
LONG_SPEC = GenSpec(
    params=LogisticParams(1000.0, 200.0, 0.001), n_points=10_000, noise_sd=1.0, seed=7
)
LONG_PINNED = {
    "nlls": "0x1.f400a1662fb30p+9",
    "scd": "0x1.89a922938adbap+4",
    "sld": "0x1.7122b799a639fp+4",
    "order5": "0x1.d8054fde9fa50p+6",
}


@pytest.mark.filterwarnings("ignore:estimated saturation level")
def test_long_series_estimates_are_bit_identical():
    ts = generate(LONG_SPEC)
    got = {
        "nlls": estimate_nlls(ts).u_max_hat.hex(),
        "scd": estimate_scd(ts).u_max_hat.hex(),
        "sld": estimate_sld(ts).u_max_hat.hex(),
        "order5": higher_order_estimate(ts, 5).u_max_hat.hex(),
    }
    assert got == LONG_PINNED


def test_long_noisy_series_keeps_the_strongest_rivals():
    ds = second_central_diff(generate(LONG_SPEC))
    point = find_characteristic_point(ds)
    unbounded = _ref_ambiguity(point.index, ds.values)
    assert len(unbounded) > 1000
    assert _bits(point.ambiguity) == _bits(unbounded)
