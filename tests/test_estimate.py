"""Saturation estimators: division rules, polynomial trend, logistic fit."""

import io
import itertools
import math
import random
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logistic_horizon import (
    GLOBAL_MAX,
    LAST_LOCAL_MAX_BEFORE_DECLINE,
    POLICIES,
    CharacteristicPointNotFound,
    DomainError,
    FIXTURE_NAMES,
    EstimationError,
    GenSpec,
    LogisticHorizonError,
    LogisticParams,
    NumericalError,
    TimeSeries,
    benchmark_estimators,
    characteristic_level,
    cumulate,
    estimate_nlls,
    estimate_scd,
    estimate_sld,
    fit_logistic_nlls,
    fit_polynomial_lsm,
    generate,
    get_fixture,
    higher_order_estimate,
    polyfit_estimate,
    resolve_constant,
)
from logistic_horizon import cli
from logistic_horizon import estimate as estimate_module
from logistic_horizon.estimate import METHODS, run_method


def _window():
    return get_fixture("loyalty-tnlc-window").series


def _eleven_week_window():
    # weeks 05/12-15/12 cumulated from the weekly counts: the ten-week
    # window plus one week, the span of the paper's quartic worked example
    levels = cumulate(get_fixture("loyalty-nlc").series)
    first = levels.labels.index("05/12")
    last = levels.labels.index("15/12") + 1
    return TimeSeries(levels.labels[first:last], levels.values[first:last], "cumulative")


def _quartic_series():
    # f(x) = 5 + 2x + 3x^2 + 4x^3 - x^4 on x = 0..10; second derivative
    # 6 + 24x - 12x^2 peaks at x = 1 where f(1) = 13
    vals = tuple(float(5 + 2 * x + 3 * x * x + 4 * x**3 - x**4) for x in range(11))
    return TimeSeries(tuple(str(i) for i in range(11)), vals, "cumulative")


def test_resolve_constant():
    assert resolve_constant(3, "exact") == characteristic_level(3)
    assert resolve_constant(3, "paper-rounded") == 0.211
    assert resolve_constant(4, "paper-rounded") == 0.0917
    assert resolve_constant(5, "paper-rounded") == 0.0413
    with pytest.raises(DomainError):
        resolve_constant(3, "rounded")


def test_scd_estimate_on_window():
    est = estimate_scd(_window(), constant_mode="paper-rounded")
    assert est.method == "scd"
    assert est.u_max_hat == 477611.374407583
    assert est.constant_used == 0.211
    assert est.char_point.index == 3
    assert est.char_point.series_value == 100776.0
    assert est.diagnostics["exceeds_max_observed"] is True


def test_sld_estimate_on_window():
    est = estimate_sld(_window(), constant_mode="paper-rounded")
    assert est.method == "sld"
    assert est.u_max_hat == 501085.30805687205
    assert est.char_point.index == 4


def test_exact_mode_differs_by_constant_ratio():
    paper = estimate_scd(_window(), constant_mode="paper-rounded")
    exact = estimate_scd(_window(), constant_mode="exact")
    ratio = exact.u_max_hat / paper.u_max_hat
    assert ratio == pytest.approx(0.211 / characteristic_level(3), rel=1e-14)


def test_medical_estimate_with_decline_policy():
    ts = cumulate(get_fixture("medical-qmd").series)
    est = estimate_sld(ts, constant_mode="paper-rounded", policy=LAST_LOCAL_MAX_BEFORE_DECLINE)
    assert est.u_max_hat == 436.01895734597156
    assert est.char_point.series_value == 92.0


def test_mobile_estimates():
    de = estimate_scd(get_fixture("mobile-germany").series, constant_mode="paper-rounded")
    assert round(de.u_max_hat, 3) == 1.327
    with pytest.warns(RuntimeWarning):
        sk = estimate_scd(get_fixture("mobile-slovakia").series, constant_mode="paper-rounded")
    assert round(sk.u_max_hat, 3) == 0.569
    assert sk.diagnostics["exceeds_max_observed"] is False


def test_scd_estimate_on_clean_logistic():
    ts = generate(GenSpec(params=LogisticParams(1000.0, 200.0, 0.4), n_points=41))
    est = estimate_scd(ts)
    assert est.u_max_hat == 1014.7804291682935
    assert abs(est.u_max_hat - 1000.0) / 1000.0 < 0.05


def test_division_estimator_input_checks():
    raw = TimeSeries(tuple("abcd"), (1.0, 2.0, 4.0, 8.0), "raw")
    with pytest.raises(DomainError):
        estimate_scd(raw)
    short = TimeSeries(tuple("abc"), (1.0, 2.0, 4.0), "cumulative")
    with pytest.raises(DomainError):
        estimate_scd(short)
    flat = TimeSeries(tuple("abcdef"), (2.0,) * 6, "cumulative")
    with pytest.raises(CharacteristicPointNotFound):
        estimate_scd(flat)
    # the constant mode is refused before detection, which finds no point here
    with pytest.raises(DomainError, match="constant_mode must be one of"):
        estimate_scd(flat, constant_mode="paperr")
    # the level at the point over the fraction overflows: refused, not returned as inf
    levels = (0.0, 1e307, 5e307, 1.6e308, 1.7e308, 1.75e308)
    huge = TimeSeries(tuple("abcdef"), levels, "cumulative")
    for estimator in (estimate_scd, estimate_sld):
        with pytest.raises(NumericalError, match="^estimated saturation level inf is not finite$"):
            estimator(huge)


@pytest.mark.parametrize("alpha", [0.5, 3.0, 1000.0])
def test_scd_estimate_scale_equivariant(alpha):
    base = _window()
    est = estimate_scd(base)
    scaled = TimeSeries(base.labels, tuple(alpha * v for v in base.values), base.kind)
    est_scaled = estimate_scd(scaled)
    assert est_scaled.u_max_hat == pytest.approx(alpha * est.u_max_hat, rel=1e-12)


SCALED_ESTIMATORS = {
    **{
        f"{name} {policy}": partial(estimator, policy=policy)
        for policy in POLICIES
        for name, estimator in (
            ("scd", estimate_scd),
            ("sld", estimate_sld),
            ("order 4", partial(higher_order_estimate, n=4)),
        )
    },
    "polyfit 4": partial(polyfit_estimate, degree=4),
    "polyfit 6": partial(polyfit_estimate, degree=6),
}


# nlls is left out: scaling moves u_max but not a or c, so its damped 3x3
# solves see a differently scaled system, and its estimate moves in the last bits
@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
@given(
    st.integers(9, 41),
    st.sampled_from([0.0, 1.0, 5.0]),
    st.integers(0, 2**32),
    st.integers(-30, 30),
)
def test_power_of_two_scaling_scales_each_estimate_exactly(n_points, noise_sd, seed, m):
    # times 2^m every level, stencil value and fitted coefficient is exact,
    # so each estimate scales exactly, at the same point, or refuses alike
    base = generate(GenSpec(LogisticParams(1000.0, 200.0, 0.4), n_points, noise_sd=noise_sd, seed=seed))
    scaled = TimeSeries(base.labels, base.array * 2.0**m, base.kind)
    for name, estimator in SCALED_ESTIMATORS.items():
        try:
            want = estimator(base)
        except LogisticHorizonError as exc:
            with pytest.raises(LogisticHorizonError) as refusal:
                estimator(scaled)
            assert type(refusal.value) is type(exc), name
            continue
        got = estimator(scaled)
        assert got.u_max_hat == want.u_max_hat * 2.0**m, name
        if want.char_point is not None:
            assert got.char_point.index == want.char_point.index, name
        else:
            assert got.diagnostics["x_star"] == want.diagnostics["x_star"], name


def _exact_normal_equations(values, degree):
    """Least-squares coefficients over exact rationals, for cross-checking."""
    m = degree + 1
    xs = [Fraction(i) for i in range(len(values))]
    ys = [Fraction(v) for v in values]
    a = [[sum(x ** (i + j) for x in xs) for j in range(m)] for i in range(m)]
    b = [sum(y * x**i for x, y in zip(xs, ys)) for i in range(m)]
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for row in range(m):
            if row == col:
                continue
            factor = a[row][col] / a[col][col]
            b[row] -= factor * b[col]
            for j in range(col, m):
                a[row][j] -= factor * a[col][j]
    return [b[i] / a[i][i] for i in range(m)]


def test_polyfit_matches_exact_rational_solve():
    for w in (_window(), _eleven_week_window()):
        fit = fit_polynomial_lsm(w, 4)
        exact = _exact_normal_equations(w.values, 4)
        for got, want in zip(fit.coefficients, exact):
            assert got == pytest.approx(float(want), rel=1e-9)
    # the worked example's quartic, to the 5 significant digits it is printed
    # with, is the exact optimum over 05/12-15/12 and not over the ten weeks
    stated = [85584.0, 5610.1, -206.23, 30.515, -1.6807]

    def rounded(values):
        return [float(f"{float(c):.5g}") for c in _exact_normal_equations(values, 4)]

    assert rounded(_eleven_week_window().values) == stated
    assert rounded(_window().values) != stated


def test_polyfit_recovers_exact_quartic():
    fit = fit_polynomial_lsm(_quartic_series(), 4)
    for got, want in zip(fit.coefficients, (5.0, 2.0, 3.0, 4.0, -1.0)):
        assert got == pytest.approx(want, abs=1e-9)


# the first window length at which the unscaled design over 0..n-1 falls
# below full rank under lstsq's default cutoff, whatever the data; the
# exact edge may move with the LAPACK build, so the test stays a factor
# of two away from it on both sides
POLYFIT_RANK_EDGE = {4: 1222, 6: 159, 8: 51}


@pytest.mark.parametrize("degree", sorted(POLYFIT_RANK_EDGE))
def test_polyfit_refuses_long_windows(degree):
    edge = POLYFIT_RANK_EDGE[degree]
    rng = random.Random(degree)
    for n in (edge // 2, 2 * edge):
        curve = generate(GenSpec(LogisticParams(1000.0, 200.0, 10.0 / n), n_points=n))
        noise = TimeSeries(range(n), [rng.uniform(1.0, 2.0) for _ in range(n)], "cumulative")
        for ts in (curve, noise):
            if n < edge:
                assert len(fit_polynomial_lsm(ts, degree).coefficients) == degree + 1
                continue
            with pytest.raises(NumericalError, match=f"design matrix rank \\d+ below {degree + 1}"):
                fit_polynomial_lsm(ts, degree)
            with pytest.raises(NumericalError, match="design matrix rank"):
                polyfit_estimate(ts, degree)


def _seed_fit(ts, degree):
    """fit_polynomial_lsm as it read before it learnt each shape's rank
    once: the design built and solved on every call.  The coefficients'
    hex, or the refusal's type and text."""
    n = len(ts)
    if n <= degree:
        return DomainError, f"need more points than the degree: {n} points for degree {degree}"
    x = np.arange(n, dtype=float)
    design = np.vander(x, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, ts.array, rcond=None)
    if rank < degree + 1:
        return NumericalError, f"design matrix rank {rank} below {degree + 1}; fit is not unique"
    if not all(map(math.isfinite, coeffs.tolist())):
        return NumericalError, "least-squares coefficients are non-finite"
    return [c.hex() for c in coeffs.tolist()]


def _fit(ts, degree):
    try:
        return [c.hex() for c in fit_polynomial_lsm(ts, degree).coefficients]
    except LogisticHorizonError as exc:
        return type(exc), str(exc)


def test_polyfit_matches_the_uncached_solve_on_every_fixture_window():
    for key, w in _fixture_windows(1):
        for degree in (4, 6, 8):
            assert _fit(w, degree) == _seed_fit(w, degree), (key, degree)


EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308)


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES), max_size=60),
    st.sampled_from((4, 6, 8)),
)
@example([1.0] * 52, 8)  # past degree 8's edge: refused by rank
@example([(-1.0) ** i * 1e308 for i in range(12)], 6)  # full rank, the solution overflows
def test_polyfit_matches_the_uncached_solve_on_drawn_windows(y, degree):
    if not y:
        return
    ts = TimeSeries(range(len(y)), y, "cumulative")
    assert _fit(ts, degree) == _seed_fit(ts, degree)


@pytest.mark.parametrize("degree", sorted(POLYFIT_RANK_EDGE))
@given(st.integers(0, 2**32 - 1), st.sampled_from((1e-300, 1.0, 1e300)))
def test_design_rank_is_the_rank_lstsq_finds_for_any_data_near_each_edge(degree, seed, scale):
    # the rank is whatever lstsq finds, so the test holds wherever this LAPACK puts the edge
    rng = np.random.default_rng(seed)
    edge = POLYFIT_RANK_EDGE[degree]
    for n in range(edge - 3, edge + 4):
        design = np.vander(np.arange(n, dtype=float), degree + 1, increasing=True)
        rank = np.linalg.lstsq(design, scale * rng.uniform(-1.0, 1.0, n), rcond=None)[2]
        assert estimate_module._design_rank(n, degree) == rank


def test_a_repeated_refusal_neither_builds_nor_solves_its_design_again():
    ts = TimeSeries(range(10_000), np.linspace(1.0, 2.0, 10_000), "cumulative")
    estimate_module._design_rank.cache_clear()
    with (
        mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq,
        mock.patch.object(np, "vander", wraps=np.vander) as vander,
    ):
        for _ in range(3):
            with pytest.raises(NumericalError, match=r"^design matrix rank 3 below 5; fit is not unique$"):
                fit_polynomial_lsm(ts, 4)
    assert lstsq.call_count == 1 and vander.call_count == 1


def test_polyfit_input_checks():
    ts = _quartic_series()
    with pytest.raises(DomainError):
        fit_polynomial_lsm(ts, 1)
    with pytest.raises(DomainError):
        fit_polynomial_lsm(ts, 11)
    with pytest.raises(DomainError):
        fit_polynomial_lsm(ts, 4.0)


def test_polyfit_estimate_quartic_vertex():
    # the fitted level at the vertex over the fraction, 61.5, stays below
    # the largest observation, 65, so the bound warns
    with pytest.warns(RuntimeWarning, match="does not exceed the largest observed value 65"):
        est = polyfit_estimate(_quartic_series())
    assert est.diagnostics["exceeds_max_observed"] is False
    assert est.diagnostics["x_star"] == pytest.approx(1.0, abs=1e-9)
    assert est.diagnostics["f_x_star"] == pytest.approx(13.0, abs=1e-6)
    assert est.u_max_hat == pytest.approx(13.0 / characteristic_level(3), rel=1e-9)


def test_polyfit_estimate_degree_six_path():
    # degree 6 fit of quartic data reduces to the quartic; the critical
    # points of f'' must include the same interior maximum
    with pytest.warns(RuntimeWarning, match="does not exceed the largest"):
        est = polyfit_estimate(_quartic_series(), degree=6)
    assert est.diagnostics["x_star"] == pytest.approx(1.0, abs=1e-6)
    assert est.diagnostics["f_x_star"] == pytest.approx(13.0, rel=1e-6)


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
@pytest.mark.parametrize(
    "degree, u_max_hat", [(6, "0x1.849c9e1e21aa2p+10"), (8, "0x1.c55fa6d4f83c7p+4")]
)
def test_polyfit_estimate_returns_python_scalars(degree, u_max_hat):
    # a grid-and-bisection search once handed back numpy scalars here at
    # degree 6; the values are pinned from the exact critical points
    ts = cumulate(get_fixture("medical-qmd").series)
    est = polyfit_estimate(ts, degree=degree)
    diag = est.diagnostics
    assert est.u_max_hat.hex() == u_max_hat
    assert _peak_error(diag["coefficients"], len(ts) - 1, diag["f_x_star"]) <= 1e-10
    assert type(est.u_max_hat) is float and type(est.constant_used) is float
    assert type(diag["x_star"]) is float and type(diag["f_x_star"]) is float
    assert all(type(c) is float for c in diag["coefficients"])
    assert type(diag["exceeds_max_observed"]) is bool


def _peak_error(coefficients, hi, f_x_star):
    """Relative error of f_x_star against f at the maximum of f'' on
    [0, hi], found to 50 digits among the real roots of f''' inside the
    window and the two ends, with the float coefficients taken exactly."""
    import mpmath as mp

    with mp.workdps(50):
        f = [mp.mpf(c) for c in coefficients]
        d2 = [i * (i - 1) * c for i, c in enumerate(f)][2:]
        d3 = [i * c for i, c in enumerate(d2)][1:]
        roots = mp.polyroots(d3[::-1], maxsteps=200, extraprec=200)
        xs = [mp.re(r) for r in roots if abs(mp.im(r)) < 1e-30 and 0 < mp.re(r) < hi]
        x = max(xs + [mp.mpf(0), mp.mpf(hi)], key=lambda x: mp.polyval(d2[::-1], x))
        exact = mp.polyval(f[::-1], x)
        return float(abs((f_x_star - exact) / exact))


def _fixture_windows(min_len):
    # every window of every fixture, as given and, for raw counts, cumulated
    for name in FIXTURE_NAMES:
        given = get_fixture(name).series
        kinds = [("given", given)]
        if given.kind == "raw":
            kinds.append(("cumulated", cumulate(given)))
        for tag, s in kinds:
            for i in range(len(s)):
                for j in range(i + min_len, len(s) + 1):
                    yield (name, tag, i, j), TimeSeries(s.labels[i:j], s.values[i:j], "cumulative")


# raw loyalty-nlc windows whose peak of f'' lies inside the first or last
# of 2000 grid steps, where a grid search picked the end instead
_NEAR_END_PEAKS = {
    (("loyalty-nlc", "given", 38, 51), 6): 12.0,
    (("loyalty-nlc", "given", 43, 73), 6): 0.0,
    (("loyalty-nlc", "given", 41, 57), 8): 0.0,
}


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
def test_polyfit_peak_matches_the_exact_critical_points():
    windows = dict(_fixture_windows(9))
    cases = random.Random(8).sample(sorted(itertools.product(windows, (6, 8))), 150)
    for key, degree in cases + sorted(_NEAR_END_PEAKS):
        w = windows[key]
        try:
            est = polyfit_estimate(w, degree)
        except (EstimationError, NumericalError):
            continue
        diag = est.diagnostics
        hi = len(w) - 1
        assert _peak_error(diag["coefficients"], hi, diag["f_x_star"]) <= 1e-10, (key, degree)
        if (key, degree) in _NEAR_END_PEAKS:
            d2 = fit_polynomial_lsm(w, degree).derivative_coeffs(2)
            end = _NEAR_END_PEAKS[key, degree]
            assert 0.0 < diag["x_star"] < hi
            assert estimate_module._horner(d2, diag["x_star"]) > estimate_module._horner(d2, end)


def test_polyfit_refuses_non_finite_derivative_coefficients():
    vals = tuple((-1.0) ** i * 1e308 for i in range(12))
    ts = TimeSeries(tuple(str(i) for i in range(12)), vals, "cumulative")
    with pytest.raises(NumericalError, match="non-finite"):
        polyfit_estimate(ts, degree=8)


@pytest.mark.parametrize("degree", [6, 8])
def test_least_squares_refuses_non_finite_coefficients(degree):
    # full rank, but the lstsq solution overflows to inf
    vals = tuple((-1.0) ** i * 1e308 for i in range(12))
    ts = TimeSeries(tuple(str(i) for i in range(12)), vals, "cumulative")
    with pytest.raises(NumericalError, match="least-squares coefficients are non-finite"):
        fit_polynomial_lsm(ts, degree)


def test_polyfit_refuses_finite_fit_whose_third_derivative_overflows():
    vals = tuple((-1.0) ** i * 1e306 for i in range(7))
    ts = TimeSeries(tuple(str(i) for i in range(7)), vals, "cumulative")
    assert all(map(math.isfinite, fit_polynomial_lsm(ts, 6).coefficients))
    with pytest.raises(NumericalError, match="third derivative of the fit has non-finite"):
        polyfit_estimate(ts, degree=6)


def test_polyfit_estimate_on_window():
    est = polyfit_estimate(_window(), constant_mode="paper-rounded")
    assert est.u_max_hat == 507452.6253598521
    assert est.diagnostics["x_star"] == pytest.approx(4.23014559975951, rel=1e-12)
    assert est.char_point is None


def test_polyfit_estimate_rejects_convex_data():
    vals = tuple(float(t * t) for t in range(9))
    ts = TimeSeries(tuple(str(t) for t in range(9)), vals, "cumulative")
    with pytest.raises(EstimationError):
        polyfit_estimate(ts)
    with pytest.raises(EstimationError):
        polyfit_estimate(ts, degree=6)
    # the constant mode is refused before the fit
    with pytest.raises(DomainError, match="constant_mode must be one of"):
        polyfit_estimate(ts, constant_mode="paperr")


def test_polyfit_estimate_degree_checks():
    ts = _quartic_series()
    for bad in (3, 5, 2, 4.0, True):
        with pytest.raises(DomainError):
            polyfit_estimate(ts, degree=bad)


def test_higher_order_three_delegates_to_scd():
    w = _window()
    a = higher_order_estimate(w, 3, constant_mode="paper-rounded")
    b = estimate_scd(w, constant_mode="paper-rounded")
    assert a == b
    assert a.method == "scd"


def test_higher_order_four_on_dense_logistic():
    ts = generate(GenSpec(params=LogisticParams(500.0, 400.0, 0.3), n_points=121, t_step=0.25))
    est = higher_order_estimate(ts, 4)
    assert est.method == "higher-order-4"
    assert est.u_max_hat == pytest.approx(489.19264527373304, rel=1e-12)
    assert abs(est.u_max_hat - 500.0) / 500.0 < 0.10
    paper = higher_order_estimate(ts, 4, constant_mode="paper-rounded")
    assert paper.constant_used == 0.0917


def test_higher_order_input_checks(monkeypatch):
    ts = _window()
    with pytest.raises(DomainError):
        higher_order_estimate(ts, 2)
    with pytest.raises(DomainError):
        higher_order_estimate(ts, 3.0)
    short = TimeSeries(tuple("abcdef"), tuple(float(i * i) for i in range(6)), "cumulative")
    with pytest.raises(DomainError):
        higher_order_estimate(short, 5)
    # the order cap is refused before the order-399 stencil is built
    monkeypatch.setattr(estimate_module, "nth_central_diff", lambda *args, **kwargs: pytest.fail("stencil built"))
    long = TimeSeries(map(str, range(10**4)), np.arange(10**4, dtype=float), "cumulative")
    with pytest.raises(DomainError, match="derivative order 400 exceeds the construction cap 25"):
        higher_order_estimate(long, 400)


def test_nlls_recovers_clean_parameters():
    spec = GenSpec(params=LogisticParams(7.0, 17.0, 1.5), n_points=21, t_step=0.5)
    params, rmse = fit_logistic_nlls(generate(spec))
    assert params.u_max == pytest.approx(7.0, rel=1e-6)
    assert params.a == pytest.approx(17.0, rel=1e-6)
    # the fit runs over 0-based indices, so the rate comes back per step
    assert params.c == pytest.approx(1.5 * 0.5, rel=1e-6)
    assert rmse < 1e-9 * 7.0


def test_nlls_on_noisy_data():
    spec = GenSpec(
        params=LogisticParams(7.0, 17.0, 1.5), n_points=21, t_step=0.5, noise_sd=0.05, seed=42
    )
    est = estimate_nlls(generate(spec))
    assert est.u_max_hat == pytest.approx(7.08598641448609, rel=1e-9)
    assert abs(est.u_max_hat - 7.0) / 7.0 < 0.05


def test_nlls_estimate_on_window():
    est = estimate_nlls(_window())
    assert est.method == "nlls"
    assert est.constant_used is None
    assert est.char_point is None
    assert est.u_max_hat == pytest.approx(184655.0855172119, rel=1e-9)
    assert est.diagnostics["converged"] is True
    assert est.diagnostics["exceeds_max_observed"] is True
    # must beat a straight line in rmse, else the refinement did nothing
    y = np.asarray(_window().values, dtype=float)
    t = np.arange(len(y), dtype=float)
    line = np.polynomial.polynomial.polyfit(t, y, 1)
    line_rmse = math.sqrt(float(np.mean((np.polynomial.polynomial.polyval(t, line) - y) ** 2)))
    assert est.diagnostics["rmse"] < line_rmse


def test_nlls_is_deterministic():
    w = _window()
    first = estimate_nlls(w)
    second = estimate_nlls(w)
    assert first == second


def _nlls_bits(ts):
    est = estimate_nlls(ts)
    d = est.diagnostics
    return est.u_max_hat.hex(), d["a"].hex(), d["c"].hex(), d["rmse"].hex(), d["converged"]


def test_nlls_is_reentrant():
    # two threads fitting windows of the same lengths (10-34 points, where
    # two or more fixtures have a window) at once give a serial run's
    # bits, so no work array is shared between calls; a short switch
    # interval makes them take turns inside the damped least-squares loop
    windows = []
    for name in FIXTURE_NAMES:
        ts = get_fixture(name).series
        ts = cumulate(ts) if ts.kind == "raw" else ts
        for n in range(10, min(len(ts), 34) + 1):
            windows.append(TimeSeries(ts.labels[:n], ts.values[:n], "cumulative"))
    windows.sort(key=len)
    parts = (windows[0::2], windows[1::2])
    serial = [[_nlls_bits(ts) for ts in part] for part in parts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            fits = pool.map(lambda part: [_nlls_bits(ts) for ts in part], parts, timeout=120)
            threaded = list(fits)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.mark.filterwarnings("error")
def test_nlls_input_checks():
    short = TimeSeries(tuple("abc"), (1.0, 2.0, 4.0), "cumulative")
    with pytest.raises(DomainError):
        fit_logistic_nlls(short)
    nonpos = TimeSeries(tuple("abcde"), (0.0, 1.0, 2.0, 4.0, 8.0), "cumulative")
    with pytest.raises(DomainError):
        fit_logistic_nlls(nonpos)
    # every cap's logit line meets t = 0 where exp overflows
    tiny = TimeSeries(tuple("abcd"), (1e-300, 1e-300, 1e-300, 1.0), "cumulative")
    with pytest.raises(EstimationError, match="no start of the logistic fit lies in float range"):
        estimate_nlls(tiny)
    # (cap - y) / y overflows at the subnormal value for every cap, so each
    # start is nan and is skipped, with no numpy warning on the way
    subnormal = TimeSeries(tuple("abcd"), (5e-324, 1.0, 2.0, 3.0), "cumulative")
    with pytest.raises(EstimationError, match="no start of the logistic fit lies in float range"):
        estimate_nlls(subnormal)


def test_run_method_passes_each_estimator_its_arguments():
    w = _window()
    assert run_method("scd", w, constant_mode="paper-rounded") == estimate_scd(w, "paper-rounded")
    assert run_method("sld", w, policy=GLOBAL_MAX) == estimate_sld(w, "exact", GLOBAL_MAX)
    assert run_method("polyfit", w, degree=6) == polyfit_estimate(w, 6)
    assert run_method("nlls", w) == estimate_nlls(w)
    got = run_method("order-n", w, 4, 4, "paper-rounded", GLOBAL_MAX)
    assert got == higher_order_estimate(w, 4, "paper-rounded", GLOBAL_MAX)
    assert METHODS == ("scd", "sld", "polyfit", "nlls", "order-n")


def test_run_method_rejects_unknown_methods_and_missing_order():
    with pytest.raises(DomainError, match="method must be one of"):
        run_method("bogus", _window())
    with pytest.raises(DomainError):
        run_method("order-n", _window())
    err = io.StringIO()
    argv = ["estimate", "--fixture", "loyalty-tnlc-window", "--method", "order-n"]
    assert cli.run(argv, stdout=io.StringIO(), stderr=err) == 1
    assert err.getvalue() == "error: --method order-n requires --n\n"


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(estimate_module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimate_module, name, counting)
    return calls


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
def test_callers_reach_estimators_through_the_estimate_module(monkeypatch):
    # a wrapper installed on the estimate module (a test double, a
    # tracer) must see the calls of the bench and of the CLI
    scd = _count_calls(monkeypatch, "estimate_scd")
    nlls = _count_calls(monkeypatch, "estimate_nlls")
    spec = GenSpec(LogisticParams(1000.0, 200.0, 0.4), n_points=20)
    rows = benchmark_estimators([spec], [12, 20])
    assert [row["method"] for row in rows] == ["scd", "sld", "polyfit", "nlls"] * 2
    assert len(scd) == len(nlls) == 2
    for method in ("scd", "nlls"):
        argv = ["estimate", "--fixture", "loyalty-tnlc-window", "--method", method]
        assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert len(scd) == len(nlls) == 3


def test_below_max_warning_names_the_caller():
    # however many package frames the dispatch adds, the warning points
    # at the line that called into the package
    ts = get_fixture("mobile-slovakia").series
    calls = [
        lambda: estimate_scd(ts),
        lambda: estimate_sld(ts),
        lambda: higher_order_estimate(ts, 3),
        lambda: polyfit_estimate(ts, 6),
        lambda: run_method("scd", ts),
        lambda: run_method("order-n", ts, n=3),
        lambda: run_method("polyfit", ts, degree=6),
    ]
    for call in calls:
        with pytest.warns(RuntimeWarning, match="does not exceed the largest") as record:
            call()
        assert [w.filename for w in record] == [__file__]


# ------------------------------------------------------ the one contract

LEVELS_ONLY = "estimators need a cumulative (level) series; cumulate raw counts first"


@pytest.mark.parametrize("method", [*METHODS, "fit_logistic_nlls"])
def test_every_estimator_refuses_a_raw_series_first(method):
    # the same refusal from every method and the fitter, before any length or fit check
    raw = get_fixture("medical-qmd").series
    too_short = TimeSeries(tuple("abc"), (1.0, 2.0, 4.0), "raw")
    for ts in (raw, too_short):
        with pytest.raises(DomainError) as info:
            fit_logistic_nlls(ts) if method == "fit_logistic_nlls" else run_method(method, ts, n=4)
        assert str(info.value) == LEVELS_ONLY


@pytest.mark.parametrize("estimator", [estimate_scd, estimate_sld])
def test_division_estimators_need_n_plus_two_points(estimator):
    # three defined second differences need five observations
    four = TimeSeries(tuple("abcd"), (1.0, 2.0, 4.0, 7.0), "cumulative")
    with pytest.raises(DomainError, match="need at least 5 observations"):
        estimator(four)
    five = TimeSeries(tuple("abcde"), (1.0, 2.0, 4.0, 7.0, 9.0), "cumulative")
    assert estimator(five, policy=GLOBAL_MAX).char_point is not None


def _fixture_prefixes(shortest):
    """(fixture name, prefix) for every prefix of at least ``shortest``
    points of every fixture, raw fixtures cumulated."""
    for name in FIXTURE_NAMES:
        ts = get_fixture(name).series
        if ts.kind == "raw":
            ts = cumulate(ts)
        for n in range(shortest, len(ts) + 1):
            yield name, TimeSeries(ts.labels[:n], ts.values[:n], "cumulative")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nlls_exceeds_the_largest_observation_on_every_fixture_prefix():
    # the fit keeps u_max above max(y), so nlls never warns
    for name, ts in _fixture_prefixes(4):
        est = estimate_nlls(ts)
        assert est.diagnostics["exceeds_max_observed"] is True, (name, len(ts))


def _estimate_or_refusal(estimator, ts, policy):
    try:
        return estimator(ts, policy=policy)
    except LogisticHorizonError as exc:
        return exc


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
@pytest.mark.parametrize("policy", POLICIES)
def test_sld_is_scd_read_one_sample_later(policy):
    # SLD[t] is SCD[t-1]: a strict local maximum needs its right neighbour
    # under either stencil, so both decide on the same samples
    lam3 = characteristic_level(3)
    estimates = 0
    for name, ts in _fixture_prefixes(5):
        scd = _estimate_or_refusal(estimate_scd, ts, policy)
        sld = _estimate_or_refusal(estimate_sld, ts, policy)
        if isinstance(scd, LogisticHorizonError) or isinstance(sld, LogisticHorizonError):
            assert type(sld) is type(scd), (name, len(ts))
            continue
        i = scd.char_point.index
        assert sld.char_point.index == i + 1, (name, len(ts))
        assert sld.u_max_hat == ts.values[i + 1] / lam3, (name, len(ts))
        estimates += 1
    assert estimates >= 100


def test_nlls_keeps_a_subnormal_maximum_below_its_estimate():
    # 1.05 * max(y) rounds back to max(y) here, so that start is skipped
    ts = TimeSeries(tuple("abcdef"), tuple(k * 5e-324 for k in range(1, 7)), "cumulative")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_nlls(ts)
    assert est.u_max_hat > 3e-323
    assert est.diagnostics["exceeds_max_observed"] is True


ESTIMATORS = [
    estimate_scd,
    estimate_sld,
    lambda ts: polyfit_estimate(ts, 4),
    lambda ts: polyfit_estimate(ts, 6),
    estimate_nlls,
    *(lambda ts, n=n: higher_order_estimate(ts, n) for n in (4, 5, 6)),
]


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=30))
@example([1e-300, 1e-300, 1e-300, 1.0])
@example([0.0, 1e307, 5e307, 1.6e308, 1.7e308, 1.75e308])
@example([5e-324, 1.0, 2.0, 3.0])
def test_every_estimator_returns_an_estimate_or_raises_a_package_error(y):
    ts = TimeSeries(map(str, range(len(y))), y, "cumulative")
    for estimator in ESTIMATORS:
        try:
            est = estimator(ts)
        except LogisticHorizonError:
            continue
        assert isinstance(est.u_max_hat, float)
        assert math.isfinite(est.u_max_hat)
