"""Saturation-level estimators.

Three families, sharing one output type:

* division methods (scd, sld, higher order): locate a characteristic
  point on a difference series and divide the level observed there by
  the matching characteristic fraction.  The third-derivative fraction
  is 0.21132...; in paper-rounded mode the constants are truncated to
  three significant digits (0.211, 0.0917, 0.0413) so printed golden
  arithmetic can be reproduced verbatim.
* polyfit: fit a quartic (or higher even degree) trend by least
  squares, take the level at the maximizer of its second derivative,
  divide by the third-derivative fraction.
* nlls: fit the full logistic curve by damped nonlinear least squares.
  This is the baseline method the characteristic-point approach is
  meant to complement on short windows.  fit_logistic_nlls returns the
  curve of that one fit as LogisticParams, under the same contract.

Every estimator refuses a non-cumulative series, since the fractions
are fractions of the saturation level.  Every estimator reports, but
does not enforce, the sanity bound u_max_hat > max(y): noisy data can
violate it and hiding that would be worse than a RuntimeWarning that
names the caller.  nlls never warns, as its fit keeps u_max above max(y).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from .derivpoly import characteristic_level
from .errors import DomainError, EstimationError, NumericalError, require_int
from .logistic import LogisticParams
from .series import (
    FIRST_LOCAL_MAX,
    CharacteristicPoint,
    TimeSeries,
    find_characteristic_point,
    nth_central_diff,
    second_central_diff,
    second_left_diff,
)

CONSTANT_MODES = ("exact", "paper-rounded")
METHODS = ("scd", "sld", "polyfit", "nlls", "order-n")


@dataclass(frozen=True)
class SaturationEstimate:
    method: str
    u_max_hat: float
    constant_used: float | None = None
    char_point: CharacteristicPoint | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PolyFit:
    """Least-squares polynomial over 0-based sample indices."""

    degree: int
    coefficients: tuple[float, ...]
    domain: tuple[int, int]

    def __call__(self, x: float) -> float:
        return _horner(self.coefficients, x)

    def derivative_coeffs(self, order: int) -> tuple[float, ...]:
        cs = list(self.coefficients)
        for _ in range(order):
            cs = [i * c for i, c in enumerate(cs)][1:]
        return tuple(cs)


def _horner(cs, x):
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _trunc_significant(x: float, digits: int = 3) -> float:
    shift = digits - 1 - math.floor(math.log10(abs(x)))
    scale = 10.0**shift
    return math.trunc(x * scale) / scale


def resolve_constant(n: int, constant_mode: str) -> float:
    """Characteristic fraction for derivative order ``n``, either exact
    or truncated to the 3 significant digits used in printed worked
    examples (0.211 for n = 3, 0.0917 for n = 4, 0.0413 for n = 5)."""
    if constant_mode not in CONSTANT_MODES:
        raise DomainError(f"constant_mode must be one of {CONSTANT_MODES}, got {constant_mode!r}")
    level = characteristic_level(n)
    if constant_mode == "paper-rounded":
        return _trunc_significant(level, 3)
    return level


def _require_levels(ts: TimeSeries) -> None:
    if ts.kind != "cumulative":
        raise DomainError("estimators need a cumulative (level) series; cumulate raw counts first")


def _finish(ts, method, u_max_hat, constant, point, diagnostics) -> SaturationEstimate:
    """Package an estimate, checking it against the largest observation:
    ``exceeds_max_observed`` becomes the last diagnostics key, and a
    RuntimeWarning names the caller when the bound fails; a non-finite level is refused."""
    if not math.isfinite(u_max_hat):
        raise NumericalError(f"estimated saturation level {u_max_hat!r} is not finite")
    observed_max = float(ts.array.max())
    exceeds = u_max_hat > observed_max
    if not exceeds:
        # name the first caller outside this package, however deep the dispatch
        frame, level = sys._getframe(1), 2
        while frame and frame.f_globals.get("__name__", "").startswith("logistic_horizon."):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"estimated saturation level {u_max_hat:g} does not exceed the largest "
            f"observed value {observed_max:g}; the series may already be saturated "
            "or the detected point may be spurious",
            RuntimeWarning,
            stacklevel=level,
        )
    diagnostics["exceeds_max_observed"] = exceeds
    return SaturationEstimate(
        method=method,
        u_max_hat=u_max_hat,
        constant_used=constant,
        char_point=point,
        diagnostics=diagnostics,
    )


def _division_estimate(ts, diff, n, method, constant_mode, policy) -> SaturationEstimate:
    _require_levels(ts)
    constant = resolve_constant(n, constant_mode)
    # the n-th derivative's point needs 3 defined values of an order n-1 stencil
    if len(ts) < n + 2:
        raise DomainError(f"need at least {n + 2} observations for order {n}, got {len(ts)}")
    point = find_characteristic_point(diff(ts), policy)
    diagnostics = {"constant_mode": constant_mode, "policy": policy}
    return _finish(ts, method, point.series_value / constant, constant, point, diagnostics)


def estimate_scd(
    ts: TimeSeries, constant_mode: str = "exact", policy: str = FIRST_LOCAL_MAX
) -> SaturationEstimate:
    """Divide the level at the characteristic point of the second
    central difference by the third-derivative fraction."""
    return _division_estimate(ts, second_central_diff, 3, "scd", constant_mode, policy)


def estimate_sld(
    ts: TimeSeries, constant_mode: str = "exact", policy: str = FIRST_LOCAL_MAX
) -> SaturationEstimate:
    """Same as estimate_scd but on the second left difference.

    SLD[t] is SCD[t-1], so where scd picks index i and reads y[i], sld
    picks i + 1 and reads y[i+1], a later and larger level.  It decides
    no earlier: a strict local maximum needs the difference to its
    right, SLD[i+2] = SCD[i+1], so both read the same samples, up to
    y[i+2], before they decide.
    """
    return _division_estimate(ts, second_left_diff, 3, "sld", constant_mode, policy)


def higher_order_estimate(
    ts: TimeSeries, n: int, constant_mode: str = "exact", policy: str = FIRST_LOCAL_MAX
) -> SaturationEstimate:
    """Division estimate from the zero of the n-th derivative, n >= 3.

    The (n-1)-th central difference stands in for the (n-1)-th
    derivative, whose maximum marks the n-th derivative's zero; n = 3
    is exactly estimate_scd.  Higher n gives earlier characteristic
    points (smaller fractions of the saturation level) at the price of
    noisier differences.
    """
    require_int(n, "derivative order", 3)
    if n == 3:
        return estimate_scd(ts, constant_mode, policy)
    diff = partial(nth_central_diff, order=n - 1)
    return _division_estimate(ts, diff, n, f"higher-order-{n}", constant_mode, policy)


def fit_polynomial_lsm(ts: TimeSeries, degree: int) -> PolyFit:
    """Least-squares polynomial of the values against 0..n-1.

    Solved through an orthogonal decomposition (SVD-backed lstsq), not
    the raw normal equations, so the Vandermonde conditioning of longer
    windows does not poison the coefficients.
    """
    require_int(degree, "degree", 2)
    n = len(ts)
    if n <= degree:
        raise DomainError(f"need more points than the degree: {n} points for degree {degree}")
    x = np.arange(n, dtype=float)
    design = np.vander(x, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, ts.array, rcond=None)
    if rank < degree + 1:
        raise NumericalError(f"design matrix rank {rank} below {degree + 1}; fit is not unique")
    coefficients = tuple(coeffs.tolist())
    if not all(map(math.isfinite, coefficients)):
        raise NumericalError("least-squares coefficients are non-finite")
    return PolyFit(degree=degree, coefficients=coefficients, domain=(0, n - 1))


def _argmax_second_derivative(fit: PolyFit) -> float:
    lo, hi = fit.domain
    d2 = fit.derivative_coeffs(2)
    if fit.degree == 4:
        # f'' is the quadratic d2[0] + d2[1] x + d2[2] x^2; curvature at
        # rounding-noise scale counts as flat, not concave
        scale = max(abs(v) for v in d2) or 1.0
        if d2[2] >= -1e-12 * scale:
            raise EstimationError(
                "second derivative of the fitted quartic is not concave; "
                "no interior maximum to locate"
            )
        vertex = -d2[1] / (2.0 * d2[2])
        return min(max(vertex, float(lo)), float(hi))

    d3 = fit.derivative_coeffs(3)
    if not all(map(math.isfinite, d3)):
        raise NumericalError("third derivative of the fit has non-finite coefficients")
    # f'' peaks at a real root of f''' inside the window or at an end
    xs = [float(r.real) for r in np.roots(d3[::-1]) if r.imag == 0 and lo < r.real < hi]
    xs += [float(lo), float(hi)]
    vals = [_horner(d2, x) for x in xs]
    top, bottom = max(vals), min(vals)
    if top - bottom <= 1e-9 * max(abs(top), abs(bottom), 1e-300):
        raise EstimationError(
            "second derivative of the fit is effectively constant; "
            "no interior maximum to locate"
        )
    return xs[vals.index(top)]


def polyfit_estimate(
    ts: TimeSeries, degree: int = 4, constant_mode: str = "exact"
) -> SaturationEstimate:
    """Estimate through a polynomial trend: fit, find where its second
    derivative peaks, divide the fitted level there by the
    third-derivative fraction."""
    require_int(degree, "degree", 4)
    if degree % 2:
        raise DomainError(f"degree must be an even integer >= 4, got {degree!r}")
    _require_levels(ts)
    constant = resolve_constant(3, constant_mode)
    fit = fit_polynomial_lsm(ts, degree)
    x_star = _argmax_second_derivative(fit)
    f_x_star = fit(x_star)
    diagnostics = {
        "degree": degree,
        "coefficients": list(fit.coefficients),
        "x_star": x_star,
        "f_x_star": f_x_star,
        "constant_mode": constant_mode,
    }
    return _finish(ts, "polyfit", f_x_star / constant, constant, None, diagnostics)


def _work_arrays(n):
    # z, its real part e as a view, den and res: one set per start of nlls
    z = np.empty(n, complex)
    return z, z.real, np.empty(n), np.empty(n)


def _logistic_residuals(y, t, u_max, a, c, w):
    # writes e = exp(-c*t), den = 1 + a*e and res = u_max/den - y into the
    # work arrays w. libm's exp for every sample, in one call: complex exp
    # is C cexp, not SIMD, and cexp(x + 0i) is exp(x) * cos(0) = exp(x) for
    # x = -c*t <= 0. The real SIMD np.exp differs from libm in the last bit
    # on a few percent of inputs, and LM amplifies that into visible
    # changes in the fit (see README "Determinism")
    z, e, den, res = w
    np.exp((-c * t).astype(complex), out=z)
    np.multiply(e, a, out=den)
    den += 1.0
    np.divide(u_max, den, out=res)
    res -= y


@np.errstate(over="ignore", invalid="ignore", under="ignore")
def _lm_refine(y, t, ymax, u_max, a, c):
    """Damped least-squares refinement of one candidate start.

    Steps that leave the feasible region (u_max above the data, a and c
    positive) are rejected and the damping raised, same as steps that
    fail to reduce the error.  A singular system solves to nan and is
    rejected the same way.  Overflow gives inf and underflow a subnormal
    or 0 without a warning, as in scalar float code.  Work arrays are made once per call, not per step.
    """
    p = (float(u_max), float(a), float(c))
    w = _work_arrays(len(t))
    _, e, den, res = w
    _logistic_residuals(y, t, *p, w)
    sse = float(res.dot(res))
    jac, den2 = np.empty((len(t), 3)), np.empty(len(t))
    d_u, d_a, d_c = jac.T  # column views of a C-ordered jac, filled by their scalar formulas
    damp = np.zeros((3, 3))  # h's diagonal, exact zeros elsewhere
    damp_diag = damp.reshape(9)[::4]
    lam = 1e-3
    for _ in range(200):
        np.multiply(den, den, out=den2)
        np.divide(1.0, den, out=d_u)
        np.multiply(-p[0], e, out=d_a)
        d_a /= den2
        np.multiply(p[0] * p[1], t, out=d_c)
        d_c *= e
        d_c /= den2
        h = jac.T.dot(jac)
        g = jac.T.dot(res)
        damp_diag[:] = h.diagonal()
        # trials write over e, den and res: once h and g are formed the loop
        # no longer reads them at p, and an accepted trial is always the
        # last one evaluated, so they hold its point for the next Jacobian
        for _ in range(50):
            # np.linalg.solve's own LAPACK gufunc, without its wrapper's cost per call;
            # it is odd in g, so p - solve(g) has the bits of p + solve(-g)
            step = _solve1(h + lam * damp, g).tolist()
            q = (p[0] - step[0], p[1] - step[1], p[2] - step[2])
            if q[0] > ymax and q[1] > 0 and q[2] > 0:
                _logistic_residuals(y, t, *q, w)
                sse_q = float(res.dot(res))
                if sse_q <= sse:
                    # every ratio below the bound, nan failing as in max(ratios)
                    converged = (
                        abs(step[0]) / max(abs(p[0]), 1e-300) < 1e-10
                        and abs(step[1]) / max(abs(p[1]), 1e-300) < 1e-10
                        and abs(step[2]) / max(abs(p[2]), 1e-300) < 1e-10
                    )
                    p, sse = q, sse_q
                    lam = max(lam * 0.3, 1e-12)
                    break
            lam *= 10.0
        else:
            # no direction improves: stationary to working precision
            converged = True
            break
        if converged:
            break
    return p, math.sqrt(sse / len(y)), converged


def _logit_line(z, dt, stt):
    """Mean and slope of the logit line z against the deviations dt, with
    stt the sum of their squares.  Each sum adds left to right from the
    first term, as np.add.accumulate does on every numpy; the builtin sum
    compensates from Python 3.12 on, and pairwise np.sum rounds otherwise."""
    zbar = float(np.add.accumulate(z)[-1]) / len(z)
    return zbar, float(np.add.accumulate(dt * (z - zbar))[-1]) / stt


@np.errstate(over="ignore", invalid="ignore")
def estimate_nlls(ts: TimeSeries) -> SaturationEstimate:
    """Fit u_max/(1 + a e^{-ct}) to the values against t = 0..n-1.

    Multi-start: a small ladder of saturation caps above the observed
    maximum, each reduced to a line fit in logit space for the other
    two parameters, then damped least-squares refinement.  The best
    candidate (lowest RMSE, ties to the lower saturation level) gives
    ``u_max_hat``; its ``a``, ``c``, ``rmse`` and ``converged`` are the
    diagnostics.
    """
    _require_levels(ts)
    if len(ts) < 4:
        raise DomainError(f"need at least 4 observations, got {len(ts)}")
    y = ts.array
    if y.min() <= 0:
        raise DomainError("logistic fitting needs strictly positive values")
    ymax = float(y.max())
    n = len(y)
    t = np.arange(n, dtype=float)
    # logit transform: ln((cap - y)/y) is affine in t when cap is right. t's
    # moments are exact closed forms; math.log and _logit_line's sums keep
    # zbar and slope bit-stable, where np.log could round differently
    tbar = (n - 1) / 2
    dt = t - tbar
    stt = n * (n**2 - 1) / 12
    fits = []
    for cap in (1.05 * ymax, 1.5 * ymax, 3.0 * ymax, 10.0 * ymax):
        if not cap > ymax:
            # a subnormal ymax, where 1.05 * ymax rounds back to ymax
            continue
        z = np.fromiter(map(math.log, ((cap - y) / y).tolist()), float, n)
        zbar, slope = _logit_line(z, dt, stt)
        try:
            a0 = math.exp(zbar - slope * tbar)
        except OverflowError:
            # the logit line meets t = 0 beyond float range: no start from this cap
            continue
        if not math.isfinite(a0):  # an overflowed logit, quiet under errstate: no start either
            continue
        c0 = -slope if -slope > 0 else 1e-6
        fits.append(_lm_refine(y, t, ymax, cap, a0, c0))
    if not fits:
        raise EstimationError("no start of the logistic fit lies in float range")
    # min keeps the earlier start on a tie
    (u_hat, a_hat, c_hat), rmse, converged = min(fits, key=lambda fit: (fit[1], fit[0][0]))
    params = LogisticParams(u_max=u_hat, a=a_hat, c=c_hat)
    diagnostics = {
        "a": params.a,
        "c": params.c,
        "rmse": rmse,
        "converged": converged,
    }
    return _finish(ts, "nlls", params.u_max, None, None, diagnostics)


def fit_logistic_nlls(ts: TimeSeries) -> tuple[LogisticParams, float]:
    """The curve :func:`estimate_nlls` fits, as parameters and RMSE."""
    est = estimate_nlls(ts)
    d = est.diagnostics
    return LogisticParams(est.u_max_hat, d["a"], d["c"]), d["rmse"]


def run_method(
    method: str,
    ts: TimeSeries,
    n: int | None = None,
    degree: int = 4,
    constant_mode: str = "exact",
    policy: str = FIRST_LOCAL_MAX,
) -> SaturationEstimate:
    """Run the estimator named ``method``, one of :data:`METHODS`.

    ``n`` is the derivative order of "order-n" and ``degree`` the
    polyfit degree; each estimator takes only the arguments it uses.
    """
    # module globals looked up per call: a patched estimator is the one run
    if method == "scd":
        return estimate_scd(ts, constant_mode, policy)
    if method == "sld":
        return estimate_sld(ts, constant_mode, policy)
    if method == "polyfit":
        return polyfit_estimate(ts, degree, constant_mode)
    if method == "nlls":
        return estimate_nlls(ts)
    if method == "order-n":
        return higher_order_estimate(ts, n, constant_mode, policy)
    raise DomainError(f"method must be one of {METHODS}, got {method!r}")
