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
  meant to complement on short windows.

Division estimators require a cumulative (level) series, since the
fractions are fractions of the saturation level.  They report, but do
not enforce, the sanity bound u_max_hat > max(y): noisy data can
violate it and hiding that would be worse than warning.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .derivpoly import characteristic_level
from .errors import DomainError, EstimationError, NumericalError
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
    # x may be a float or an array; each step rounds as in scalar code
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _trunc_significant(x: float, digits: int = 3) -> float:
    if x == 0.0:
        return 0.0
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


def _division_estimate(ts, ds, n, method, constant_mode, policy) -> SaturationEstimate:
    if ts.kind != "cumulative":
        raise DomainError(
            "division estimators need a cumulative (level) series; cumulate raw counts first"
        )
    point = find_characteristic_point(ds, policy)
    constant = resolve_constant(n, constant_mode)
    u_max_hat = point.series_value / constant
    observed_max = max(ts.values)
    exceeds = u_max_hat > observed_max
    if not exceeds:
        warnings.warn(
            f"estimated saturation level {u_max_hat:g} does not exceed the largest "
            f"observed value {observed_max:g}; the series may already be saturated "
            "or the detected point may be spurious",
            RuntimeWarning,
            stacklevel=3,
        )
    diagnostics = {
        "constant_mode": constant_mode,
        "policy": policy,
        "ambiguity": list(point.ambiguity),
        "exceeds_max_observed": exceeds,
    }
    return SaturationEstimate(
        method=method,
        u_max_hat=u_max_hat,
        constant_used=constant,
        char_point=point,
        diagnostics=diagnostics,
    )


def estimate_scd(
    ts: TimeSeries, constant_mode: str = "exact", policy: str = FIRST_LOCAL_MAX
) -> SaturationEstimate:
    """Divide the level at the characteristic point of the second
    central difference by the third-derivative fraction."""
    if len(ts) < 4:
        raise DomainError(f"need at least 4 observations, got {len(ts)}")
    return _division_estimate(ts, second_central_diff(ts), 3, "scd", constant_mode, policy)


def estimate_sld(
    ts: TimeSeries, constant_mode: str = "exact", policy: str = FIRST_LOCAL_MAX
) -> SaturationEstimate:
    """Same as estimate_scd but on the second left difference, the
    variant available in real time (no lookahead sample needed)."""
    if len(ts) < 4:
        raise DomainError(f"need at least 4 observations, got {len(ts)}")
    return _division_estimate(ts, second_left_diff(ts), 3, "sld", constant_mode, policy)


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
    if not isinstance(n, int) or isinstance(n, bool) or n < 3:
        raise DomainError(f"derivative order must be an integer >= 3, got {n!r}")
    if n == 3:
        return estimate_scd(ts, constant_mode, policy)
    if len(ts) < n + 2:
        raise DomainError(f"need at least {n + 2} observations for order {n}, got {len(ts)}")
    ds = nth_central_diff(ts, n - 1)
    return _division_estimate(ts, ds, n, f"higher-order-{n}", constant_mode, policy)


def fit_polynomial_lsm(ts: TimeSeries, degree: int) -> PolyFit:
    """Least-squares polynomial of the values against 0..n-1.

    Solved through an orthogonal decomposition (SVD-backed lstsq), not
    the raw normal equations, so the Vandermonde conditioning of longer
    windows does not poison the coefficients.
    """
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 2:
        raise DomainError(f"degree must be an integer >= 2, got {degree!r}")
    n = len(ts)
    if n <= degree:
        raise DomainError(f"need more points than the degree: {n} points for degree {degree}")
    x = np.arange(n, dtype=float)
    design = np.vander(x, degree + 1, increasing=True)
    y = np.asarray(ts.values, dtype=float)
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < degree + 1:
        raise NumericalError(f"design matrix rank {rank} below {degree + 1}; fit is not unique")
    return PolyFit(
        degree=degree,
        coefficients=tuple(float(c) for c in coeffs),
        domain=(0, n - 1),
    )


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
    xs = np.linspace(lo, hi, 2001)
    vals = _horner(d2, xs)
    top, bottom = float(vals.max()), float(vals.min())
    if top - bottom <= 1e-9 * max(abs(top), abs(bottom), 1e-300):
        raise EstimationError(
            "second derivative of the fit is effectively constant; "
            "no interior maximum to locate"
        )
    i = int(np.argmax(vals))
    if 0 < i < len(xs) - 1:
        a, b = xs[i - 1], xs[i + 1]
        fa, fb = _horner(d3, a), _horner(d3, b)
        if fa > 0 > fb:
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = _horner(d3, mid)
                if fm == 0.0:
                    return mid
                if fm > 0:
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)
    return float(xs[i])


def polyfit_estimate(
    ts: TimeSeries, degree: int = 4, constant_mode: str = "exact"
) -> SaturationEstimate:
    """Estimate through a polynomial trend: fit, find where its second
    derivative peaks, divide the fitted level there by the
    third-derivative fraction."""
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 4 or degree % 2:
        raise DomainError(f"degree must be an even integer >= 4, got {degree!r}")
    fit = fit_polynomial_lsm(ts, degree)
    x_star = _argmax_second_derivative(fit)
    f_x_star = fit(x_star)
    constant = resolve_constant(3, constant_mode)
    u_max_hat = f_x_star / constant
    observed_max = max(ts.values)
    diagnostics = {
        "degree": degree,
        "coefficients": list(fit.coefficients),
        "x_star": x_star,
        "f_x_star": f_x_star,
        "constant_mode": constant_mode,
        "exceeds_max_observed": u_max_hat > observed_max,
    }
    return SaturationEstimate(
        method="polyfit",
        u_max_hat=u_max_hat,
        constant_used=constant,
        char_point=None,
        diagnostics=diagnostics,
    )


def _logistic_residuals(y, u_max, a, c):
    n = len(y)
    t = np.arange(n, dtype=float)
    # math.exp per sample, not np.exp: the SIMD np.exp differs from libm
    # in the last bit on a few percent of inputs, and LM amplifies that
    # into visible changes in the fit (see README "Determinism")
    e = np.fromiter(map(math.exp, (-c * t).tolist()), float, n)
    den = 1.0 + a * e
    den2 = den * den
    jac = np.empty((n, 3))
    jac[:, 0] = 1.0 / den
    jac[:, 1] = -u_max * e / den2
    jac[:, 2] = u_max * a * t * e / den2
    return u_max / den - y, jac


@np.errstate(over="ignore", invalid="ignore")
def _lm_refine(y, u_max, a, c):
    """Damped least-squares refinement of one candidate start.

    Steps that leave the feasible region (u_max above the data, a and c
    positive) are rejected and the damping raised, same as steps that
    fail to reduce the error.  Overflow gives inf without a warning,
    as in scalar float code.
    """
    ymax = y.max()
    p = np.array([u_max, a, c])
    res, jac = _logistic_residuals(y, *p)
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
            res_q, jac_q = _logistic_residuals(y, *q)
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
            # no direction improves: stationary to working precision
            converged = True
            break
        if converged:
            break
    rmse = math.sqrt(sse / len(y))
    return (float(p[0]), float(p[1]), float(p[2])), rmse, converged


def _fit_logistic_nlls_full(ts: TimeSeries):
    if len(ts) < 4:
        raise DomainError(f"need at least 4 observations, got {len(ts)}")
    y = np.array(ts.values)
    if y.min() <= 0:
        raise DomainError("logistic fitting needs strictly positive values")
    ymax = max(ts.values)
    t = np.arange(len(y), dtype=float)
    best = None
    for mult in (1.05, 1.5, 3.0, 10.0):
        cap = mult * ymax
        # logit transform: ln((cap - y)/y) is affine in t when cap is right.
        # math.log, left-to-right builtin sum and libm pow keep the starts
        # bit-stable; np.log, pairwise np.sum and x*x could round otherwise
        keep = y < cap
        if keep.sum() < 2:
            continue
        v, xs = y[keep], t[keep]
        zs = np.fromiter(map(math.log, ((cap - v) / v).tolist()), float, len(v))
        xbar = sum(xs.tolist()) / len(xs)
        zbar = sum(zs.tolist()) / len(zs)
        dx = xs - xbar
        sxx = sum(map(pow, dx.tolist(), itertools.repeat(2)))
        if sxx == 0:
            continue
        slope = sum((dx * (zs - zbar)).tolist()) / sxx
        a0 = math.exp(zbar - slope * xbar)
        c0 = -slope if -slope > 0 else 1e-6
        (u_hat, a_hat, c_hat), rmse, converged = _lm_refine(y, cap, a0, c0)
        key = (rmse, u_hat)
        if best is None or key < best[0]:
            best = (key, (u_hat, a_hat, c_hat), rmse, converged)
    if best is None:
        raise EstimationError("no admissible starting point for the logistic fit")
    (u_hat, a_hat, c_hat) = best[1]
    params = LogisticParams(u_max=u_hat, a=a_hat, c=c_hat)
    return params, best[2], best[3]


def fit_logistic_nlls(ts: TimeSeries) -> tuple[LogisticParams, float]:
    """Fit u_max/(1 + a e^{-ct}) to the values against t = 0..n-1.

    Multi-start: a small ladder of saturation caps above the observed
    maximum, each reduced to a line fit in logit space for the other
    two parameters, then damped least-squares refinement.  Returns the
    best candidate (lowest RMSE, ties to the lower saturation level).
    """
    params, rmse, _ = _fit_logistic_nlls_full(ts)
    return params, rmse


def estimate_nlls(ts: TimeSeries) -> SaturationEstimate:
    """fit_logistic_nlls packaged as a SaturationEstimate."""
    params, rmse, converged = _fit_logistic_nlls_full(ts)
    diagnostics = {
        "a": params.a,
        "c": params.c,
        "rmse": rmse,
        "converged": converged,
        "exceeds_max_observed": params.u_max > max(ts.values),
    }
    return SaturationEstimate(
        method="nlls",
        u_max_hat=params.u_max,
        constant_used=None,
        char_point=None,
        diagnostics=diagnostics,
    )
