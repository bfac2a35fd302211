"""Derivative polynomials of quadratic-rate growth curves.

If u solves u' = r (u - u1)(u - u2), every higher derivative of u is a
polynomial in u itself.  With the normalization u1 = 0, u2 = 1, r = -1
(the unit logistic curve) the n-th derivative is P_{n+1}(u) where

    P_{n+1}(u) = (-1)^n * sum_{k=0}^{n-1} A(n, k) * u^{k+1} * (u - 1)^{n-k}

and A(n, k) are the Eulerian numbers.  P_{n+1} has degree n + 1, always
vanishes at u = 0 and u = 1, and all of its roots are simple and lie in
[0, 1].  The least positive root of P_{n+1} is the fraction of the
saturation level at which the n-th derivative of the curve first
vanishes; those fractions drive the estimators in
:mod:`logistic_horizon.estimate`.

Numerical policy: evaluation on [0, 1] always goes through the factored
Eulerian sum (products of u and u-1 powers, summed with compensated
addition), never through the expanded monomial form, because the
monomial coefficients alternate and cancel catastrophically near
u = 1/2 once n gets large.  The monomial coefficients are still carried
(as exact integers) because several identities are stated through them.

Root finding exploits the chain rule.  Differentiating the defining ODE
gives P_{n+2} = P'_{n+1} * P_2, so

    roots(P_{n+2}) = {0, 1} union roots(P'_{n+1})

and by Rolle's theorem each consecutive pair of the n+1 simple roots of
P_{n+1} brackets exactly one root of P'_{n+1}.  Plain bisection on
those brackets is therefore exact and certificate-backed; no general
polynomial solver is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import BracketError, DomainError
from .eulerian import eulerian_row
from .logistic import LogisticParams, logistic_eval

# Construction cap for derivative order. Integer arithmetic is exact at
# any order; the cap only keeps accidental huge requests from burning
# time. Raise it if you really need deeper derivatives.
MAX_DERIV_ORDER = 25

_BISECT_TOL = 1e-13


@dataclass(frozen=True)
class RiccatiParams:
    """Quadratic rate u' = r (u - u1)(u - u2) with real distinct roots."""

    r: float
    u1: float
    u2: float

    def __post_init__(self):
        if self.r == 0 or not math.isfinite(self.r):
            raise DomainError(f"r must be nonzero and finite, got {self.r!r}")
        if not (math.isfinite(self.u1) and math.isfinite(self.u2)):
            raise DomainError("u1 and u2 must be finite")
        if self.u1 == self.u2:
            raise DomainError("u1 and u2 must be distinct (repeated root not supported)")


@dataclass(frozen=True)
class DerivativePolynomial:
    """P_{n+1} for derivative order n: exact coefficients plus the
    Eulerian row that generates the factored form."""

    deriv_order: int
    poly_order: int
    monomial_coeffs: tuple[int, ...]
    eulerian_row: tuple[int, ...]


def build_poly(n: int) -> DerivativePolynomial:
    """Construct P_{n+1} for derivative order ``n >= 1``.

    Coefficients come from expanding the factored Eulerian sum with
    exact integer binomials, ascending powers: ``monomial_coeffs[i]``
    multiplies ``u**i``.
    """
    _check_order(n, minimum=1)
    row = eulerian_row(n)
    coeffs = [0] * (n + 2)
    sign = -1 if n % 2 else 1
    for k in range(n):
        m = n - k
        # u^{k+1} (u-1)^m contributes C(m, j) (-1)^(m-j) to power k+1+j
        for j in range(m + 1):
            coeffs[k + 1 + j] += sign * row[k] * comb(m, j) * (-1) ** (m - j)
    return DerivativePolynomial(
        deriv_order=n,
        poly_order=n + 1,
        monomial_coeffs=tuple(coeffs),
        eulerian_row=tuple(row),
    )


def eval_poly(p: DerivativePolynomial, u: float) -> float:
    """Value of P_{n+1}(u) through the factored form."""
    return _eval_factored(p.deriv_order, p.eulerian_row, u)


def _check_order(n, minimum):
    if not isinstance(n, int) or isinstance(n, bool) or n < minimum:
        raise DomainError(f"derivative order must be an integer >= {minimum}, got {n!r}")
    if n > MAX_DERIV_ORDER:
        raise DomainError(
            f"derivative order {n} exceeds the construction cap {MAX_DERIV_ORDER}"
        )


def _powers(x: float, top: int) -> list[float]:
    out = [1.0] * (top + 1)
    for i in range(1, top + 1):
        out[i] = out[i - 1] * x
    return out


def _eval_factored(n: int, row, u: float) -> float:
    """P_{n+1}(u) = (-1)^n sum_k A(n,k) u^{k+1} (u-1)^{n-k}, fsum'd."""
    up = _powers(u, n + 1)
    vp = _powers(u - 1.0, n)
    s = math.fsum(row[k] * up[k + 1] * vp[n - k] for k in range(n))
    return -s if n % 2 else s


def _eval_factored_deriv(n: int, row, u: float) -> float:
    """d/du of the factored P_{n+1}, term by term.

    Each product differentiates to
    (k+1) u^k (u-1)^{n-k} + (n-k) u^{k+1} (u-1)^{n-k-1}; keeping the
    factored shape preserves the cancellation-free evaluation.
    """
    up = _powers(u, n + 1)
    vp = _powers(u - 1.0, n)
    terms = []
    for k in range(n):
        t = (k + 1) * up[k] * vp[n - k]
        if n - k - 1 >= 0:
            t += (n - k) * up[k + 1] * vp[n - k - 1]
        terms.append(row[k] * t)
    s = math.fsum(terms)
    return -s if n % 2 else s


def riccati_nth_derivative(params: RiccatiParams, n: int, u: float) -> float:
    """n-th derivative of a solution of u' = r (u-u1)(u-u2), as a
    function of the current value ``u``.  Requires ``n >= 2``.

        u^(n) = r^n * sum_k A(n,k) (u-u1)^{k+1} (u-u2)^{n-k}
    """
    _check_order(n, minimum=2)
    row = eulerian_row(n)
    x = u - params.u1
    y = u - params.u2
    xp = _powers(x, n + 1)
    yp = _powers(y, n)
    s = math.fsum(row[k] * xp[k + 1] * yp[n - k] for k in range(n))
    return params.r**n * s


def logistic_nth_derivative(lp: LogisticParams, n: int, t: float) -> float:
    """n-th time derivative of the logistic curve at ``t``.

    The curve satisfies u' = (c/u_max) u (u_max - u), a quadratic rate
    with r = -c/u_max and roots {0, u_max}, so for n >= 2 the factored
    Eulerian sum applies directly.  n = 1 is the rate itself.
    """
    _check_order(n, minimum=1)
    u = logistic_eval(lp, t)
    if n == 1:
        return lp.c1 * u * (lp.u_max - u)
    row = eulerian_row(n)
    up = _powers(u, n + 1)
    vp = _powers(u - lp.u_max, n)
    s = math.fsum(row[k] * up[k + 1] * vp[n - k] for k in range(n))
    return (-lp.c1) ** n * s


def _bisect_root(f, a: float, b: float) -> float:
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise BracketError(f"no sign change on [{a}, {b}]")
    while b - a > _BISECT_TOL:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


def poly_roots(n: int) -> list[float]:
    """All ``n + 1`` roots of P_{n+1}, ascending, each within 1e-12.

    Recursion: starting from roots(P_2) = [0, 1], the inner roots at
    each level are the zeros of the previous level's derivative,
    bracketed by that level's roots.
    """
    _check_order(n, minimum=1)
    return list(_roots(n))


@lru_cache(maxsize=MAX_DERIV_ORDER)
def _roots(n: int) -> tuple[float, ...]:
    # callers validate n first: 3.0 and True hash like 3 and 1 and
    # would otherwise hit the cache; the tuple keeps entries immutable
    roots = [0.0, 1.0]
    for m in range(2, n + 1):
        row = eulerian_row(m - 1)
        inner = [
            _bisect_root(
                lambda u: _eval_factored_deriv(m - 1, row, u), roots[i], roots[i + 1]
            )
            for i in range(len(roots) - 1)
        ]
        roots = [0.0] + inner + [1.0]
    return tuple(roots)


def characteristic_level(n: int) -> float:
    """Least positive root of P_{n+1}: the fraction of the saturation
    level at which the n-th derivative of the curve first vanishes.
    0.5 exactly for n = 2, then 0.21132..., 0.09175..., 0.04131..., and
    decreasing.  Requires ``n >= 2``.  Computed once per order.
    """
    _check_order(n, minimum=2)
    return _roots(n)[1]
