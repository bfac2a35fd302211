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

One kernel, with x = u - u1 and y = u - u2, evaluates all of it:

    S(n, x, y; s) = sum_{k<n} A(n, k) * x^{k+s} * y^{n-1-k+s}
    P_{n+1}(u) = (-1)^n S(n, u, u - 1; 1)
    d/du S(n, x, y; 1) = S(n + 1, x, y; 0)     (Eulerian recurrence)

Root finding exploits the chain rule.  Differentiating the defining ODE
gives P_{n+2} = P'_{n+1} * P_2, so

    roots(P_{n+2}) = {0, 1} union roots(P'_{n+1})

and by Rolle's theorem each consecutive pair of the n+1 simple roots of
P_{n+1} brackets exactly one root of P'_{n+1}.  A test checks that each
bracket's ends are nonzero and of opposite sign.  Bisection stops at a
width of 1e-13, so small high-order roots carry a relative error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import FLOAT_MAX, DomainError, NumericalError, require_int, show
from .eulerian import eulerian_row

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
        if not 0 < abs(self.r) <= FLOAT_MAX:
            raise DomainError(f"r must be nonzero and finite, got {show(self.r)}")
        if not (abs(self.u1) <= FLOAT_MAX and abs(self.u2) <= FLOAT_MAX):
            raise DomainError("u1 and u2 must be finite")
        if self.u1 == self.u2:
            raise DomainError("u1 and u2 must be distinct (repeated root not supported)")


@dataclass(frozen=True)
class DerivativePolynomial:
    """P_{n+1} for derivative order n: exact coefficients plus the
    Eulerian row that generates the factored form."""

    deriv_order: int
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
        monomial_coeffs=tuple(coeffs),
        eulerian_row=tuple(row),
    )


def eval_poly(p: DerivativePolynomial, u: float) -> float:
    """Value of P_{n+1}(u) through the factored form.

    Raises NumericalError where a finite ``u`` gives a value out of
    float range, whether a term or only the sum overflows.
    """
    try:
        s = _in_range(_eulerian_sum(p.eulerian_row, p.deriv_order, u, u - 1.0, 1), u)
    except OverflowError as exc:
        raise NumericalError(f"P_{p.deriv_order + 1}({show(u)}) is out of float range: {exc}") from None
    return -s if p.deriv_order % 2 else s


def _check_order(n, minimum):
    require_int(n, "derivative order", minimum)
    if n > MAX_DERIV_ORDER:
        raise DomainError(
            f"derivative order {show(n)} exceeds the construction cap {MAX_DERIV_ORDER}"
        )


def _powers(x: float, top: int) -> list[float]:
    out = [1.0] * (top + 1)
    for i in range(1, top + 1):
        out[i] = out[i - 1] * x
    return out


def _eulerian_sum(row, n: int, x: float, y: float, s: int) -> float:
    """S(n, x, y; s) = sum_{k<n} A(n,k) x^{k+s} y^{n-1-k+s}, fsum'd."""
    xp = _powers(x, n - 1 + s)
    yp = _powers(y, n - 1 + s)
    return math.fsum(row[k] * xp[k + s] * yp[n - 1 - k + s] for k in range(n))


def _in_range(value: float, u: float) -> float:
    """``value``, or OverflowError where it is not finite although ``u`` is."""
    if math.isfinite(u) and not math.isfinite(value):
        raise OverflowError("the result is not finite")
    return value


def riccati_nth_derivative(params: RiccatiParams, n: int, u: float) -> float:
    """n-th derivative of a solution of u' = r (u-u1)(u-u2), as a
    function of the current value ``u``.  Requires ``n >= 2``.

        u^(n) = r^n * sum_k A(n,k) (u-u1)^{k+1} (u-u2)^{n-k}

    Raises NumericalError where a finite ``u`` gives a value out of
    float range: r**n, a term, the sum or their product.  A sum of
    exactly 0 (as at u == u1 or u == u2) gives 0, whatever r**n.
    """
    # outside the try: DomainError is a ValueError
    _check_order(n, minimum=2)
    try:
        s = _eulerian_sum(eulerian_row(n), n, u - params.u1, u - params.u2, 1)
        # a zero sum takes only the sign of r**n, which may overflow
        return _in_range((params.r**n if s else math.copysign(1.0, params.r) ** n) * s, u)
    except (OverflowError, ValueError) as exc:
        raise NumericalError(f"derivative of order {n} at u={show(u)} is out of float range: {exc}") from None


def _bisect_root(f, a: float, b: float) -> float:
    fa = f(a)
    if (fa > 0) == (f(b) > 0):
        raise NumericalError(f"no sign change on [{a}, {b}]")
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
            b = mid
    return 0.5 * (a + b)


def poly_roots(n: int) -> list[float]:
    """All ``n + 1`` roots of P_{n+1}, ascending.

    Bisection stops at an absolute bracket width of ``_BISECT_TOL``
    (1e-13), so the relative error of the small roots grows with n:
    against mpmath, the least positive root is off by about 7.5e-14
    relative at n = 3 and 6.6e-7 at n = 25.

    Each order is built from the cached order below, from P_2's [0, 1]
    up: the inner roots of P_{n+1} are the zeros of P'_n, that is of
    S(n, u, u - 1; 0), one between each pair of roots of P_n.
    """
    _check_order(n, minimum=1)
    return list(_roots(n))


@lru_cache(maxsize=MAX_DERIV_ORDER)
def _roots(n: int) -> tuple[float, ...]:
    # callers validate n first: 3.0 and True hash like 3 and 1 and
    # would otherwise hit the cache; the tuple keeps entries immutable
    if n == 1:
        return (0.0, 1.0)
    row = eulerian_row(n)
    below = _roots(n - 1)
    inner = [
        _bisect_root(lambda u: _eulerian_sum(row, n, u, u - 1.0, 0), a, b)
        for a, b in zip(below, below[1:])
    ]
    return (0.0, *inner, 1.0)


def characteristic_level(n: int) -> float:
    """Least positive root of P_{n+1}: the fraction of the saturation
    level at which the n-th derivative of the curve first vanishes.
    0.5 exactly for n = 2, then 0.21132..., 0.09175..., 0.04131..., and
    decreasing.  Requires ``n >= 2``.  Computed once per order.
    """
    _check_order(n, minimum=2)
    return _roots(n)[1]
