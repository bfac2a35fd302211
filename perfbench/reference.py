"""Independent answers the benchmark checks the library against.

Nothing here imports ``logistic_horizon``: the characteristic fractions
come from mpmath at 50 digits, the Eulerian numbers from their explicit
alternating sum, and the characteristic index from a numpy stencil and
a plain first-local-maximum scan.  The stencils repeat the library's
floating-point operations in the same order, so on the same values the
difference series agree bit for bit and the selected index must match
exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

# Relative tolerance on characteristic fractions.  Bisection to an
# absolute width of 1e-13 gives about 2e-12 relative at n = 5.
FRACTION_RTOL = 1e-11


def _eulerian(n: int, k: int) -> int:
    return sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))


@lru_cache(maxsize=None)
def characteristic_fraction(n: int) -> float:
    """Least root in (0, 1) of sum_k A(n,k) u^k (u-1)^(n-k), at 50 digits.

    That sum is P_{n+1}(u) / u up to sign, so its least root in (0, 1)
    is the least positive root of P_{n+1}.
    """
    coeffs = [0] * (n + 1)  # ascending powers of u
    for k in range(n):
        a = _eulerian(n, k)
        m = n - k
        for j in range(m + 1):
            coeffs[k + j] += a * math.comb(m, j) * (-1) ** (m - j)
    with mpmath.workdps(50):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=200)
        inside = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-30 and 0 < mpmath.re(r) < 1]
        return float(min(inside))


def paper_fraction(n: int) -> float:
    """The fraction truncated (not rounded) to three significant digits."""
    x = characteristic_fraction(n)
    shift = 2 - math.floor(math.log10(x))
    return math.trunc(x * 10.0**shift) / 10.0**shift


def difference(values, order: int, left: bool = False) -> np.ndarray:
    """Order-k difference divided by 2, NaN where the stencil leaves the
    series.  ``left`` gives the second left difference (order 2 only)."""
    y = np.asarray(values, dtype=float)
    n = len(y)
    out = np.full(n, np.nan)
    if left:
        out[2:] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / 2.0
        return out
    if order == 2:
        out[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / 2.0
        return out
    lo, hi = order // 2, (order + 1) // 2
    acc = np.zeros(n - lo - hi)
    for j in range(order + 1):
        start = order - j
        acc = acc + float((-1) ** j * math.comb(order, j)) * y[start : start + len(acc)]
    out[lo : n - hi] = acc / 2.0
    return out


def first_local_max(diff: np.ndarray) -> int | None:
    """Earliest index strictly above both defined neighbours."""
    mid, left, right = diff[1:-1], diff[:-2], diff[2:]
    hits = np.nonzero((mid > left) & (mid > right))[0]  # NaN compares false
    return int(hits[0]) + 1 if len(hits) else None
