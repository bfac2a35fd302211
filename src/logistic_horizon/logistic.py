"""The logistic growth curve and its characteristic times.

The closed form used throughout is

    u(t) = u_max / (1 + a * exp(-c * t))

with saturation level ``u_max > 0``, shape ``a > 0`` and rate ``c > 0``.
This solves the autonomous equation u' = (c / u_max) * u * (u_max - u),
so the quadratic rate coefficient is ``c1 = c / u_max`` and the initial
value is ``u(0) = u_max / (1 + a)``.

A characteristic time of order ``n`` is the first instant at which the
n-th derivative of ``u`` vanishes; equivalently, the time at which the
curve crosses the fixed fraction of ``u_max`` given by
:func:`logistic_horizon.derivpoly.characteristic_level`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .derivpoly import RiccatiParams, characteristic_level, riccati_nth_derivative
from .errors import DomainError, require_int


@dataclass(frozen=True)
class LogisticParams:
    """Parameters of ``u(t) = u_max / (1 + a * exp(-c * t))``."""

    u_max: float
    a: float
    c: float

    def __post_init__(self):
        if not (self.u_max > 0) or not math.isfinite(self.u_max):
            raise DomainError(f"u_max must be positive and finite, got {self.u_max!r}")
        if not (self.a > 0) or not math.isfinite(self.a):
            raise DomainError(f"a must be positive and finite, got {self.a!r}")
        if not (self.c > 0) or not math.isfinite(self.c):
            raise DomainError(f"c must be positive and finite, got {self.c!r}")

    @property
    def c1(self) -> float:
        """Coefficient of the quadratic rate form, c / u_max."""
        return self.c / self.u_max


def logistic_eval(params: LogisticParams, t: float) -> float:
    """Evaluate the curve at ``t``.

    Written in the two-branch sigmoid form so neither tail can overflow:
    for large negative ``t`` the value underflows smoothly toward 0, for
    large positive ``t`` toward ``u_max``.
    """
    z = -params.c * t
    if z <= 0.0:
        return params.u_max / (1.0 + params.a * math.exp(z))
    w = math.exp(-z)
    return params.u_max * w / (w + params.a)


def logistic_nth_derivative(lp: LogisticParams, n: int, t: float) -> float:
    """n-th time derivative of the curve at ``t``.

    The curve solves u' = r (u - 0)(u - u_max) with r = -c/u_max, so for
    n >= 2 this is riccati_nth_derivative at u(t); n = 1 is the rate.
    """
    require_int(n, "derivative order", 1)
    u = logistic_eval(lp, t)
    if n == 1:
        return lp.c1 * u * (lp.u_max - u)
    return riccati_nth_derivative(RiccatiParams(-lp.c1, 0.0, lp.u_max), n, u)


def level_crossing_time(params: LogisticParams, level: float) -> float:
    """The unique ``t`` with ``u(t) == level``, for 0 < level < u_max.

    Inverting the closed form gives
    t = (1 / c) * ln(a * level / (u_max - level)).
    """
    if not (0 < level < params.u_max):
        raise DomainError(
            f"level must lie strictly between 0 and u_max={params.u_max}, got {level!r}"
        )
    return math.log(params.a * level / (params.u_max - level)) / params.c


def characteristic_time(params: LogisticParams, n: int) -> float:
    """First zero of the n-th derivative of the curve, ``n >= 2``.

    This is where the curve crosses ``characteristic_level(n) * u_max``.
    For n = 2 it is the inflection point at half saturation.
    """
    return level_crossing_time(params, characteristic_level(n) * params.u_max)
