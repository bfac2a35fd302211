"""Deterministic synthetic logistic series and the estimator benchmark.

Reproducibility contract: identical GenSpec values give bit-identical
series on every platform and run.  To keep that promise the noise path
avoids library RNGs entirely; the algorithm below is pinned and is
itself part of the interface.

Uniform stream (counter-based, no mutable state):

    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
    z ^= z >> 31
    u_i = ((z >> 11) + 0.5) * 2^-53         in the open interval (0, 1)

This is the SplitMix64 output function applied to the i-th state of
the golden-ratio Weyl sequence; the half-bit offset keeps u_i away
from both endpoints.

Normal variates are u_i pushed through a rational approximation of the
inverse normal CDF (Acklam's two-region form, peak relative error
about 1.15e-9), which is plenty below the statistical tolerances any
benchmark here could resolve.  Gaussian noise is additive on levels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import CharacteristicPointNotFound, DomainError, LogisticHorizonError, require_int
from .estimate import run_method
from .logistic import LogisticParams, logistic_eval
from .series import TimeSeries

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """The pinned 64-bit hash of stream position ``index``."""
    z = (seed + (index + 1) * _WEYL) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def uniform01(seed: int, index: int) -> float:
    """Uniform draw in (0, 1), exclusive on both sides."""
    return ((splitmix64(seed, index) >> 11) + 0.5) * 2.0**-53


# Acklam's rational approximation of the inverse normal CDF.
_ICDF_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ICDF_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ICDF_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ICDF_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_ICDF_PLOW = 0.02425


def normal_icdf(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly inside (0, 1), got {p!r}")
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    if p < _ICDF_PLOW or p > 1.0 - _ICDF_PLOW:
        q = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        return num / den if p < 0.5 else -num / den
    q = p - 0.5
    r = q * q
    num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    return num * q / den


def normal_variate(seed: int, index: int) -> float:
    return normal_icdf(uniform01(seed, index))


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic series."""

    params: LogisticParams
    n_points: int
    t_start: float = 0.0
    t_step: float = 1.0
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_int(self.n_points, "n_points", 3)
        if not (self.t_step > 0) or not math.isfinite(self.t_step):
            raise DomainError(f"t_step must be positive and finite, got {self.t_step!r}")
        if not math.isfinite(self.t_start):
            raise DomainError(f"t_start must be finite, got {self.t_start!r}")
        if self.noise_sd < 0 or not math.isfinite(self.noise_sd):
            raise DomainError(f"noise_sd must be >= 0 and finite, got {self.noise_sd!r}")
        require_int(self.seed, "seed")


def generate(spec: GenSpec) -> TimeSeries:
    """Sample the curve, optionally with seeded additive noise.

    Values are levels, so the result is a cumulative-kind series ready
    for every estimator.  Labels give the times to 15 significant digits;
    a spec whose times do not all differ there is refused.
    """
    seed = spec.seed & _MASK64
    labels = []
    values = []
    for i in range(spec.n_points):
        t = spec.t_start + i * spec.t_step
        label = f"{t:.15g}"
        # times increase and rounding is monotone, so equal labels are adjacent
        if labels and label == labels[-1]:
            raise DomainError(f"times at indices {i - 1} and {i} share the label {label!r}")
        v = logistic_eval(spec.params, t)
        if spec.noise_sd > 0:
            v += spec.noise_sd * normal_variate(seed, i)
        labels.append(label)
        values.append(v)
    return TimeSeries(labels=tuple(labels), values=tuple(values), kind="cumulative")


def benchmark_estimators(specs, truncations) -> list[dict]:
    """Relative-error table of scd, sld, polyfit and nlls on every spec prefix.

    One row per spec x truncation x method, in that nesting order.
    Estimator failures land in the row's status field ("not-found" for
    a missing characteristic point); the table itself always completes.
    Estimates at or below their prefix's maximum give one RuntimeWarning.
    """
    specs = list(specs)
    truncations = list(truncations)
    for spec in specs:
        for k in truncations:
            require_int(k, "truncation", 1)
            if k > spec.n_points:
                raise DomainError(f"truncation {k} must lie in [1, n_points={spec.n_points}]")
    rows = []
    below = 0
    with warnings.catch_warnings():
        # one warning with the count, not one per row: the table shows each u_max_hat
        warnings.filterwarnings("ignore", "estimated saturation level", RuntimeWarning)
        for spec_index, spec in enumerate(specs):
            full = generate(spec)
            labels, values = full.labels, full.values
            for k in truncations:
                prefix = TimeSeries(labels=labels[:k], values=values[:k], kind="cumulative")
                # a fixed list: order-n needs an order, and a method added to METHODS stays out
                for method in ("scd", "sld", "polyfit", "nlls"):
                    row = {
                        "spec_index": spec_index,
                        "u_max": spec.params.u_max,
                        "n_points": spec.n_points,
                        "truncation": k,
                        "method": method,
                        "u_max_hat": None,
                        "rel_error": None,
                        "status": "ok",
                    }
                    try:
                        est = run_method(method, prefix)
                    except CharacteristicPointNotFound:
                        row["status"] = "not-found"
                    except LogisticHorizonError as exc:
                        row["status"] = f"error: {exc}"
                    else:
                        row["u_max_hat"] = est.u_max_hat
                        row["rel_error"] = abs(est.u_max_hat - spec.params.u_max) / spec.params.u_max
                        below += not est.diagnostics["exceeds_max_observed"]
                    rows.append(row)
    if below:
        message = f"estimated saturation level does not exceed the largest observed value in {below} rows"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return rows
