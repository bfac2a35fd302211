"""Estimate the saturation level of a logistic trend from early data.

The package turns a combinatorial fact into an estimator: every higher
derivative of a logistic curve vanishes for the first time when the
curve reaches a fixed, parameter-free fraction of its saturation level,
and those fractions are roots of polynomials built from Eulerian
numbers.  Spot the vanishing point in observed data (as a peak of a
discrete second difference) and one division yields the saturation
level.  Whether that beats whole-curve fitting on early windows waits
on the accuracy record (``ACCURACY.json``, ROADMAP item 1).

Layers: ``eulerian`` (exact combinatorics), ``derivpoly`` (derivative
polynomials and their roots), ``logistic`` (the curve itself),
``series`` (differences and characteristic-point detection),
``estimate`` (the estimators), ``synthetic`` (seeded generators and a
benchmark), ``fixtures`` (embedded reference datasets), ``cli``.
"""

from .errors import (
    CharacteristicPointNotFound,
    DomainError,
    EstimationError,
    LogisticHorizonError,
    NumericalError,
    ParseError,
)
from .eulerian import (
    count_ascents,
    eulerian_explicit,
    eulerian_row,
)
from .derivpoly import (
    MAX_DERIV_ORDER,
    DerivativePolynomial,
    RiccatiParams,
    build_poly,
    characteristic_level,
    eval_poly,
    poly_roots,
    riccati_nth_derivative,
)
from .logistic import (
    LogisticParams,
    characteristic_time,
    level_crossing_time,
    logistic_eval,
    logistic_nth_derivative,
)
from .series import (
    FIRST_LOCAL_MAX,
    GLOBAL_MAX,
    LAST_LOCAL_MAX_BEFORE_DECLINE,
    POLICIES,
    CharacteristicPoint,
    DiffSeries,
    TimeSeries,
    cumulate,
    find_characteristic_point,
    nth_central_diff,
    second_central_diff,
    second_left_diff,
)
from .estimate import (
    CONSTANT_MODES,
    PolyFit,
    SaturationEstimate,
    estimate_nlls,
    estimate_scd,
    estimate_sld,
    fit_logistic_nlls,
    fit_polynomial_lsm,
    higher_order_estimate,
    polyfit_estimate,
    resolve_constant,
)
from .synthetic import (
    GenSpec,
    benchmark_estimators,
    generate,
    normal_icdf,
    normal_variate,
    splitmix64,
    uniform01,
)
from .fixtures import FIXTURE_NAMES, Fixture, get_fixture

__version__ = "0.1.0"

__all__ = [
    "CharacteristicPointNotFound",
    "DomainError",
    "EstimationError",
    "LogisticHorizonError",
    "NumericalError",
    "ParseError",
    "count_ascents",
    "eulerian_explicit",
    "eulerian_row",
    "MAX_DERIV_ORDER",
    "DerivativePolynomial",
    "RiccatiParams",
    "build_poly",
    "characteristic_level",
    "eval_poly",
    "poly_roots",
    "riccati_nth_derivative",
    "LogisticParams",
    "characteristic_time",
    "level_crossing_time",
    "logistic_eval",
    "logistic_nth_derivative",
    "FIRST_LOCAL_MAX",
    "GLOBAL_MAX",
    "LAST_LOCAL_MAX_BEFORE_DECLINE",
    "POLICIES",
    "CharacteristicPoint",
    "DiffSeries",
    "TimeSeries",
    "cumulate",
    "find_characteristic_point",
    "nth_central_diff",
    "second_central_diff",
    "second_left_diff",
    "CONSTANT_MODES",
    "PolyFit",
    "SaturationEstimate",
    "estimate_nlls",
    "estimate_scd",
    "estimate_sld",
    "fit_logistic_nlls",
    "fit_polynomial_lsm",
    "higher_order_estimate",
    "polyfit_estimate",
    "resolve_constant",
    "GenSpec",
    "benchmark_estimators",
    "generate",
    "normal_icdf",
    "normal_variate",
    "splitmix64",
    "uniform01",
    "FIXTURE_NAMES",
    "Fixture",
    "get_fixture",
    "__version__",
]
