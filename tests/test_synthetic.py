"""Deterministic synthetic data and the estimator benchmark."""

import math
import re
from unittest import mock

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from logistic_horizon import (
    DomainError,
    GenSpec,
    LogisticParams,
    benchmark_estimators,
    generate,
    logistic_eval,
)
from logistic_horizon.estimate import METHODS
from logistic_horizon.synthetic import normal_icdf, normal_variate, splitmix64, uniform01


def _params():
    return LogisticParams(7.0, 17.0, 1.5)


def test_splitmix64_published_vector():
    # first output of the reference generator seeded with 0
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF


def test_splitmix64_range_and_determinism():
    seen = {splitmix64(1, i) for i in range(100)}
    assert len(seen) == 100
    assert all(0 <= v < 2**64 for v in seen)
    assert splitmix64(1, 7) == splitmix64(1, 7)


def test_uniform01_frozen_head():
    got = [uniform01(1, i) for i in range(3)]
    assert got == [0.566561575172281, 0.7457817572627012, 0.9710027535867962]
    assert all(0.0 < u < 1.0 for u in (uniform01(9, i) for i in range(1000)))


def test_normal_icdf_against_scipy():
    ps = [1e-9, 1e-6, 0.001, 0.02, 0.1, 0.25, 0.5, 0.6, 0.9, 0.975, 0.999, 1 - 1e-7]
    for p in ps:
        want = float(scipy.special.ndtri(p))
        got = normal_icdf(p)
        assert abs(got - want) <= 1.2e-9 * (1.0 + abs(want))
    assert normal_icdf(0.5) == 0.0
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            normal_icdf(bad)


def test_normal_variate_moments():
    draws = [normal_variate(123, i) for i in range(10_000)]
    mean = sum(draws) / len(draws)
    sd = math.sqrt(sum((d - mean) ** 2 for d in draws) / (len(draws) - 1))
    assert abs(mean) < 0.03
    assert abs(sd - 1.0) < 0.03


def test_generate_noiseless_equals_curve():
    spec = GenSpec(params=_params(), n_points=21, t_step=0.5)
    ts = generate(spec)
    assert ts.kind == "cumulative"
    assert len(ts) == 21
    assert ts.values[0] == 7.0 / 18.0
    for i, v in enumerate(ts.values):
        assert v == logistic_eval(_params(), 0.5 * i)
    assert ts.labels[:3] == ("0", "0.5", "1")


@pytest.mark.parametrize("t_start, t_step, n_points", [(1995.0, 1 / 365, 8), (1e6, 1.0, 4)])
def test_generate_labels_are_distinct_and_read_back_as_their_times(t_start, t_step, n_points):
    ts = generate(GenSpec(params=_params(), n_points=n_points, t_start=t_start, t_step=t_step))
    assert len(set(ts.labels)) == n_points
    for i, label in enumerate(ts.labels):
        assert abs(float(label) - (t_start + i * t_step)) <= 5e-12


@pytest.mark.parametrize(
    "t_start, t_step, label", [(1e15, 1.0, "1e+15"), (0.1, 1e-16, "0.1"), (1e16, 1.0, "1e+16")]
)
def test_generate_refuses_times_that_share_a_label(t_start, t_step, label):
    # distinct floats (equal ones at 1e16) that 15 significant digits print alike
    spec = GenSpec(params=_params(), n_points=4, t_start=t_start, t_step=t_step)
    message = f"^times at indices 0 and 1 share the label '{re.escape(label)}'$"
    with pytest.raises(DomainError, match=message):
        generate(spec)


# 150 examples, or more under the active profile (see conftest.py)
@settings(deadline=None, database=None, max_examples=max(150, settings.default.max_examples))
@given(st.integers(-999_999, 999_999), st.integers(0, 300))
def test_labels_keep_every_time_that_six_digits_render_exactly(digits, scale):
    # a normal float with at most 6 significant digits below 1e6 in magnitude:
    # 15 digits print it as 6 did, so short labels are unchanged
    t = digits / 10**scale
    assert float(f"{t:g}") == t
    assert f"{t:.15g}" == f"{t:g}"
    spec = GenSpec(params=_params(), n_points=3, t_start=t, t_step=1.0)
    assert generate(spec).labels[0] == f"{t:g}"


def test_generate_is_deterministic():
    spec = GenSpec(params=_params(), n_points=15, noise_sd=0.05, seed=7)
    assert generate(spec).values == generate(spec).values
    other = GenSpec(params=_params(), n_points=15, noise_sd=0.05, seed=8)
    assert generate(other).values != generate(spec).values


def test_generate_noise_offsets_curve():
    clean = generate(GenSpec(params=_params(), n_points=10))
    noisy = generate(GenSpec(params=_params(), n_points=10, noise_sd=0.05, seed=42))
    diffs = [n - c for n, c in zip(noisy.values, clean.values)]
    assert any(d != 0.0 for d in diffs)
    assert all(abs(d) < 0.05 * 6 for d in diffs)


def test_gen_spec_validation():
    with pytest.raises(DomainError):
        GenSpec(params=_params(), n_points=0)
    with pytest.raises(DomainError):
        GenSpec(params=_params(), n_points=10, t_step=0.0)
    with pytest.raises(DomainError):
        GenSpec(params=_params(), n_points=10, noise_sd=-1.0)
    with pytest.raises(DomainError):
        GenSpec(params=_params(), n_points=10, seed=1.5)
    with pytest.raises(DomainError, match="t_start must be finite"):
        GenSpec(params=_params(), n_points=10, t_start=math.inf)


def _bench_specs():
    return [GenSpec(params=LogisticParams(1000.0, 200.0, 0.4), n_points=41)]


def test_benchmark_shapes_and_statuses():
    rows = benchmark_estimators(_bench_specs(), [9, 13])
    methods = {"scd", "sld", "polyfit", "nlls"}
    assert len(rows) == 2 * len(methods)
    assert {r["method"] for r in rows} == methods
    by_key = {(r["truncation"], r["method"]): r for r in rows}
    assert by_key[(9, "scd")]["status"] == "not-found"
    assert by_key[(9, "scd")]["u_max_hat"] is None
    ok = by_key[(13, "scd")]
    assert ok["status"] == "ok"
    assert ok["rel_error"] == pytest.approx(abs(ok["u_max_hat"] - 1000.0) / 1000.0)
    assert ok["rel_error"] < 0.05
    assert by_key[(13, "nlls")]["rel_error"] < 1e-9
    for row in rows:
        assert set(row) == {
            "spec_index",
            "u_max",
            "n_points",
            "truncation",
            "method",
            "u_max_hat",
            "rel_error",
            "status",
        }


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")  # polyfit rows below max
def test_benchmark_deterministic():
    a = benchmark_estimators(_bench_specs(), [9, 13, 20])
    b = benchmark_estimators(_bench_specs(), [9, 13, 20])
    assert a == b


def test_benchmark_rows_do_not_follow_a_new_method():
    rows = benchmark_estimators(_bench_specs(), [9, 13])
    grown = (*METHODS, "new-method")
    with (
        mock.patch("logistic_horizon.estimate.METHODS", grown),
        mock.patch("logistic_horizon.synthetic.METHODS", grown, create=True),
    ):
        assert benchmark_estimators(_bench_specs(), [9, 13]) == rows


def test_benchmark_input_checks():
    assert benchmark_estimators([], [5]) == []
    with pytest.raises(DomainError):
        benchmark_estimators(_bench_specs(), [0])
    with pytest.raises(DomainError):
        benchmark_estimators(_bench_specs(), [42])


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")  # polyfit rows below max
def test_benchmark_errors_shrink_with_more_data():
    rows = benchmark_estimators(_bench_specs(), [13, 20, 30, 41])
    for method in ("scd", "nlls"):
        errs = [r["rel_error"] for r in rows if r["method"] == method and r["status"] == "ok"]
        assert len(errs) == 4
        for earlier, later in zip(errs, errs[1:]):
            assert later <= earlier + 1e-9
