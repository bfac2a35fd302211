"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/selftest.py

A tiny run of each workload, traced and untraced, must finish, pass
its checks and print every declared metric; a corrupted estimate must
be counted as a failure; and without package sources the benchmark must
refuse to run.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import logistic_horizon as lh  # noqa: E402

import worker  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# metrics the report names for each workload, besides the declared ones
REPORTED = {
    "fixture-windows": ("scd_p50_ms", "scd_p90_ms", "order5_p50_ms", "polyfit_p50_ms", "nlls_p50_ms", "nlls_p90_ms"),
    "long-series": ("scd_p50_ms", "order5_p50_ms", "polyfit_p50_ms", "nlls_p50_ms",
                    "scd_median_rel_error", "polyfit_median_rel_error", "nlls_median_rel_error"),
    "noisy-sweep": ("scd_median_rel_error", "polyfit_median_rel_error", "nlls_median_rel_error"),
    "cli-oneshot": ("cli_p50_ms",),
}


def run_benchmark(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd + ["--tiny"], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    if not trace:
        named = {line.split()[1] for line in lines if line.startswith("metric ")}
        expected = {"failed_ratio", "estimator_error_ratio", *REPORTED[workload]}
        assert expected <= named
        assert "seed 7" in lines[0]


def corrupt(value):
    return value * (1 + 1e-6)


class Corrupting:
    """Wraps a workload so that every result it returns is off by one
    part in a million."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run(self, op):
        outcome = self.inner.run(op)
        if outcome.status == "ok":
            value = outcome.value
            if isinstance(value, list):  # a bench table
                value = [dict(row, u_max_hat=corrupt(row["u_max_hat"])) if row["status"] == "ok" else row
                         for row in value]
                for row in value:
                    if row["status"] == "ok":
                        row["rel_error"] = abs(row["u_max_hat"] - row["u_max"]) / row["u_max"]
            elif isinstance(value, dict):  # a CLI payload
                value = dict(value, u_max_hat_exact=corrupt(value["u_max_hat_exact"]))
            else:
                value = dataclasses.replace(value, u_max_hat=corrupt(value.u_max_hat))
            outcome = W.Outcome("ok", value, outcome.detail)
        return outcome


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_corrupted_estimate_is_counted_as_failed(name):
    warnings.simplefilter("ignore", RuntimeWarning)
    workload = W.WORKLOADS[name](lh, 7, True)
    workload.generate()
    clean, _ = worker.measure(workload, 0.0)
    assert not [r.failure for r in clean if r.failure]
    records, _ = worker.measure(Corrupting(workload), 0.0)
    ok = [r for r in records if r.status == "ok"]
    assert ok and all(r.failure for r in ok)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(tmp_path, "fixture-windows", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_fractions_match_known_values():
    import reference

    assert reference.characteristic_fraction(3) == pytest.approx(0.5 - 3**0.5 / 6, rel=1e-15)
    assert reference.paper_fraction(3) == 0.211
    assert reference.paper_fraction(4) == 0.0917
    assert reference.paper_fraction(5) == 0.0413
