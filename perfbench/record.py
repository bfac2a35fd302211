"""Record the outputs the benchmark checks against.

    python3 perfbench/record.py

Writes ``golden/<workload>.json`` from the library in ``src/``: for
every operation any seed can produce, the status ("ok" or the refusal
kind) and ``u_max_hat``.  Run it only when a change is meant to alter
results, and say so where the change is described.
"""

import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import logistic_horizon as lh  # noqa: E402

import workloads as W  # noqa: E402
from spans import refusal_kind  # noqa: E402


def outcome(call, labels, values):
    try:
        return ["ok", call(lh.TimeSeries(labels, values, kind="cumulative")).u_max_hat]
    except lh.LogisticHorizonError as exc:
        return ["refused", refusal_kind(type(exc).__name__, str(exc))]


def fixture_windows() -> dict:
    calls = W.estimator_calls(lh)
    out = {}
    for fixture, labels, values in W.fixture_series(lh, lh.FIXTURE_NAMES):
        for length in range(W.FixtureWindows.MIN_WINDOW, len(values) + 1):
            for method in W.FixtureWindows.methods:
                out[f"{fixture}:{length}:{method}"] = outcome(calls[method], labels[:length], values[:length])
    return out


def long_series() -> dict:
    calls = W.estimator_calls(lh)
    out = {}
    for stratum in range(len(W.LONG_STRATA)):
        for variant in range(len(W.LONG_VARIANTS)):
            a, c = W.long_shape(stratum, variant)
            spec = lh.GenSpec(params=lh.LogisticParams(W.LONG_U_MAX, a, c), n_points=W.LONG_POINTS)
            ts = lh.generate(spec)
            for method in W.LongSeries.methods:
                out[f"{stratum}.{variant}:{method}"] = outcome(calls[method], ts.labels, ts.values)
    return out


def noisy_sweep() -> dict:
    u_max, a, c = W.SWEEP_PARAMS
    out = {}
    for noise, draws in W.SWEEP_DRAWS.items():
        for pool, _ in draws:
            for seed in pool:
                spec = lh.GenSpec(lh.LogisticParams(u_max, a, c), W.SWEEP_POINTS, noise_sd=noise, seed=seed)
                rows = lh.benchmark_estimators([spec], W.SWEEP_TRUNCATIONS)
                out[W.sweep_key(noise, seed)] = [
                    ["ok", r["u_max_hat"]] if r["status"] == "ok" else ["refused", refusal_kind("", r["status"])]
                    for r in rows
                ]
    return out


def main() -> None:
    warnings.simplefilter("ignore", RuntimeWarning)
    os.makedirs(W.GOLDEN_DIR, exist_ok=True)
    for name, build in (("fixture-windows", fixture_windows), ("long-series", long_series), ("noisy-sweep", noisy_sweep)):
        table = build()
        with open(os.path.join(W.GOLDEN_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            entries = (f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table))
            fh.write("{\n" + ",\n".join(entries) + "\n}\n")
        print(f"wrote golden/{name}.json")


if __name__ == "__main__":
    main()
