"""Benchmark of logistic-horizon: four workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload fixture-windows --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads: fixture-windows, long-series,
noisy-sweep, cli-oneshot (see ``workloads.py`` and ``records.json``).

Each run starts fresh interpreters that import the package from
``src/`` with one BLAS thread.  Set-up is measured in ``SETUP_RUNS``
separate processes, from interpreter start through import, input
generation and one untimed call per method, and reported as the
median.  Then one process runs the workload in a closed loop with one
caller for about ``--seconds`` and checks every output.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a
traced run.  The lines before it give every metric by name, including
the per-method latencies, accuracy and refusal counts that apply to
this workload only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, child_env  # noqa: E402

SETUP_RUNS = 5
DEADLINE_S = 170.0

# latency metrics printed per workload: name -> op method
METHOD_LATENCY = {
    "fixture-windows": {"scd": "scd", "order5": "order5", "polyfit": "polyfit4", "nlls": "nlls"},
    "long-series": {"scd": "scd", "order5": "order5", "polyfit": "polyfit4", "nlls": "nlls"},
}
WITH_P90 = ("scd", "nlls")
ACCURACY = {
    "long-series": {"scd": "scd", "polyfit": "polyfit4", "nlls": "nlls"},
    "noisy-sweep": {"scd": "scd", "polyfit": "polyfit", "nlls": "nlls"},
}


def spawn(args, setup_only: bool, deadline: float):
    """Run one worker; returns (seconds to READY, RESULT dict or None,
    wall seconds)."""
    cmd = [
        sys.executable, "-s", os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise RuntimeError(f"worker did not finish set-up: {ready!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker still running after {DEADLINE_S:g} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if not setup_only and result is None:
        raise RuntimeError("worker printed no result")
    return ready_s, result, wall


def percentile(sorted_ms, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = math.ceil(q * len(sorted_ms))
    return sorted_ms[rank - 1], len(sorted_ms) - rank


def latency_lines(prefix, samples):
    """p50 always; p90 only when at least 10 samples lie beyond it."""
    ms = sorted(samples)
    lines = [(f"{prefix}_p50_ms", statistics.median(ms), "ms", f"median of {len(ms)} samples")]
    value, beyond = percentile(ms, 0.9)
    if beyond >= 10:
        lines.append((f"{prefix}_p90_ms", value, "ms", f"{len(ms)} samples, {beyond} beyond"))
    else:
        lines.append((f"{prefix}_p90_ms", None, "ms", f"not reported: {len(ms)} samples, {beyond} beyond p90"))
    return lines


def report_lines(workload, result, setup):
    """Every end-to-end metric that applies to this workload, by name."""
    u = result["phases"]["untraced"]
    first = u["first_pass"]
    lat = u["latency"]
    key_op = result["key_op"]
    key_ms = [ms for v in lat.values() for ms in v] if key_op == "cli" else lat[key_op]
    lines = [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "peak resident set of the measured process"),
        ("estimates_per_s", u["estimates"] / u["passes"] / u["best_pass_s"], "1/s",
         f"one pass with each operation at its fastest of up to {u['repeats']} repeats in {u['passes']} passes; "
         f"{u['estimates'] / u['elapsed']:.6g} over all {u['elapsed']:.2f} s inside operations"),
        ("op_best_ms", statistics.median(u["best_ms"]), "ms",
         f"median over the {len(u['best_ms'])} distinct {key_op!r} operations of each one's fastest repeat in the run"),
    ]
    for prefix, method in METHOD_LATENCY.get(workload, {}).items():
        p50, p90 = latency_lines(prefix, lat.get(method, []))
        lines.append(p50)
        if prefix in WITH_P90:
            lines.append(p90)
    if workload == "cli-oneshot":
        lines.append(latency_lines("cli", key_ms)[0])
    lines.append(("failed_ratio", result["failed"] / result["attempted"], "ratio", f"{result['failed']} of {result['attempted']} operations"))
    refused = first.get("calls", 0) - first.get("ok", 0) - first.get("failed", 0)
    lines.append(("estimator_error_ratio", refused / first["calls"], "ratio", f"{refused} of {first['calls']} calls in the first pass"))
    ok = first.get("ok", 0)
    lines.append(("estimate.below_max_ratio", first.get("below_max", 0) / ok if ok else 0.0, "ratio",
                  f"results of the first pass not above the largest observed value, of {ok}"))
    for prefix, method in ACCURACY.get(workload, {}).items():
        value = u["accuracy"].get(method)
        note = "median over results of the first pass" if value is not None else "not reported: no results"
        lines.append((f"{prefix}_median_rel_error", value, "ratio", note))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few inputs and one set-up run (self-test)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "logistic_horizon", "__init__.py")):
        print(f"error: no package sources at {os.path.join(ROOT, 'src', 'logistic_horizon')}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setup = [spawn(args, True, deadline)[0] for _ in range(1 if args.tiny else SETUP_RUNS - 1)]
        ready_s, result, wall = spawn(args, False, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(ready_s)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("loop: closed, 1 caller, 1 thread; inputs " + json.dumps(result["sizes"]))
    for phase, p in result["phases"].items():
        print(f"{phase}: {p['ops']} operations in {p['passes']} passes, {p['elapsed']:.2f} s inside operations")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for key in result["refusals_now_results"]:
        print(f"recorded refusal now returns a result: {key}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        values = dict(result["per_layer"])
        values.setdefault("cli.interpreter_ms", 1000.0 * (wall - result["busy_s"]))
        for method, table in sorted(result["by_method"].items()):
            cells = ", ".join(f"{name} {ms:.4f} ms" for name, ms in sorted(table.items()))
            print(f"per {method} op: {cells}")
        declared = spec["per_layer"]
    else:
        lines = report_lines(args.workload, result, setup)
        for name, value, unit, note in lines:
            shown = "-" if value is None else f"{value:.6g}"
            print(f"metric {name:26s} {shown:>12s} {unit:5s} ({note})")
        values = {name: value for name, value, _, _ in lines}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if args.trace:
        for name, m in metrics.items():
            print(f"metric {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
