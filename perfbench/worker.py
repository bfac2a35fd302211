"""One benchmark process: set up a workload, run it, check every output.

Started by ``run.py`` in a fresh interpreter whose environment comes
from ``workloads.child_env``.  Prints ``READY`` when set-up is done
(import, input generation, one untimed call per method), then, unless
``--setup-only``, one ``RESULT <json>`` line.

The loop is closed with one caller: each operation starts when the
previous one has returned.  Each output is checked right after its
operation, outside the timed region, and only a small record is kept,
so memory does not grow with the run.  Only whole passes run, so every
run measures the same mix of operations.  With ``--trace 1`` the first half of the time is
traced and the second half is not, which gives the tracing overhead.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter, namedtuple  # noqa: E402

from spans import END, NAME, OP, PARENT, START, Tracer, layer_totals, per_layer  # noqa: E402
from workloads import HERE, WORKLOADS  # noqa: E402

Record = namedtuple(
    "Record", "index key method pass_index status seconds estimates failure changed facts errors child"
)


def measure(workload, seconds: float, tracer=None) -> tuple:
    """Run whole passes for about ``seconds``; returns (records, seconds
    spent inside operations).  The number of passes follows from the
    workload's nominal pass time, not from a clock, so every run on
    every machine takes the fastest repeat of an operation over the
    same number of repeats."""
    records = []
    clock = time.perf_counter
    busy = 0.0
    target = max(1, round(seconds / workload.pass_seconds))
    for passes in range(target):
        for index, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = len(records)
            t0 = clock()
            outcome = workload.run(op)
            elapsed = clock() - t0
            busy += elapsed
            if tracer is not None:
                tracer.paused = True
            failure, changed = workload.check(op, outcome)
            first = passes == 0
            records.append(Record(
                index, op.key, op.method, passes, outcome.status, elapsed,
                workload.estimates(op, outcome), failure, changed,
                workload.call_facts(op, outcome) if first else (),
                workload.rel_errors(op, outcome) if first else (),
                outcome.detail if outcome.status == "ok" else None,
            ))
            if tracer is not None:
                tracer.paused = False
    if tracer is not None:
        tracer.op = None
    return records, busy


def summarize(records, busy, key_op) -> dict:
    """Latencies by method; the fastest repeat of each operation, taken
    over every call with the same key (same inputs, same call) in the
    run, summed over one pass and listed for the key operation; and the
    first-pass facts and errors.  A slow spell of the host then costs an
    operation only the repeats that fall inside it."""
    latency: dict = {}
    fastest: dict = {}
    key_ops = set()
    passes = set()
    errors: dict = {}
    facts = Counter()
    for r in records:
        passes.add(r.pass_index)
        if r.status != "failed":
            latency.setdefault(r.method, []).append(1000.0 * r.seconds)
            fastest[r.key] = min(fastest.get(r.key, math.inf), r.seconds)
            if key_op in (r.method, "cli"):
                key_ops.add(r.key)
        for kind, below in r.facts:
            facts["calls"] += 1
            facts[kind] += 1
            facts["below_max"] += below
        for method, error in r.errors:
            errors.setdefault(method, []).append(error)
    return {
        "elapsed": busy,
        "ops": len(records),
        "passes": len(passes),
        "estimates": sum(r.estimates for r in records),
        "best_pass_s": sum(fastest[r.key] for r in records if r.pass_index == 0 and r.key in fastest),
        "repeats": max(Counter(r.key for r in records).values()),
        "latency": latency,
        "best_ms": [1000.0 * fastest[k] for k in sorted(key_ops)],
        "first_pass": dict(facts),
        "accuracy": {m: statistics.median(v) for m, v in errors.items()},
    }


def traced_layers(workload, tracer, records, import_ms) -> dict:
    """Per-layer metrics of the traced phase.  A traced CLI process sends
    its spans back; they join the in-memory list under the op's id."""
    children = []
    for i, r in enumerate(records):
        if r.child is not None:
            base = len(tracer.spans)
            for span in r.child["spans"]:
                span[OP] = i
                if span[PARENT] >= 0:
                    span[PARENT] += base
            tracer.spans.extend(r.child["spans"])
            children.append((r.child, r.seconds))
    op_pass = {i: r.pass_index for i, r in enumerate(records)}
    layers = per_layer(layer_totals(tracer.spans, op_pass), len(records))
    if not children:
        layers.update({"cli.import_ms": import_ms, "cli.run_ms": 0.0})
        return layers
    done = len(children)
    layers.update({
        "cli.import_ms": sum(c["import_ms"] for c, _ in children) / done,
        "cli.run_ms": sum(c["run_ms"] for c, _ in children) / done,
        "cli.interpreter_ms": sum(1000.0 * (wall - c["busy_s"]) for c, wall in children) / done,
    })
    return layers


def by_method(spans, records) -> dict:
    """Busy ms per op of each method in the layers that division
    estimators spend their time in (printed, not a metric)."""
    layers = ("derivpoly.characteristic_level", "series.TimeSeries", "series.find_characteristic_point")
    ops_of = Counter(r.method for r in records)
    busy: dict = {}
    for span in spans:
        if span[NAME] in layers and span[OP] is not None:
            method = records[span[OP]].method
            table = busy.setdefault(method, {})
            table[span[NAME]] = table.get(span[NAME], 0.0) + 1000.0 * (span[END] - span[START])
    return {m: {name: ms / ops_of[m] for name, ms in table.items()} for m, table in busy.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import logistic_horizon.cli  # noqa: F401  the whole package, as the CLI loads it
    import logistic_horizon as lh

    import_ms = 1000.0 * (time.perf_counter() - t0)
    workload = WORKLOADS[args.workload](lh, args.seed, args.tiny)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up is traced too, so input generation shows
    workload.generate()
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    phases = {}
    records = []
    if tracer is not None:
        workload.traced = True
        traced, traced_busy = measure(workload, args.seconds / 2, tracer)
        tracer.uninstall()
        workload.traced = False
        phases["traced"] = summarize(traced, traced_busy, workload.key_op)
        records += traced
        untraced, busy = measure(workload, args.seconds / 2)
    else:
        untraced, busy = measure(workload, args.seconds)
    phases["untraced"] = summarize(untraced, busy, workload.key_op)
    records += untraced

    failures = [r.failure for r in records if r.failure]
    result = {
        "sizes": workload.sizes,
        "key_op": workload.key_op,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:10],
        "refusals_now_results": sorted({r.key for r in records if r.changed}),
        "phases": phases,
    }
    if tracer is not None:
        layers = traced_layers(workload, tracer, traced, import_ms)
        eps = [p["estimates"] / p["elapsed"] for p in (phases["untraced"], phases["traced"])]
        layers["trace.overhead_ratio"] = eps[0] / eps[1]
        result["per_layer"] = layers
        result["by_method"] = by_method(tracer.spans, traced)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["busy_s"] = time.perf_counter() - _START
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
