"""Spans around the calls into each layer, and the per-layer metrics.

The wrappers are installed only for a traced run.  ``install`` replaces
each target in every ``logistic_horizon`` module that binds it, so a
call reaches the wrapper whether it goes through ``estimate``, ``cli``,
``synthetic`` or the package namespace.  Spans live in one list in
memory; ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# module -> public names whose calls get a span
TARGETS = {
    "eulerian": ("eulerian_row",),
    "derivpoly": ("poly_roots", "characteristic_level"),
    "logistic": ("logistic_eval",),
    "series": (
        "TimeSeries",
        "second_central_diff",
        "second_left_diff",
        "nth_central_diff",
        "find_characteristic_point",
    ),
    "estimate": (
        "resolve_constant",
        "estimate_scd",
        "estimate_sld",
        "higher_order_estimate",
        "fit_polynomial_lsm",
        "polyfit_estimate",
        "estimate_nlls",
    ),
    "synthetic": ("generate", "normal_variate", "benchmark_estimators"),
}

ESTIMATORS = frozenset(
    f"estimate.{name}"
    for name in ("estimate_scd", "estimate_sld", "higher_order_estimate", "polyfit_estimate", "estimate_nlls")
)
DIFFS = ("series.second_central_diff", "series.second_left_diff", "series.nth_central_diff")
REFUSAL_KINDS = ("not_found", "not_concave", "nonpositive", "other")

# span fields
NAME, START, END, PARENT, OP, NOTE = range(6)


def refusal_kind(exc_type: str, message: str) -> str:
    """Map a documented refusal onto the four counted kinds."""
    if exc_type == "CharacteristicPointNotFound" or message == "not-found":
        return "not_found"
    if "not concave" in message:
        return "not_concave"
    if "strictly positive" in message:
        return "nonpositive"
    return "other"


class Tracer:
    """Records [name, start, end, parent, op, note] for each wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.paused = False  # True while the benchmark checks outputs
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        estimator = name in ESTIMATORS
        base_error = sys.modules["logistic_horizon.errors"].LogisticHorizonError

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except base_error as exc:
                span[NOTE] = ("refused", refusal_kind(type(exc).__name__, str(exc)))
                raise
            except Exception:
                span[NOTE] = ("failed", None)
                raise
            else:
                if estimator:
                    diag = result.diagnostics
                    exceeds, converged = diag.get("exceeds_max_observed"), diag.get("converged")
                    span[NOTE] = ("ok", bool(exceeds), converged is None or bool(converged))
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "logistic_horizon"]
        for modname, names in TARGETS.items():
            origin = sys.modules[f"logistic_horizon.{modname}"]
            for name in names:
                original = getattr(origin, name)
                wrapper = self.wrap(f"{modname}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans, op_pass) -> dict:
    """Busy and self seconds and call counts per span name, plus the
    estimator outcomes of the ops of the first pass.

    Busy time counts only the outermost span of a name, so recursion is
    not counted twice; self time is a span minus its direct children.
    ``op_pass`` maps an op id to its pass.
    """
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    outcomes = Counter()
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] += 1
        own[name] += duration - child_time[i]
        parent = span[PARENT]
        outermost = True
        outer_estimator = name in ESTIMATORS
        while parent >= 0:
            pname = spans[parent][NAME]
            if pname == name:
                outermost = False
            if pname in ESTIMATORS:
                outer_estimator = False
            parent = spans[parent][PARENT]
        if outermost:
            busy[name] += duration
        counted = op_pass.get(span[OP]) == 0
        if outer_estimator and counted and span[NOTE] is not None:
            note = span[NOTE]
            outcomes["calls"] += 1
            if note[0] == "ok":
                outcomes["ok"] += 1
                outcomes["below_max"] += not note[1]
                if name == "estimate.estimate_nlls":
                    outcomes["nlls_ok"] += 1
                    outcomes["nlls_converged"] += bool(note[2])
            elif note[0] == "refused":
                outcomes[f"refused.{note[1]}"] += 1
    return {"busy": dict(busy), "self": dict(own), "calls": dict(calls), "outcomes": dict(outcomes)}


def per_layer(totals: dict, n_ops: int) -> dict:
    """The per-layer metrics, per operation of the traced phase."""
    busy, own, calls, outcomes = (totals[k] for k in ("busy", "self", "calls", "outcomes"))

    def ms(table, name):
        return 1000.0 * table.get(name, 0.0) / n_ops

    def per_op(name):
        return calls.get(name, 0) / n_ops

    def share(num, den):
        return outcomes.get(num, 0) / outcomes[den] if outcomes.get(den) else 0.0

    refused = sum(outcomes.get(f"refused.{kind}", 0) for kind in REFUSAL_KINDS)
    return {
        "derivpoly.characteristic_level.calls_per_op": per_op("derivpoly.characteristic_level"),
        "derivpoly.characteristic_level.busy_ms": ms(busy, "derivpoly.characteristic_level"),
        "derivpoly.poly_roots.busy_ms": ms(busy, "derivpoly.poly_roots"),
        "eulerian.eulerian_row.calls_per_op": per_op("eulerian.eulerian_row"),
        "estimate.resolve_constant.busy_ms": ms(busy, "estimate.resolve_constant"),
        "series.TimeSeries.busy_ms": ms(busy, "series.TimeSeries"),
        "series.diff.busy_ms": sum(ms(busy, name) for name in DIFFS),
        "series.find_characteristic_point.busy_ms": ms(busy, "series.find_characteristic_point"),
        "estimate.estimate_scd.self_ms": ms(own, "estimate.estimate_scd"),
        "estimate.estimate_sld.self_ms": ms(own, "estimate.estimate_sld"),
        "estimate.higher_order_estimate.self_ms": ms(own, "estimate.higher_order_estimate"),
        "estimate.fit_polynomial_lsm.busy_ms": ms(busy, "estimate.fit_polynomial_lsm"),
        "estimate.polyfit_estimate.self_ms": ms(own, "estimate.polyfit_estimate"),
        "estimate.estimate_nlls.busy_ms": ms(busy, "estimate.estimate_nlls"),
        "estimate.nlls.converged_ratio": share("nlls_converged", "nlls_ok"),
        **{f"estimate.refusals.{kind}": outcomes.get(f"refused.{kind}", 0) for kind in REFUSAL_KINDS},
        "estimate.below_max_ratio": share("below_max", "ok"),
        "estimator_error_ratio": refused / outcomes["calls"] if outcomes.get("calls") else 0.0,
        "synthetic.generate.busy_ms": ms(busy, "synthetic.generate"),
        "synthetic.normal_variate.calls_per_op": per_op("synthetic.normal_variate"),
        "logistic.logistic_eval.calls_per_op": per_op("logistic.logistic_eval"),
        "synthetic.benchmark_estimators.self_ms": ms(own, "synthetic.benchmark_estimators"),
    }
