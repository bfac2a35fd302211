"""The summary that tools/pairs.py writes, on made-up run lines.

No benchmark is run: each run is a dict shaped like the JSON line that
perfbench/run.py prints last.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

DECLARED = [
    {"name": "op_best_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "estimates_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def line(op, rate, rss):
    values = {"op_best_ms": op, "estimates_per_s": rate, "peak_rss_mb": rss}
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in DECLARED}}


def runs_of(base, head):
    """Alternating run records, base first in even pairs, from per-pair
    (op, rate, rss) triples."""
    runs = []
    for pair, (b, h) in enumerate(zip(base, head)):
        order = (("base", b), ("head", h)) if pair % 2 == 0 else (("head", h), ("base", b))
        runs += [{"pair": pair, "side": side, "seed": 1, "wall_s": 1.0, "result": line(*v)} for side, v in order]
    return runs


def test_sign_test_is_exact_and_two_sided():
    assert pairs.sign_test_p(10, 0) == pairs.sign_test_p(0, 10) == 2 / 1024
    assert pairs.sign_test_p(9, 1) == 2 * 11 / 1024
    assert pairs.sign_test_p(5, 5) == pairs.sign_test_p(0, 0) == 1.0


def test_quartiles_inclusive():
    assert pairs.quartiles([float(v) for v in range(1, 11)]) == (3.25, 5.5, 7.75)
    assert pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_summary_counts_wins_ties_and_verdicts():
    base = [(1.0 + k / 100, 100.0 + 10 * k, 40.0) for k in range(10)]
    # op: head faster in every pair, by more than the base's spread;
    # rate: head lower by more than its 25% bound in 9 of 10 pairs;
    # rss: a tie in every pair
    head = [(0.5 + k / 100, 50.0 if k else 300.0, 40.0) for k in range(10)]
    s = pairs.summarize(runs_of(base, head), DECLARED)
    assert list(s) == ["op_best_ms", "estimates_per_s", "peak_rss_mb"]
    op, rate, rss = s["op_best_ms"], s["estimates_per_s"], s["peak_rss_mb"]
    assert (op["pairs"], op["head_won"], op["base_won"], op["ties"]) == (10, 10, 0, 0)
    assert op["sign_test_p"] == 2 / 1024 and op["verdict"] == "gain"
    assert op["base"] == pytest.approx({"median": 1.045, "q1": 1.0225, "q3": 1.0675, "min": 1.0, "max": 1.09})
    assert op["median_change"] == pytest.approx(-0.5 / 1.045)
    assert (rate["head_won"], rate["base_won"], rate["verdict"]) == (1, 9, "worse")
    assert (rss["head_won"], rss["base_won"], rss["ties"], rss["sign_test_p"]) == (0, 0, 10, 1.0)
    assert rss["verdict"] == "within bound"


def test_gain_needs_nine_of_ten_and_a_gap_wider_than_the_base_spread():
    base = [(1.0, 100.0, 40.0)] * 10
    eight = [(0.5, 100.0, 40.0)] * 8 + [(1.5, 100.0, 40.0)] * 2
    assert pairs.summarize(runs_of(base, eight), DECLARED)["op_best_ms"]["verdict"] == "within bound"
    wide = [(1.0 + (k % 2), 100.0, 40.0) for k in range(10)]  # base IQR 1.0
    close = [(v[0] - 0.4, 100.0, 40.0) for v in wide]  # wins every pair, but the medians are 0.4 apart
    got = pairs.summarize(runs_of(wide, close), DECLARED)["op_best_ms"]
    assert got["head_won"] == 10 and got["verdict"] == "unresolved"


def test_every_head_run_better_is_not_unresolved():
    # the base spreads wider than the bound and than the gap between the
    # medians, so only "every head run beats every base run" settles it
    base = [(2.0, 100.0, 40.0), (20.0, 100.0, 40.0)] * 5
    head = [(1.9, 100.0, 40.0)] * 10
    got = pairs.summarize(runs_of(base, head), DECLARED)["op_best_ms"]
    assert got["head_won"] == 10 and got["verdict"] == "within bound"
    head[1] = (2.5, 100.0, 40.0)  # still wins its pair, against 20.0
    got = pairs.summarize(runs_of(base, head), DECLARED)["op_best_ms"]
    assert got["head_won"] == 10 and got["verdict"] == "unresolved"


def test_unfinished_pair_is_left_out():
    runs = runs_of([(1.0, 100.0, 40.0)] * 3, [(0.5, 120.0, 40.0)] * 3)
    runs.append({"pair": 3, "side": "head", "seed": 1, "wall_s": 1.0, "result": line(9.0, 1.0, 99.0)})
    got = pairs.summarize(runs, DECLARED)
    assert all(m["pairs"] == 3 for m in got.values())
    assert got["op_best_ms"]["head"]["max"] == 0.5
    assert pairs.summarize(runs[:1], DECLARED)["op_best_ms"] == {"pairs": 0}
