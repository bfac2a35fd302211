"""nlls's start ladder, and the rule that ends it after two starts.

``estimate_nlls`` refines a start from each cap 1.05, 1.5, 3 and 10 x
max(y) in turn, and stops after the first two starts that run when both
converged and their u_max, a and c each agree within 1e-9 relative.
The pick among the starts that ran is the lowest RMSE, ties to the
lower u_max.  The reference ladder here refines every cap's start.
``estimate._starts`` is the one place a start is built: its starts are
checked bit for bit against the pure-Python ``_ladder_starts``, and
``tools/ladder_check.py``, which takes its starts from it, runs on the
fixture windows.
"""

import importlib.util
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from logistic_horizon import GenSpec, LogisticHorizonError, LogisticParams, TimeSeries, estimate_nlls, generate
from logistic_horizon import estimate
from logistic_horizon.estimate import _lm_refine
from test_kernels import _bits, _fixture_windows, _ladder_starts

LADDER_CHECK = Path(__file__).resolve().parent.parent / "tools" / "ladder_check.py"


def _grid_values(c, k, noise, seed):
    """41 points of the accuracy grid's spec: u_max 1000, rate c, the
    inflection at t = 13 + k/8, additive noise of the given sd and seed."""
    a = math.exp(c * (13 + k / 8))
    spec = GenSpec(LogisticParams(1000.0, a, c), n_points=41, noise_sd=noise, seed=seed)
    return generate(spec).values


def _series(values):
    return TimeSeries([str(i) for i in range(len(values))], values, kind="cumulative")


def _best(fits):
    return min(fits, key=lambda fit: (fit[1], fit[0][0]))


def _ladder(values, ran=()):
    """The fit of the whole four-start ladder, or None where nlls refuses.
    ran: (start, fit) of the starts already refined, in ladder order."""
    y = np.array(values, dtype=float)
    if y.min() <= 0:
        return None
    starts = _ladder_starts(list(values))
    assert [start for start, _ in ran] == starts[: len(ran)]
    fits = [fit for _, fit in ran] + [_lm_refine(y, *start) for start in starts[len(ran) :]]
    if not fits:
        return None
    best = _best(fits)
    try:
        LogisticParams(*best[0])
    except LogisticHorizonError:
        return None
    return best


def _run(values, ran):
    """estimate_nlls's (u_max, a, c), rmse and converged; appends the
    (start, fit) of each of its _lm_refine calls to ran."""

    def record(*args):
        ran.append((args[1:], _lm_refine(*args)))
        return ran[-1][1]

    with mock.patch.object(estimate, "_lm_refine", side_effect=record):
        est = estimate_nlls(_series(values))
    d = est.diagnostics
    return (est.u_max_hat, d["a"], d["c"]), d["rmse"], d["converged"]


# noiseless prefixes of c = 0.2, k = 0: at 13 points the second start wins
# and is also the whole ladder's pick; at 14 points the first wins and at
# 16 the second, where a skipped start would have won on the same optimum
@pytest.mark.parametrize("n", [13, 14, 16])
def test_noiseless_series_runs_two_starts_and_picks_the_better(n):
    values = _grid_values(0.2, 0, 0.0, 0)[:n]
    ran = []
    got = _run(values, ran)
    assert [start for start, _ in ran] == _ladder_starts(list(values))[:2]
    fits = [fit for _, fit in ran]
    assert all(fit[2] for fit in fits)
    assert got == _best(fits)


# prefixes of the accuracy grid where the first two starts do not agree
# within 1e-9, or do not converge: every start runs and the pick is the
# whole ladder's
DIVERGING = {
    "c=0.2 k=0 noise 1 seed 3, 7 points: the first two agree within 9.1e-9": (0.2, 0, 1.0, 3, 7),
    "c=0.2 k=0 noise 1 seed 1, 8 points: within 1.5e-9": (0.2, 0, 1.0, 1, 8),
    "c=0.2 k=0 noise 5 seed 4, 41 points: 2.5e-3 apart": (0.2, 0, 5.0, 4, 41),
    "c=0.2 k=0 noise 1 seed 6, 5 points: neither converges": (0.2, 0, 1.0, 6, 5),
}


@pytest.mark.parametrize("where", list(DIVERGING))
def test_every_start_runs_where_the_first_two_differ(where):
    c, k, noise, seed, n = DIVERGING[where]
    values = _grid_values(c, k, noise, seed)[:n]
    ran = []
    got = _run(values, ran)
    assert len(ran) == 4
    assert got == _ladder(values, ran)


# scripted _lm_refine results, one per start in ladder order: the rule
# reads only the converged flags and the parameters of the first two
def _scripted(*fits):
    it = iter(fits)
    with mock.patch.object(estimate, "_lm_refine", side_effect=lambda *args: next(it)) as refine:
        est = estimate_nlls(_series([1.0, 2.0, 3.0, 4.0, 5.0]))
    return est, refine.call_count


P = (10.0, 4.0, 0.5)
NEAR = (10.0 * (1 + 9e-10), 4.0 * (1 - 9e-10), 0.5 * (1 + 9e-10))
APART = (10.0, 4.0, 0.5 * (1 + 2e-9))
BETTER = ((6.0, 2.0, 0.3), 0.001, True)  # a later start that would win


def test_rule_stops_after_two_converged_starts_that_agree():
    est, calls = _scripted((P, 0.2, True), (NEAR, 0.1, True), BETTER, BETTER)
    assert calls == 2
    assert (est.u_max_hat, est.diagnostics["rmse"]) == (NEAR[0], 0.1)


@pytest.mark.parametrize(
    "first, second",
    [
        ((P, 0.2, False), (NEAR, 0.1, True)),
        ((P, 0.2, True), (NEAR, 0.1, False)),
        ((P, 0.2, True), (APART, 0.1, True)),
    ],
    ids=["first not converged", "second not converged", "c 2e-9 apart"],
)
def test_rule_runs_every_start_otherwise(first, second):
    est, calls = _scripted(first, second, BETTER, (P, 0.5, True))
    assert calls == 4
    assert (est.u_max_hat, est.diagnostics["rmse"]) == (6.0, 0.001)


def test_nlls_matches_the_four_start_ladder_on_the_grid():
    # the noiseless slice of the accuracy grid, and its seed-1 specs at
    # noise 1 and 5, every prefix of 5-41 points
    for c in (0.2, 0.4):
        for k in range(8):
            for noise, seed in ((0.0, 0), (1.0, 1), (5.0, 1)):
                values = _grid_values(c, k, noise, seed)
                for n in range(5, 42):
                    prefix, ran = values[:n], []
                    try:
                        (u, _, _), rmse, _ = _run(prefix, ran)
                    except LogisticHorizonError:
                        assert _ladder(prefix, ran) is None, (c, k, noise, n)
                        continue
                    want = _ladder(prefix, ran)
                    assert want is not None, (c, k, noise, n)
                    assert rmse <= want[1] * (1 + 1e-12) + 1e-14 * max(prefix), (c, k, noise, n)
                    assert abs(u - want[0][0]) <= 1e-6 * want[0][0], (c, k, noise, n)


def _starts(y):
    # under estimate_nlls's errstate: a cap of inf reaches inf - inf in the logit line
    with np.errstate(over="ignore", invalid="ignore"):
        return list(estimate._starts(np.array(y, dtype=float)))


def test_starts_match_the_reference_on_the_grid_and_the_fixture_windows():
    # every prefix of the accuracy grid with positive values, every seed
    checked = 0
    for c in (0.2, 0.4):
        for k in range(8):
            for noise, seeds in ((0.0, (0,)), (1.0, range(1, 11)), (5.0, range(1, 11))):
                for seed in seeds:
                    values = _grid_values(c, k, noise, seed)
                    for n in range(5, 42):
                        prefix = list(values[:n])
                        if min(prefix) > 0:
                            assert _bits(_starts(prefix)) == _bits(_ladder_starts(prefix)), (c, k, noise, seed, n)
                            checked += 1
    assert checked == 11_544
    for ts in _fixture_windows():
        y = list(ts.values)
        if len(y) >= 4 and min(y) > 0:
            assert _bits(_starts(y)) == _bits(_ladder_starts(y)), ts.labels[-1]


def test_ladder_check_passes_on_the_fixture_windows(monkeypatch):
    # the CI script against the private functions it calls; it puts src/
    # and perfbench/ on sys.path, which is restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ladder_check", LADDER_CHECK)
    ladder_check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder_check)
    assert ladder_check.check("fixture-windows", ladder_check.fixture_windows(), False) == []
