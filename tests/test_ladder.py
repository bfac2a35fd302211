"""nlls's start ladder, and the rule that ends it after two starts.

``estimate_nlls`` refines a start from each cap 1.05, 1.5, 3 and 10 x
max(y) in turn, and stops after the first two starts that run when both
converged and their u_max, a and c each agree within 1e-9 relative.
The pick among the starts that ran is the lowest RMSE, ties to the
lower u_max.  The reference ladder here refines every cap's start.
"""

import math
from unittest import mock

import numpy as np
import pytest

from logistic_horizon import GenSpec, LogisticHorizonError, LogisticParams, TimeSeries, estimate_nlls, generate
from logistic_horizon import estimate
from logistic_horizon.estimate import _lm_refine
from test_kernels import _ladder_starts


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
    t, ymax = np.arange(len(y), dtype=float), float(y.max())
    fits = [fit for _, fit in ran] + [_lm_refine(y, t, ymax, *start) for start in starts[len(ran) :]]
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
        ran.append((args[3:], _lm_refine(*args)))
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
