"""nlls's start ladder, and the rule that ends it after two starts.

``estimate_nlls`` refines a start from each cap 1.05, 1.5, 3 and 10 x
max(y) in turn, and stops after the first two starts that run when both
converged and their u_max, a and c each agree within 1e-9 relative.
The pick among the starts that ran is the lowest RMSE, ties to the
lower u_max.  ``tools/ladder_check.py`` holds the accuracy grid and the
reference that refines every cap's start; these tests run its check on
a slice of the grid and on the fixture windows, and read its
``compare`` where a test needs the fits.  ``estimate._starts`` is the
one place a start is built: its starts are checked bit for bit against
the pure-Python ``_ladder_starts`` on every positive grid prefix, which
keeps the script's reference independent of them.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from logistic_horizon import TimeSeries, estimate_nlls
from logistic_horizon import estimate
from test_kernels import _bits, _fixture_windows, _ladder_starts


PATH = Path(__file__).resolve().parent.parent / "tools" / "ladder_check.py"
spec = importlib.util.spec_from_file_location("ladder_check", PATH)
ladder_check = importlib.util.module_from_spec(spec)
saved = list(sys.path)
try:
    spec.loader.exec_module(ladder_check)
finally:
    sys.path[:] = saved  # the script puts src/ and perfbench/ first


def _series(values):
    return TimeSeries([str(i) for i in range(len(values))], values, kind="cumulative")


# noiseless prefixes of c = 0.2, k = 0: at 13 points the second start wins
# and is also the whole ladder's pick; at 14 points the first wins and at
# 16 the second, where a skipped start would have won on the same optimum
@pytest.mark.parametrize("n", [13, 14, 16])
def test_noiseless_series_runs_two_starts_and_picks_the_better(n):
    values = ladder_check.grid_values(0.2, 0, 0.0, 0)[:n]
    got, best, ran = ladder_check.compare(values)
    assert [start for start, _ in ran] == _ladder_starts(list(values))[:2]
    fits = [fit for _, fit in ran]
    assert all(fit[2] for fit in fits)
    win, lose = fits if n == 14 else fits[::-1]
    assert got == win and got[1] < lose[1]
    assert (got == best) == (n == 13)


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
    got, best, ran = ladder_check.compare(ladder_check.grid_values(c, k, noise, seed)[:n])
    assert len(ran) == 4
    assert got is not None and got == best


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
    # noise 1 and 5: the same refusals, an RMSE within 1e-12 relative plus
    # 1e-14 of max y of the ladder's, u_max_hat within 1e-6 relative
    specs = [(c, k, noise, seed) for c, k, noise, seed in ladder_check.GRID if seed < 2]
    assert ladder_check.check("grid", ladder_check.grid(specs), False) == []


def _starts(y):
    # under estimate_nlls's errstate: a cap of inf reaches inf - inf in the logit line
    with np.errstate(over="ignore", invalid="ignore"):
        return list(estimate._starts(np.array(y, dtype=float)))


def test_starts_match_the_reference_on_the_grid_and_the_fixture_windows():
    # every prefix of the accuracy grid with positive values, every seed
    checked = 0
    for key, values in ladder_check.grid():
        prefix = list(values)
        if min(prefix) > 0:
            assert _bits(_starts(prefix)) == _bits(_ladder_starts(prefix)), key
            checked += 1
    assert checked == 11_544
    for ts in _fixture_windows():
        y = list(ts.values)
        if len(y) >= 4 and min(y) > 0:
            assert _bits(_starts(y)) == _bits(_ladder_starts(y)), ts.labels[-1]


def test_ladder_check_passes_on_the_fixture_windows():
    # the CI script against the private functions it calls
    assert ladder_check.check("fixture-windows", ladder_check.fixture_windows(), False) == []
