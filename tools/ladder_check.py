"""Compare estimate_nlls with the four-start ladder it may cut short.

    python3 tools/ladder_check.py [--list-moved]

``estimate_nlls`` runs its cap ladder (1.05, 1.5, 3 and 10 x max y) and
stops after the first two starts when both converged to one fit.  This
script rebuilds the whole ladder: ``_lm_refine`` from every start of
``estimate._starts``, the best fit by (RMSE, u_max).  The starts the
estimator ran are recorded and reused; the reference runs only the ones
it skipped.  The input sets:

- grid: 41-point logistic specs, u_max 1000, c in {0.2, 0.4}, the
  inflection at t = 13 + k/8 for k = 0..7, noise_sd 0 with seed 0 and
  noise_sd 1 and 5 with seeds 1-10, every prefix of 5-41 points;
- noisy-sweep: every spec in the pools of perfbench's noisy-sweep
  workload, at its truncations;
- fixture-windows: every fixture window from 10 points, as perfbench's
  fixture-windows workload builds them;
- long-series: the twelve 10^4-point shapes of perfbench's long-series
  workload.

Per set it prints the fits, the refusals, the mean number of starts
run, how many ``u_max_hat`` moved from the ladder's, the largest
relative move and the largest RMSE excess over the ladder's.  It exits
with status 1 when a refusal differs, an RMSE exceeds the ladder's by
more than 1e-12 relative plus 1e-14 * max(y), or a move exceeds its
set's bound.  ``--list-moved`` prints every moved noisy-sweep and
fixture-windows result by its perfbench golden key, with the
truncation for noisy-sweep.

This is the one implementation of the comparison: tests/test_ladder.py
imports it and runs ``check`` on the grid specs ``GRID`` with seed 0 or
1 and on the fixture windows, and reads ``compare`` and
``grid_values``.
"""

import argparse
import math
import os
import sys
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the checkout's own library, and the benchmark's inputs
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import logistic_horizon as lh  # noqa: E402
import workloads  # noqa: E402
from logistic_horizon import estimate  # noqa: E402

RMSE_RTOL, RMSE_ATOL = 1e-12, 1e-14  # the second as a share of max(y)
# largest relative move of u_max_hat per set: item 1's grid includes
# prefixes of 5-11 points, where the optimum is flat; perfbench's goldens
# hold nlls to FIT_RTOL
MOVE_BOUND = {"grid": 1e-6, "noisy-sweep": workloads.FIT_RTOL,
              "fixture-windows": workloads.FIT_RTOL, "long-series": workloads.FIT_RTOL}


def compare(values):
    """(nlls, best, ran): estimate_nlls's fit, the whole ladder's best fit
    and the (start, fit) of each start it ran, where a fit is
    ((u_max, a, c), rmse, converged) and None for a refusal."""
    lm_refine, ran = estimate._lm_refine, []

    def record(*args):
        ran.append((args[1:], lm_refine(*args)))
        return ran[-1][1]

    ts = lh.TimeSeries([str(i) for i in range(len(values))], values, kind="cumulative")
    with mock.patch.object(estimate, "_lm_refine", record):
        try:
            est = estimate.estimate_nlls(ts)
            d = est.diagnostics
            got = (est.u_max_hat, d["a"], d["c"]), d["rmse"], d["converged"]
        except lh.LogisticHorizonError:
            got = None
    y, best = ts.array, None
    if y.min() > 0:  # else refused before the ladder
        with np.errstate(over="ignore", invalid="ignore"):  # estimate_nlls's, as _starts asks
            starts = list(estimate._starts(y))
        if [start for start, _ in ran] != starts[: len(ran)]:
            raise AssertionError(f"estimate_nlls ran other starts than the ladder's on {values!r}")
        fits = [fit for _, fit in ran] + [lm_refine(y, *s) for s in starts[len(ran) :]]
        if fits:
            best = min(fits, key=lambda fit: (fit[1], fit[0][0]))
            try:
                lh.LogisticParams(*best[0])
            except lh.LogisticHorizonError:
                best = None
    return got, best, ran


def grid_values(c, k, noise, seed):
    """The 41 values of one grid spec: u_max 1000, rate c, the inflection
    at t = 13 + k/8, additive noise of the given sd and seed."""
    spec = lh.GenSpec(lh.LogisticParams(1000.0, math.exp(c * (13 + k / 8)), c), n_points=41,
                      noise_sd=noise, seed=seed)
    return lh.generate(spec).values


GRID = [(c, k, noise, seed) for c in (0.2, 0.4) for k in range(8)
        for noise, seeds in ((0.0, (0,)), (1.0, range(1, 11)), (5.0, range(1, 11))) for seed in seeds]


def grid(specs=GRID):
    for c, k, noise, seed in specs:
        values = grid_values(c, k, noise, seed)
        for n in range(5, 42):
            yield f"c={c} k={k} noise={noise:g} seed={seed} n={n}", values[:n]


def noisy_sweep():
    u_max, a, c = workloads.SWEEP_PARAMS
    for noise, draws in workloads.SWEEP_DRAWS.items():
        for seed in sorted({s for pool, _ in draws for s in pool}):
            spec = lh.GenSpec(lh.LogisticParams(u_max, a, c), n_points=workloads.SWEEP_POINTS,
                              noise_sd=noise, seed=seed)
            values = lh.generate(spec).values
            for k in workloads.SWEEP_TRUNCATIONS:
                yield f"{workloads.sweep_key(noise, seed)} truncation {k}", values[:k]


def fixture_windows():
    for name, _, values in workloads.fixture_series(lh, lh.FIXTURE_NAMES):
        for length in range(workloads.FixtureWindows.MIN_WINDOW, len(values) + 1):
            yield f"{name}:{length}:nlls", values[:length]


def long_series():
    for stratum in range(len(workloads.LONG_STRATA)):
        for variant in range(len(workloads.LONG_VARIANTS)):
            a, c = workloads.long_shape(stratum, variant)
            spec = lh.GenSpec(lh.LogisticParams(workloads.LONG_U_MAX, a, c), n_points=workloads.LONG_POINTS)
            yield f"{stratum}.{variant}:nlls", lh.generate(spec).values


SETS = {"grid": grid, "noisy-sweep": noisy_sweep, "fixture-windows": fixture_windows, "long-series": long_series}


def check(name, inputs, list_moved):
    """Prints one set's line; returns its faults."""
    faults = []
    fits = refusals = starts = moved = 0
    worst_move = excess_rel = excess_abs = 0.0
    for key, values in inputs:
        got, best, ran = compare(values)
        if (got is None) != (best is None):
            faults.append(f"{name} {key}: refusal differs: {got!r} against the ladder's {best!r}")
            continue
        if got is None:
            refusals += 1
            continue
        fits += 1
        starts += len(ran)
        ymax = float(max(values))
        ((u, _, _), rmse, _), ((u_ref, _, _), rmse_ref, _) = got, best
        if u != u_ref:
            moved += 1
            if list_moved and name in ("noisy-sweep", "fixture-windows"):
                print(f"  moved {key}: {u_ref!r} -> {u!r}")
        move = abs(u - u_ref) / abs(u_ref)
        worst_move = max(worst_move, move)
        if move > MOVE_BOUND[name]:
            faults.append(f"{name} {key}: u_max_hat moved {move:.3g} relative, past {MOVE_BOUND[name]:g}")
        excess_abs = max(excess_abs, (rmse - rmse_ref) / ymax)
        if rmse_ref > 1e-9 * ymax:
            excess_rel = max(excess_rel, (rmse - rmse_ref) / rmse_ref)
        if rmse > rmse_ref * (1 + RMSE_RTOL) + RMSE_ATOL * ymax:
            faults.append(f"{name} {key}: RMSE {rmse!r} exceeds the ladder's {rmse_ref!r}")
    print(f"{name}: {fits} fits, {refusals} refused, {starts / fits:.2f} starts run on average, "
          f"{moved} u_max_hat moved, largest move {worst_move:.2g} relative, largest RMSE excess "
          f"{excess_rel:.2g} relative (RMSE above 1e-9 max y) and {excess_abs:.2g} of max y")
    return faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list-moved", action="store_true",
                        help="print every moved noisy-sweep and fixture-windows result by its golden key")
    args = parser.parse_args()
    faults = []
    for name, inputs in SETS.items():
        faults += check(name, inputs(), args.list_moved)
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
