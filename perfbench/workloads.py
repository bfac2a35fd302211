"""The four workloads: their inputs, their operations and their checks.

An operation is what a user does: build a ``TimeSeries`` from plain
floats and call one public estimator (``fixture-windows``,
``long-series``), call ``benchmark_estimators`` on one spec
(``noisy-sweep``), or launch one CLI process (``cli-oneshot``).  Every
input is made from the seed; the library only ever sees the inputs.

A workload runs in passes.  Every pass performs the same operations in
the same order, so the first pass of any run with a given seed does
the same work, and the counted metrics (refusals, errors, accuracy)
are taken from it.

Outcomes are checked against ``golden/<workload>.json``, recorded by
``record.py`` from the library as it was when the benchmark was
defined, and against the independent answers in ``reference.py``.
A refusal that turns into a result is reported, not failed; a result
that turns into a refusal or into a foreign exception is a failure.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import namedtuple

import reference
from spans import refusal_kind

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

# Relative tolerance for polyfit and nlls against their recorded
# outputs.  Reordered sums may move them in the last bits; 1e-7 still
# catches an estimate that is off by one part in a million.
FIT_RTOL = 1e-7

ORDER = {"scd": 3, "scd-paper": 3, "sld": 3, "order4": 4, "order5": 5}


def estimator_calls(lh):
    """Method key -> call on a TimeSeries.  Names are looked up at call
    time so that trace wrappers, when installed, are seen."""
    return {
        "scd": lambda ts: lh.estimate_scd(ts),
        "scd-paper": lambda ts: lh.estimate_scd(ts, "paper-rounded"),
        "sld": lambda ts: lh.estimate_sld(ts),
        "order4": lambda ts: lh.higher_order_estimate(ts, 4),
        "order5": lambda ts: lh.higher_order_estimate(ts, 5),
        "polyfit4": lambda ts: lh.polyfit_estimate(ts, 4),
        "polyfit6": lambda ts: lh.polyfit_estimate(ts, 6),
        "nlls": lambda ts: lh.estimate_nlls(ts),
    }


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# One operation: ``key`` names its inputs and call; ``data`` is the
# series (labels, values), the GenSpec or the CLI arguments.
Op = namedtuple("Op", "key method data")

# ``status`` is "ok", "refused" (a documented LogisticHorizonError,
# ``detail`` = (type name, message)) or "failed" (anything else).  A
# traced CLI process keeps its child report in ``detail``.
Outcome = namedtuple("Outcome", "status value detail", defaults=(None, None))


class Workload:
    """Subclasses fill ``self.ops``, the operations of one pass, in
    ``__init__`` or ``generate``, and define ``warm_up``, ``run``,
    ``check`` and ``call_facts``."""

    name = ""
    key_op = ""
    pass_seconds: float  # nominal time of one pass on a 2-vCPU VM; sets the number of passes
    traced = False  # set while the run is traced; the CLI workload then traces its children

    def __init__(self, lh, seed: int, tiny: bool):
        self.lh = lh
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []
        self.sizes: dict = {}

    def generate(self) -> None:
        """Set-up work beyond ``__init__``; most workloads need none."""

    def estimates(self, op: Op, outcome: Outcome) -> int:
        return 0 if outcome.status == "failed" else 1

    def rel_errors(self, op: Op, outcome: Outcome) -> list:
        """(method, relative error against the true level) per result;
        empty where the truth is unknown."""
        return []


# ------------------------------------------------------------ estimator ops


class EstimatorWorkload(Workload):
    """Ops that build a cumulative TimeSeries and call one estimator."""

    key_op = "scd"
    methods: tuple = ()

    def __init__(self, lh, seed, tiny):
        super().__init__(lh, seed, tiny)
        self.calls = estimator_calls(lh)
        self.golden = load_golden(self.name)
        self._ref_index: dict = {}

    def warm_up(self) -> None:
        """One untimed call per method, on the short fixture window."""
        ts = self.lh.get_fixture("loyalty-tnlc-window").series
        for method in self.methods:
            try:
                self.calls[method](ts)
            except self.lh.LogisticHorizonError:
                pass

    def run(self, op: Op) -> Outcome:
        lh = self.lh
        labels, values = op.data
        try:
            ts = lh.TimeSeries(labels, values, kind="cumulative")
            return Outcome("ok", self.calls[op.method](ts))
        except lh.LogisticHorizonError as exc:
            return Outcome("refused", None, (type(exc).__name__, str(exc)))
        except Exception as exc:  # a foreign exception is a counted failure
            return Outcome("failed", None, (type(exc).__name__, str(exc)))

    def call_facts(self, op, outcome):
        """(kind, below_max) for each estimator call the op made."""
        if outcome.status == "ok":
            return [("ok", outcome.value.diagnostics.get("exceeds_max_observed") is False)]
        if outcome.status == "refused":
            return [(refusal_kind(*outcome.detail), False)]
        return [("failed", False)]

    def check(self, op: Op, outcome: Outcome):
        """(failure reason or None, recorded refusal now a result)."""
        if outcome.status == "failed":
            return f"{op.key}: {outcome.detail[0]}: {outcome.detail[1]}", False
        status, value = self.golden[op.key]
        if outcome.status == "refused":
            if status == "ok":
                return f"{op.key}: recorded result became refusal: {outcome.detail[1]}", False
            return None, False
        est = outcome.value
        if op.method in ORDER:
            failure = self._check_division(op, est)
        elif status == "ok" and rel_diff(est.u_max_hat, value) > FIT_RTOL:
            failure = f"{op.key}: u_max_hat {est.u_max_hat!r} differs from recorded {value!r}"
        else:
            failure = None
        return failure, status != "ok"

    def _check_division(self, op: Op, est) -> str | None:
        n = ORDER[op.method]
        c = est.constant_used
        if op.method == "scd-paper":
            if c != reference.paper_fraction(n):
                return f"{op.key}: paper constant {c!r} != {reference.paper_fraction(n)!r}"
        elif rel_diff(c, reference.characteristic_fraction(n)) > reference.FRACTION_RTOL:
            return f"{op.key}: constant {c!r} != {reference.characteristic_fraction(n)!r}"
        values = op.data[1]
        point = est.char_point
        if point.series_value != values[point.index] or est.u_max_hat != point.series_value / c:
            return f"{op.key}: u_max_hat {est.u_max_hat!r} is not the series value over the constant"
        series_key = op.key.rsplit(":", 1)[0]
        ref_key = (series_key, n, op.method == "sld")
        if ref_key not in self._ref_index:
            diff = reference.difference(values, n - 1, left=op.method == "sld")
            self._ref_index[ref_key] = reference.first_local_max(diff)
        if point.index != self._ref_index[ref_key]:
            return f"{op.key}: index {point.index} != reference index {self._ref_index[ref_key]}"
        return None


def fixture_series(lh, names):
    """(name, labels, values) with raw fixtures cumulated, as plain data."""
    for name in names:
        series = lh.get_fixture(name).series
        values = tuple(series.values)
        if series.kind == "raw":
            values = tuple(itertools.accumulate(values))
        yield name, tuple(series.labels), values


class FixtureWindows(EstimatorWorkload):
    name = "fixture-windows"
    pass_seconds = 5.0
    methods = ("scd", "scd-paper", "sld", "order4", "order5", "polyfit4", "polyfit6", "nlls")
    MIN_WINDOW = 10
    # nlls takes about twice as long as the seven other calls together.
    # A pass sweeps the other calls over every window this many times,
    # each sweep followed by nlls on its share of the windows, so the
    # fast calls get more repeats, spread evenly over the run.  The key
    # call, scd, is made KEY_REPEATS times per window in each sweep: a
    # shared host can switch between a fast and a slow speed many times
    # a second, and the more often a window is timed, the surer it is
    # that one of its repeats ran at the fast one.
    SWEEPS = 3
    KEY_REPEATS = 3

    def __init__(self, lh, seed, tiny):
        super().__init__(lh, seed, tiny)
        names = ("loyalty-tnlc-window", "mobile-germany") if tiny else lh.FIXTURE_NAMES
        fast, nlls = [], []
        for fixture, labels, values in fixture_series(lh, names):
            for length in range(self.MIN_WINDOW, len(values) + 1):
                window = (labels[:length], values[:length])
                for method in self.methods:
                    op = Op(f"{fixture}:{length}:{method}", method, window)
                    (nlls if method == "nlls" else fast).append(op)
        fast += [op for op in fast if op.method == self.key_op] * (self.KEY_REPEATS - 1)
        self.rng.shuffle(nlls)
        for sweep in range(self.SWEEPS):
            self.rng.shuffle(fast)
            self.ops += fast + nlls[sweep :: self.SWEEPS]
        self.sizes = {
            "windows": len(nlls),
            "points": "10-105",
            "ops_per_pass": len(self.ops),
        }


LONG_POINTS = 10_000
LONG_U_MAX = 1000.0
# (a, inflection index as a share of the window) per stratum.  Each
# stratum has two shapes and the seed picks one, so every run covers
# the same spread of shapes and every window runs past the inflection.
LONG_STRATA = ((25.0, 0.40), (50.0, 0.45), (100.0, 0.50), (200.0, 0.55), (400.0, 0.60), (800.0, 0.62))
LONG_VARIANTS = ((0.99, -0.002), (1.01, 0.002))


def long_shape(stratum: int, variant: int) -> tuple[float, float]:
    """(a, c) of one pool shape."""
    a0, share = LONG_STRATA[stratum]
    da, ds = LONG_VARIANTS[variant]
    a = a0 * da
    return a, math.log(a) / ((share + ds) * LONG_POINTS)


class LongSeries(EstimatorWorkload):
    name = "long-series"
    pass_seconds = 7.0
    methods = ("scd", "sld", "order5", "polyfit4", "nlls")

    def __init__(self, lh, seed, tiny):
        super().__init__(lh, seed, tiny)
        picks = [(s, self.rng.randrange(len(LONG_VARIANTS))) for s in range(len(LONG_STRATA))]
        self.rng.shuffle(picks)
        self.picks = picks[:1] if tiny else picks
        cheap = len(self.methods) - 1
        self.sizes = {
            "series": len(self.picks),
            "points": LONG_POINTS,
            "ops_per_pass": (cheap * len(self.picks) + 1) * len(self.picks),
        }

    def generate(self) -> None:
        """Uses the library's own generator, so ``synthetic`` shows up in
        ``setup_s`` here.

        nlls takes about 25 times as long as the other four calls
        together.  A pass is one round per series: the four cheap calls
        on every series, then nlls on that series.  So each cheap call
        is repeated once per series in a pass, and its repeats are
        spread evenly over the run rather than bunched together."""
        lh = self.lh
        series = []
        for stratum, variant in self.picks:
            a, c = long_shape(stratum, variant)
            spec = lh.GenSpec(params=lh.LogisticParams(LONG_U_MAX, a, c), n_points=LONG_POINTS)
            ts = lh.generate(spec)
            series.append((f"{stratum}.{variant}", (tuple(ts.labels), tuple(ts.values))))
        cheap = [m for m in self.methods if m != "nlls"]
        for slow_key, slow_data in series:
            for key, data in series:
                for method in cheap:
                    self.ops.append(Op(f"{key}:{method}", method, data))
            self.ops.append(Op(f"{slow_key}:nlls", "nlls", slow_data))

    def rel_errors(self, op, outcome):
        if outcome.status != "ok":
            return []
        return [(op.method, rel_diff(outcome.value.u_max_hat, LONG_U_MAX))]


# ---------------------------------------------------------------- noisy-sweep

SWEEP_PARAMS = (1000.0, 200.0, 0.4)
SWEEP_POINTS = 41
SWEEP_TRUNCATIONS = tuple(range(9, SWEEP_POINTS + 1))
SWEEP_METHODS = ("scd", "sld", "polyfit", "nlls")
SPECS_PER_LEVEL = 5
# noise_sd -> (pool of noise seeds, how many a pass draws from it).  At
# noise_sd=5 some seeds put a nonpositive value in the series, which
# nlls refuses outright; drawing a fixed number of those keeps the
# refusal share, and the time a pass takes, the same for every seed.
# Without noise the seed changes nothing.
SWEEP_DRAWS = {
    0.0: (((0,), SPECS_PER_LEVEL),),
    1.0: ((tuple(range(1, 13)), SPECS_PER_LEVEL),),
    5.0: (((1, 2, 4, 5, 6, 8, 9, 11, 12, 13, 14, 15), SPECS_PER_LEVEL - 1), ((3, 7, 10, 18), 1)),
}


def sweep_key(noise: float, seed: int) -> str:
    return f"{noise:g}:{seed}"


class NoisySweep(Workload):
    name = "noisy-sweep"
    pass_seconds = 5.0
    key_op = "sweep-0"

    def __init__(self, lh, seed, tiny):
        super().__init__(lh, seed, tiny)
        self.golden = load_golden(self.name)
        drawn = {}
        for noise, draws in SWEEP_DRAWS.items():
            seeds = []
            for pool, count in draws:
                seeds += pool * count if len(pool) == 1 else self.rng.sample(pool, count)
            self.rng.shuffle(seeds)
            drawn[noise] = seeds[:1] if tiny else seeds
        u_max, a, c = SWEEP_PARAMS
        for j in range(len(drawn[0.0])):
            for noise, seeds in drawn.items():
                spec = lh.GenSpec(
                    params=lh.LogisticParams(u_max, a, c),
                    n_points=SWEEP_POINTS,
                    noise_sd=noise,
                    seed=seeds[j],
                )
                self.ops.append(Op(sweep_key(noise, spec.seed), f"sweep-{noise:g}", spec))
        self.sizes = {
            "specs_per_pass": len(self.ops),
            "points": SWEEP_POINTS,
            "truncations": len(SWEEP_TRUNCATIONS),
            "rows_per_pass": len(self.ops) * len(SWEEP_TRUNCATIONS) * len(SWEEP_METHODS),
        }
        self._peaks: dict = {}

    def warm_up(self) -> None:
        self.lh.benchmark_estimators([self.ops[0].data], [SWEEP_POINTS])

    def run(self, op: Op) -> Outcome:
        try:
            return Outcome("ok", self.lh.benchmark_estimators([op.data], SWEEP_TRUNCATIONS))
        except Exception as exc:  # the table always completes; anything raised is a failure
            return Outcome("failed", None, (type(exc).__name__, str(exc)))

    def estimates(self, op, outcome) -> int:
        return len(outcome.value) if outcome.status == "ok" else 0

    def check(self, op: Op, outcome: Outcome):
        if outcome.status == "failed":
            return f"{op.key}: {outcome.detail[0]}: {outcome.detail[1]}", False
        want = self.golden[op.key]
        rows = outcome.value
        if len(rows) != len(want):
            return f"{op.key}: {len(rows)} rows, recorded {len(want)}", False
        changed = False
        layout = itertools.product(SWEEP_TRUNCATIONS, SWEEP_METHODS)
        for row, (status, value), (k, method) in zip(rows, want, layout):
            where = f"{op.key}: truncation {k} {method}"
            if (row["truncation"], row["method"]) != (k, method):
                return f"{where}: row out of order", False
            if row["status"] != "ok":
                if status == "ok":
                    return f"{where}: recorded result became {row['status']!r}", False
                continue
            u_hat = row["u_max_hat"]
            if row["rel_error"] != abs(u_hat - row["u_max"]) / row["u_max"]:
                return f"{where}: rel_error does not match u_max_hat", False
            if status != "ok":
                changed = True
                continue
            rtol = reference.FRACTION_RTOL if method in ("scd", "sld") else FIT_RTOL
            if rel_diff(u_hat, value) > rtol:
                return f"{where}: u_max_hat {u_hat!r} differs from recorded {value!r}", False
        return None, changed

    def call_facts(self, op, outcome):
        """One (kind, below_max) per table row; below_max compares the
        estimate with the largest value of the truncated prefix."""
        if outcome.status != "ok":
            return [("failed", False)]
        if op.key not in self._peaks:
            values = self.lh.generate(op.data).values
            self._peaks[op.key] = list(itertools.accumulate(values, max))
        peaks = self._peaks[op.key]
        facts = []
        for row in outcome.value:
            if row["status"] == "ok":
                facts.append(("ok", row["u_max_hat"] <= peaks[row["truncation"] - 1]))
            else:
                facts.append((refusal_kind("", row["status"]), False))
        return facts

    def rel_errors(self, op, outcome):
        if outcome.status != "ok":
            return []
        return [(row["method"], row["rel_error"]) for row in outcome.value if row["status"] == "ok"]


# ---------------------------------------------------------------- cli-oneshot

CLI_METHODS = {
    "scd": ["--method", "scd"],
    "sld": ["--method", "sld"],
    "order5": ["--method", "order-n", "--n", "5"],
    "polyfit4": ["--method", "polyfit", "--degree", "4"],
    "nlls": ["--method", "nlls"],
}
# On these full series the fitted quartic's second derivative is not
# concave, so the CLI refuses with exit status 1.  They are left out so
# that every launched process is expected to succeed.
CLI_REFUSED = {("mobile-germany", "polyfit4"), ("mobile-slovakia", "polyfit4"), ("medical-qmd", "polyfit4")}


class CliOneshot(Workload):
    name = "cli-oneshot"
    pass_seconds = 3.5
    key_op = "cli"

    def __init__(self, lh, seed, tiny):
        super().__init__(lh, seed, tiny)
        self.env = child_env()
        fixtures = ("loyalty-tnlc-window",) if tiny else lh.FIXTURE_NAMES
        combos = [(f, m) for f in fixtures for m in CLI_METHODS if (f, m) not in CLI_REFUSED]
        self.rng.shuffle(combos)
        self.ops = [Op(f"{f}:{m}", m, self.argv(f, m)) for f, m in combos]
        self.sizes = {"processes_per_pass": len(self.ops), "points": "10-105"}
        self._expected: dict = {}

    def argv(self, fixture, method):
        cumulate = ["--cumulate"] if self.lh.get_fixture(fixture).series.kind == "raw" else []
        return ["estimate", "--fixture", fixture, *CLI_METHODS[method], *cumulate]

    def warm_up(self) -> None:
        for method in CLI_METHODS:
            self.run(Op("warm-up", method, self.argv("loyalty-tnlc-window", method)))

    def run(self, op: Op) -> Outcome:
        if self.traced:
            cmd = [sys.executable, "-s", os.path.join(HERE, "cli_child.py"), *op.data]
        else:
            cmd = [sys.executable, "-s", "-m", "logistic_horizon.cli", *op.data]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            return Outcome("failed", None, ("exit", f"{proc.returncode}: {proc.stderr.strip()[-300:]}"))
        if self.traced:
            report = json.loads(proc.stdout)
            return Outcome("ok", json.loads(report["stdout"]), report)
        return Outcome("ok", json.loads(proc.stdout))

    def call_facts(self, op, outcome):
        if outcome.status == "ok":
            return [("ok", outcome.value["diagnostics"].get("exceeds_max_observed") is False)]
        return [("failed", False)]

    def check(self, op: Op, outcome: Outcome):
        if outcome.status == "failed":
            return f"{op.key}: {outcome.detail[0]} {outcome.detail[1]}", False
        if op.key not in self._expected:
            fixture, method = op.key.split(":")
            series = self.lh.get_fixture(fixture).series
            if series.kind == "raw":
                series = self.lh.cumulate(series)
            self._expected[op.key] = estimator_calls(self.lh)[method](series).u_max_hat
        got, want = outcome.value["u_max_hat_exact"], self._expected[op.key]
        if got != want:
            return f"{op.key}: CLI u_max_hat_exact {got!r} != in-process {want!r}", False
        return None, False


def child_env() -> dict:
    """Environment for every benchmark process: the working tree's
    sources, one BLAS thread, fixed hashing, and the division
    RuntimeWarning ignored so that it costs the same on every call."""
    root = os.path.dirname(HERE)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        PYTHONWARNINGS="ignore::RuntimeWarning",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


WORKLOADS = {cls.name: cls for cls in (FixtureWindows, LongSeries, NoisySweep, CliOneshot)}
