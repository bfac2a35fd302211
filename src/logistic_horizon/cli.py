"""Command-line interface.

Subcommands mirror the library: eulerian (print the triangle), roots
(roots of a derivative polynomial), analyze (difference table plus
characteristic point), estimate (saturation level by any method), fit
(full logistic fit), simulate (synthetic CSV), bench (estimator error
table), fixtures (dump an embedded dataset).

Exit codes: 0 success, 1 domain or parse errors, 2 usage errors.
Numeric display defaults to 10 significant digits; override with
--digits.
"""

from __future__ import annotations

import argparse
import csv as _csv
import json
import math
import re
import sys

from .derivpoly import MAX_DERIV_ORDER, poly_roots
from .errors import CharacteristicPointNotFound, DomainError, LogisticHorizonError, ParseError
from .estimate import METHODS, fit_logistic_nlls, run_method
from .eulerian import eulerian_row
from .fixtures import FIXTURE_NAMES, get_fixture
from .logistic import LogisticParams
from .series import (
    POLICIES,
    SERIES_KINDS,
    CharacteristicPoint,
    TimeSeries,
    cumulate,
    find_characteristic_point,
    second_central_diff,
    second_left_diff,
)
from .synthetic import GenSpec, benchmark_estimators, generate

_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _display_float(x: float, digits: int) -> float:
    return float(_fmt(x, digits))


def read_csv_series(lines, source: str, kind: str = "raw") -> TimeSeries:
    """Parse label,value rows into a series.

    One byte-order mark (U+FEFF) at the start of the first line, as
    "CSV UTF-8" files carry, is dropped.  A first line exactly
    'label,value' (any case) is then treated as a header.  Values must
    be plain decimal numbers in float range: no thousands separators,
    no underscores, no nan/inf, no 1e999.
    """
    lines = iter(lines)
    first = next(lines, "").removeprefix("\ufeff")
    rows = [(lineno, line) for lineno, raw in enumerate((first, *lines), start=1) if (line := raw.strip())]
    if rows and rows[0][1].lower().replace(" ", "") == "label,value":
        del rows[0]
    labels = []
    values = []
    for lineno, line in rows:
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(
                f"{source}: line {lineno}: expected two comma-separated columns, got {len(parts)}"
            )
        label = parts[0].strip()
        value_text = parts[1].strip()
        if not _NUMBER_RE.fullmatch(value_text):
            raise ParseError(
                f"{source}: line {lineno}: not a plain decimal number: {value_text!r}"
            )
        value = float(value_text)
        if math.isinf(value):
            raise ParseError(f"{source}: line {lineno}: {value_text!r} is out of float range")
        labels.append(label)
        values.append(value)
    if len(values) < 3:
        raise ParseError(f"{source}: need at least 3 data rows, got {len(values)}")
    return TimeSeries(labels, values, kind)


def _load_series(args, stdin) -> TimeSeries:
    if args.fixture and args.csv:
        raise DomainError("give either a CSV path or --fixture, not both")
    if args.fixture:
        ts = get_fixture(args.fixture).series
        if args.kind:
            raise DomainError(f"--kind is for CSV input: fixture {args.fixture} is {ts.kind}; --cumulate makes levels")
    elif args.csv is None or args.csv == "-":
        ts = read_csv_series(stdin, "<stdin>", args.kind or "raw")
    else:
        try:
            with open(args.csv, "r", encoding="utf-8") as fh:
                ts = read_csv_series(fh, args.csv, args.kind or "raw")
        except OSError as exc:
            raise ParseError(f"cannot read {args.csv}: {exc}") from None
    return cumulate(ts) if args.cumulate else ts


# ---------------------------------------------------------------- commands


def _cmd_eulerian(args, stdin, stdout) -> int:
    if args.n < 0:
        raise DomainError(f"--n must be >= 0, got {args.n}")
    for n in range(args.n + 1):
        print("\t".join(str(v) for v in eulerian_row(n)), file=stdout)
    return 0


def _cmd_roots(args, stdin, stdout) -> int:
    if args.order < 2:
        raise DomainError(f"--order must be >= 2, got {args.order}")
    if args.order > MAX_DERIV_ORDER + 1:
        raise DomainError(f"--order must be <= {MAX_DERIV_ORDER + 1}, got {args.order}")
    roots = poly_roots(args.order - 1)
    print(", ".join(_fmt(r, args.digits) for r in roots), file=stdout)
    return 0


def _print_point(point: CharacteristicPoint, stdout, digits, prefix="characteristic point"):
    print(
        f"{prefix}: index {point.index}, label {point.label}, "
        f"diff {_fmt(point.diff_value, digits)}, value {_fmt(point.series_value, digits)}, "
        f"policy {point.policy_used}",
        file=stdout,
    )
    rivals = point.ambiguity  # computed on every read
    if rivals:
        text = "; ".join(f"index {i} (diff {_fmt(v, digits)})" for i, v in rivals)
        print(f"ambiguous with: {text}", file=stdout)


def _cmd_analyze(args, stdin, stdout) -> int:
    ts = _load_series(args, stdin)
    ds = second_left_diff(ts) if args.diff == "sld" else second_central_diff(ts)
    print("label\tt\tvalue\tdiff", file=stdout)
    for i, (label, v, d) in enumerate(zip(ts.labels, ts.values, ds.values)):
        cell = "" if d is None else _fmt(d, args.digits)
        print(f"{label}\t{i}\t{_fmt(v, args.digits)}\t{cell}", file=stdout)
    try:
        point = find_characteristic_point(ds, args.policy)
    except CharacteristicPointNotFound as exc:
        print(f"no characteristic point: {exc}", file=stdout)
        _print_point(exc.fallback, stdout, args.digits, prefix="global-max fallback")
        return 0
    _print_point(point, stdout, args.digits)
    return 0


def _cmd_estimate(args, stdin, stdout) -> int:
    if args.method == "order-n" and args.n is None:
        raise DomainError("--method order-n requires --n")
    division = ("scd", "sld", "order-n")
    for flag, value, methods in (
        ("--n", args.n, ("order-n",)),
        ("--degree", args.degree, ("polyfit",)),
        ("--policy", args.policy, division),
        ("--constant", args.constant, (*division, "polyfit")),
    ):
        if args.method not in methods and value is not None:
            raise DomainError(f"{flag} is for --method {' or '.join(methods)}, not --method {args.method}")
    ts = _load_series(args, stdin)
    mode = "paper-rounded" if args.constant == "paper" else "exact"
    policy = args.policy or "first-local-max"
    est = run_method(args.method, ts, args.n, 4 if args.degree is None else args.degree, mode, policy)
    scale = abs(ts.array).max()
    exact = est.u_max_hat
    if scale >= 1000:
        display = math.trunc(exact)
    else:
        display = _display_float(exact, args.digits)
    point = est.char_point
    payload = {
        "method": est.method,
        "u_max_hat": display,
        "u_max_hat_exact": exact,
        "constant_used": None if est.constant_used is None else _display_float(est.constant_used, args.digits),
        "char_index": None if point is None else point.index,
        "char_label": None if point is None else point.label,
        "char_value": None if point is None else point.series_value,
        "char_rivals": None if point is None else [[i, v] for i, v in point.ambiguity],
        "diagnostics": est.diagnostics,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=stdout)
    else:
        for key, value in payload.items():
            if key == "diagnostics":
                print(f"{key}: {json.dumps(value)}", file=stdout)
            else:
                print(f"{key}: {value}", file=stdout)
    return 0


def _cmd_fit(args, stdin, stdout) -> int:
    ts = _load_series(args, stdin)
    params, _rmse = fit_logistic_nlls(ts)
    payload = {name: _display_float(getattr(params, name), args.digits) for name in ("u_max", "a", "c")}
    print(json.dumps(payload, indent=2), file=stdout)
    return 0


def _csv_cell(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _cmd_simulate(args, stdin, stdout) -> int:
    spec = GenSpec(
        params=LogisticParams(u_max=args.umax, a=args.a, c=args.c),
        n_points=args.n,
        t_start=args.t_start,
        t_step=args.step,
        noise_sd=args.noise,
        seed=args.seed,
    )
    ts = generate(spec)
    print("label,value", file=stdout)
    for label, value in zip(ts.labels, ts.values):
        print(f"{label},{repr(value)}", file=stdout)
    return 0


def _cmd_bench(args, stdin, stdout) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {args.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.config}: invalid JSON: {exc}") from None
    try:
        spec_items = config["specs"]
        truncations = config["truncations"]
    except (KeyError, TypeError):
        raise ParseError(f"{args.config}: config needs 'specs' and 'truncations'") from None
    for key, value in (("specs", spec_items), ("truncations", truncations)):
        if not isinstance(value, list):
            raise ParseError(f"{args.config}: '{key}' must be a list, got {json.dumps(value)}")
    specs = []
    for i, item in enumerate(spec_items):
        try:
            params = LogisticParams(
                u_max=float(item["u_max"]), a=float(item["a"]), c=float(item["c"])
            )
            # the keys given, as given: GenSpec alone holds the defaults and checks
            given = {k: item[k] for k in ("t_start", "t_step", "noise_sd", "seed") if k in item}
            specs.append(GenSpec(params=params, n_points=item["n_points"], **given))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{args.config}: bad spec at index {i}: {exc}") from None
    rows = benchmark_estimators(specs, truncations)
    if args.format == "json":
        print(json.dumps(rows, indent=2), file=stdout)
        return 0
    writer = _csv.writer(stdout, lineterminator="\n")
    # the header is literal: a table can have no rows
    writer.writerow(["spec_index", "u_max", "n_points", "truncation", "method", "u_max_hat", "rel_error", "status"])
    for row in rows:
        writer.writerow(
            "" if v is None else _fmt(v, args.digits) if isinstance(v, float) else v for v in row.values()
        )
    return 0


def _cmd_fixtures(args, stdin, stdout) -> int:
    fixture = get_fixture(args.name)
    print("label,value", file=stdout)
    for label, value in zip(fixture.series.labels, fixture.series.values):
        print(f"{label},{_csv_cell(value)}", file=stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=10, help="significant digits for numeric output (default 10)")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("csv", nargs="?", default=None, help="input CSV (label,value); '-' or absent reads stdin")
    data.add_argument("--fixture", choices=FIXTURE_NAMES, help="use an embedded dataset instead of a file")
    data.add_argument("--kind", choices=SERIES_KINDS, help="how to interpret CSV values (default raw)")
    data.add_argument("--cumulate", action="store_true", help="prefix-sum the series before processing")

    parser = argparse.ArgumentParser(
        prog="logistic-horizon",
        description="Estimate the saturation level of a logistic trend from early observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eulerian", parents=[common], help="print Eulerian-number rows 0..N")
    p.set_defaults(run=_cmd_eulerian)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("roots", parents=[common], help="roots of the derivative polynomial of the given order")
    p.set_defaults(run=_cmd_roots)
    p.add_argument("--order", type=int, required=True, help=f"order N of P_N, 2 to {MAX_DERIV_ORDER + 1}")

    p = sub.add_parser("analyze", parents=[common, data], help="difference table and characteristic point")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("--diff", choices=("scd", "sld"), default="scd")
    p.add_argument("--policy", choices=POLICIES, default="first-local-max")

    p = sub.add_parser("estimate", parents=[common, data], help="estimate the saturation level")
    p.set_defaults(run=_cmd_estimate)
    p.add_argument("--method", choices=METHODS, default="scd")
    p.add_argument("--n", type=int, default=None, help="derivative order for --method order-n")
    p.add_argument("--constant", choices=("exact", "paper"), help="characteristic constant mode (default exact)")
    p.add_argument("--policy", choices=POLICIES, help="detection policy of scd, sld and order-n (default first-local-max)")
    p.add_argument("--degree", type=int, default=None, help="polynomial degree for --method polyfit (default 4)")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("fit", parents=[common, data], help="full logistic fit by nonlinear least squares")
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("simulate", parents=[common], help="emit a synthetic logistic series as CSV")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--umax", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.0, help="additive Gaussian noise standard deviation")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", parents=[common], help="benchmark estimators on synthetic series")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--config", required=True, help="JSON file with 'specs' and 'truncations'")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("fixtures", parents=[common], help="print an embedded dataset as CSV")
    p.set_defaults(run=_cmd_fixtures)
    p.add_argument("--name", required=True, help=f"one of: {', '.join(FIXTURE_NAMES)}")

    return parser


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not 1 <= args.digits <= 17:
            raise DomainError(f"display digits must lie in [1, 17], got {args.digits}")
        return args.run(args, stdin, stdout)
    except LogisticHorizonError as exc:
        print(f"error: {exc}", file=stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
