"""Command-line interface.

Subcommands mirror the library: eulerian (print the triangle), roots
(roots of a derivative polynomial), analyze (difference table plus
characteristic point), estimate (saturation level by any method), fit
(full logistic fit), simulate (synthetic CSV), bench (estimator error
table), fixtures (dump an embedded dataset).

Exit codes: 0 success, 1 domain or parse errors, 2 usage errors.
Numeric display defaults to 10 significant digits; override with
--digits or the LOGISTIC_HORIZON_DIGITS environment variable.
"""

from __future__ import annotations

import argparse
import csv as _csv
import json
import math
import os
import re
import sys

from .derivpoly import poly_roots
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

_ENV_DIGITS = "LOGISTIC_HORIZON_DIGITS"
_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _display_float(x: float, digits: int) -> float:
    return float(_fmt(x, digits))


def _resolve_digits(args) -> int:
    if getattr(args, "digits", None) is not None:
        digits = args.digits
    else:
        env = os.environ.get(_ENV_DIGITS)
        if env is not None:
            try:
                digits = int(env)
            except ValueError:
                raise DomainError(f"{_ENV_DIGITS} must be an integer, got {env!r}") from None
        else:
            digits = 10
    if not 1 <= digits <= 17:
        raise DomainError(f"display digits must lie in [1, 17], got {digits}")
    return digits


def read_csv_series(lines, source: str, kind: str = "raw") -> TimeSeries:
    """Parse label,value rows into a series.

    A first line exactly 'label,value' (any case) is treated as a
    header.  Values must be plain decimal numbers: no thousands
    separators, no underscores, no nan/inf.
    """
    labels = []
    values = []
    first_content = True
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if first_content:
            first_content = False
            if line.lower().replace(" ", "") == "label,value":
                continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(
                f"{source}: line {lineno}: expected two comma-separated columns, got {len(parts)}",
                line=lineno,
            )
        label = parts[0].strip()
        value_text = parts[1].strip()
        if not _NUMBER_RE.fullmatch(value_text):
            raise ParseError(
                f"{source}: line {lineno}: not a plain decimal number: {value_text!r}",
                line=lineno,
            )
        labels.append(label)
        values.append(float(value_text))
    if len(values) < 3:
        raise ParseError(f"{source}: need at least 3 data rows, got {len(values)}")
    return TimeSeries(labels=tuple(labels), values=tuple(values), kind=kind)


def read_csv(path: str, kind: str = "raw") -> TimeSeries:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_csv_series(fh, path, kind)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_series(args, stdin) -> TimeSeries:
    fixture = getattr(args, "fixture", None)
    path = getattr(args, "csv", None)
    if fixture and path:
        raise DomainError("give either a CSV path or --fixture, not both")
    if fixture:
        ts = get_fixture(fixture).series
    elif path is None or path == "-":
        ts = read_csv_series(stdin, "<stdin>", args.kind)
    else:
        ts = read_csv(path, args.kind)
    return cumulate(ts) if args.cumulate else ts


# ---------------------------------------------------------------- commands


def _cmd_eulerian(args, stdin, stdout, digits) -> int:
    if args.n < 0:
        raise DomainError(f"--n must be >= 0, got {args.n}")
    for n in range(args.n + 1):
        print("\t".join(str(v) for v in eulerian_row(n)), file=stdout)
    return 0


def _cmd_roots(args, stdin, stdout, digits) -> int:
    if args.order < 2:
        raise DomainError(f"--order must be >= 2, got {args.order}")
    roots = poly_roots(args.order - 1)
    print(", ".join(_fmt(r, digits) for r in roots), file=stdout)
    return 0


def _diff_of(args, ts):
    return second_left_diff(ts) if args.diff == "sld" else second_central_diff(ts)


def _print_point(point: CharacteristicPoint, stdout, digits, prefix="characteristic point"):
    print(
        f"{prefix}: index {point.index}, label {point.label}, "
        f"diff {_fmt(point.diff_value, digits)}, value {_fmt(point.series_value, digits)}, "
        f"policy {point.policy_used}",
        file=stdout,
    )
    if point.ambiguity:
        rivals = "; ".join(f"index {i} (diff {_fmt(v, digits)})" for i, v in point.ambiguity)
        print(f"ambiguous with: {rivals}", file=stdout)


def _cmd_analyze(args, stdin, stdout, digits) -> int:
    ts = _load_series(args, stdin)
    ds = _diff_of(args, ts)
    print("label\tt\tvalue\tdiff", file=stdout)
    for i, (label, v, d) in enumerate(zip(ts.labels, ts.values, ds.values)):
        cell = "" if d is None else _fmt(d, digits)
        print(f"{label}\t{i}\t{_fmt(v, digits)}\t{cell}", file=stdout)
    try:
        point = find_characteristic_point(ds, args.policy)
    except CharacteristicPointNotFound as exc:
        print(f"no characteristic point: {exc}", file=stdout)
        if exc.fallback is not None:
            _print_point(exc.fallback, stdout, digits, prefix="global-max fallback")
        return 0
    _print_point(point, stdout, digits)
    return 0


def _cmd_estimate(args, stdin, stdout, digits) -> int:
    if args.method == "order-n" and args.n is None:
        raise DomainError("--method order-n requires --n")
    ts = _load_series(args, stdin)
    mode = "paper-rounded" if args.constant == "paper" else args.constant
    est = run_method(args.method, ts, args.n, args.degree, mode, args.policy)
    scale = abs(ts.array).max()
    exact = est.u_max_hat
    if scale >= 1000:
        display = math.trunc(exact)
    else:
        display = _display_float(exact, digits)
    point = est.char_point
    payload = {
        "method": est.method,
        "u_max_hat": display,
        "u_max_hat_exact": exact,
        "constant_used": None if est.constant_used is None else _display_float(est.constant_used, digits),
        "char_index": None if point is None else point.index,
        "char_label": None if point is None else point.label,
        "char_value": None if point is None else point.series_value,
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


def _cmd_fit(args, stdin, stdout, digits) -> int:
    ts = _load_series(args, stdin)
    params, _rmse = fit_logistic_nlls(ts)
    payload = {
        "u_max": _display_float(params.u_max, digits),
        "a": _display_float(params.a, digits),
        "c": _display_float(params.c, digits),
    }
    print(json.dumps(payload, indent=2), file=stdout)
    return 0


def _csv_cell(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _cmd_simulate(args, stdin, stdout, digits) -> int:
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


def _cmd_bench(args, stdin, stdout, digits) -> int:
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
    header = ["spec_index", "u_max", "n_points", "truncation", "method", "u_max_hat", "rel_error", "status"]
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [
                row["spec_index"],
                _fmt(row["u_max"], digits),
                row["n_points"],
                row["truncation"],
                row["method"],
                "" if row["u_max_hat"] is None else _fmt(row["u_max_hat"], digits),
                "" if row["rel_error"] is None else _fmt(row["rel_error"], digits),
                row["status"],
            ]
        )
    return 0


def _cmd_fixtures(args, stdin, stdout, digits) -> int:
    fixture = get_fixture(args.name)
    print("label,value", file=stdout)
    for label, value in zip(fixture.series.labels, fixture.series.values):
        print(f"{label},{_csv_cell(value)}", file=stdout)
    return 0


_COMMANDS = {
    "eulerian": _cmd_eulerian,
    "roots": _cmd_roots,
    "analyze": _cmd_analyze,
    "estimate": _cmd_estimate,
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
    "fixtures": _cmd_fixtures,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=None, help="significant digits for numeric output (default 10)")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("csv", nargs="?", default=None, help="input CSV (label,value); '-' or absent reads stdin")
    data.add_argument("--fixture", choices=FIXTURE_NAMES, help="use an embedded dataset instead of a file")
    data.add_argument("--kind", choices=SERIES_KINDS, default="raw", help="how to interpret CSV values")
    data.add_argument("--cumulate", action="store_true", help="prefix-sum the series before processing")

    parser = argparse.ArgumentParser(
        prog="logistic-horizon",
        description="Estimate the saturation level of a logistic trend from early observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eulerian", parents=[common], help="print Eulerian-number rows 0..N")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("roots", parents=[common], help="roots of the derivative polynomial of the given order")
    p.add_argument("--order", type=int, required=True, help="polynomial order (2 or more)")

    p = sub.add_parser("analyze", parents=[common, data], help="difference table and characteristic point")
    p.add_argument("--diff", choices=("scd", "sld"), default="scd")
    p.add_argument("--policy", choices=POLICIES, default="first-local-max")

    p = sub.add_parser("estimate", parents=[common, data], help="estimate the saturation level")
    p.add_argument("--method", choices=METHODS, default="scd")
    p.add_argument("--n", type=int, default=None, help="derivative order for --method order-n")
    p.add_argument("--constant", choices=("exact", "paper"), default="exact", help="characteristic constant mode")
    p.add_argument("--policy", choices=POLICIES, default="first-local-max")
    p.add_argument("--degree", type=int, default=4, help="polynomial degree for --method polyfit")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("fit", parents=[common, data], help="full logistic fit by nonlinear least squares")

    p = sub.add_parser("simulate", parents=[common], help="emit a synthetic logistic series as CSV")
    p.add_argument("--umax", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.0, help="additive Gaussian noise standard deviation")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", parents=[common], help="benchmark estimators on synthetic series")
    p.add_argument("--config", required=True, help="JSON file with 'specs' and 'truncations'")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("fixtures", parents=[common], help="print an embedded dataset as CSV")
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
        digits = _resolve_digits(args)
        return _COMMANDS[args.command](args, stdin, stdout, digits)
    except LogisticHorizonError as exc:
        print(f"error: {exc}", file=stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
