"""Command-line interface: parsing, formatting, exit codes."""

import io
import json
import warnings

import pytest

from logistic_horizon import GenSpec, LogisticParams, ParseError, generate, get_fixture
from logistic_horizon import cli
from logistic_horizon.cli import read_csv_series, run


def _run(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(stdin_text) if stdin_text is not None else None
    rc = run(argv, stdin=stdin, stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def test_eulerian_rows():
    rc, out, err = _run(["eulerian", "--n", "3"])
    assert rc == 0 and err == ""
    assert out.splitlines() == ["1", "1\t0", "1\t1\t0", "1\t4\t1\t0"]
    assert _run(["eulerian", "--n", "-1"]) == (1, "", "error: --n must be >= 0, got -1\n")


def test_roots_line():
    rc, out, _ = _run(["roots", "--order", "4"])
    assert rc == 0
    assert out == "0, 0.2113248654, 0.7886751346, 1\n"


def test_digits_flag():
    rc, out, _ = _run(["roots", "--order", "4", "--digits", "3"])
    assert rc == 0 and out == "0, 0.211, 0.789, 1\n"
    for digits in ("0", "18"):
        expected = f"error: display digits must lie in [1, 17], got {digits}\n"
        assert _run(["roots", "--order", "4", "--digits", digits]) == (1, "", expected)


def test_estimate_json_payload():
    rc, out, err = _run(["estimate", "--fixture", "loyalty-tnlc-window", "--constant", "paper"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert list(payload) == [
        "method",
        "u_max_hat",
        "u_max_hat_exact",
        "constant_used",
        "char_index",
        "char_label",
        "char_value",
        "char_rivals",
        "diagnostics",
    ]
    assert payload["u_max_hat"] == 477611
    assert isinstance(payload["u_max_hat"], int)
    assert payload["u_max_hat_exact"] == 477611.374407583
    assert payload["constant_used"] == 0.211
    assert payload["char_label"] == "08/12"
    assert payload["char_rivals"] == [[4, 291.5], [7, -97.5]]
    assert list(payload["diagnostics"]) == ["constant_mode", "policy", "exceeds_max_observed"]


def test_estimate_text_format():
    rc, out, _ = _run(
        ["estimate", "--fixture", "loyalty-tnlc-window", "--constant", "paper", "--format", "text"]
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "method: scd"
    assert "u_max_hat: 477611" in lines
    assert "char_label: 08/12" in lines
    assert "char_rivals: [[4, 291.5], [7, -97.5]]" in lines


def test_estimate_small_scale_keeps_fraction():
    rc, out, _ = _run(["estimate", "--fixture", "mobile-germany", "--constant", "paper"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["u_max_hat"] == pytest.approx(1.327014218)
    assert not isinstance(payload["u_max_hat"], int)


def test_estimate_medical_decline_policy():
    rc, out, _ = _run(
        [
            "estimate",
            "--fixture",
            "medical-qmd",
            "--cumulate",
            "--method",
            "sld",
            "--policy",
            "last-local-max-before-decline",
            "--constant",
            "paper",
        ]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["u_max_hat_exact"] == 436.01895734597156
    assert payload["char_value"] == 92.0


def test_estimate_nlls_method():
    rc, out, _ = _run(["estimate", "--fixture", "loyalty-tnlc-window", "--method", "nlls"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["method"] == "nlls"
    assert payload["u_max_hat"] == 184655
    assert payload["char_index"] is None and payload["char_rivals"] is None
    assert payload["diagnostics"]["converged"] is True


@pytest.mark.filterwarnings("ignore:estimated saturation level:RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [["estimate", "--method", "polyfit", "--degree", "6"], ["estimate", "--method", "nlls"], ["fit"]],
    ids=["polyfit", "nlls", "fit"],
)
def test_estimate_on_a_raw_csv_needs_levels(argv):
    csv = "".join(f"{i},{v}\n" for i, v in enumerate((1, 3, 8, 20, 41, 60, 72, 78, 80)))
    rc, out, err = _run([*argv, "-"], stdin_text=csv)
    assert (rc, out) == (1, "")
    assert err == "error: estimators need a cumulative (level) series; cumulate raw counts first\n"
    for flags in (["--kind", "cumulative"], ["--cumulate"]):
        rc, out, _ = _run([*argv, "-", *flags], stdin_text=csv)
        payload = json.loads(out)
        assert rc == 0 and (list(payload) == ["u_max", "a", "c"] if argv == ["fit"] else payload["method"] == argv[2])


def test_estimate_refuses_a_level_out_of_float_range():
    levels = "a,0\nb,1e307\nc,5e307\nd,1.6e308\ne,1.7e308\nf,1.75e308\n"
    got = _run(["estimate", "--kind", "cumulative"], levels)
    assert got == (1, "", "error: estimated saturation level inf is not finite\n")


def test_estimate_order_n_requires_n():
    rc, _, err = _run(["estimate", "--fixture", "loyalty-tnlc-window", "--method", "order-n"])
    assert rc == 1
    assert "requires --n" in err


class _UnreadableStdin:
    def __iter__(self):
        raise AssertionError("stdin was read")


def test_estimate_order_n_checks_n_before_reading_input(tmp_path):
    for source in ([], [str(tmp_path / "missing.csv")]):
        out, err = io.StringIO(), io.StringIO()
        argv = ["estimate", *source, "--method", "order-n"]
        assert run(argv, stdin=_UnreadableStdin(), stdout=out, stderr=err) == 1
        assert err.getvalue() == "error: --method order-n requires --n\n"
        assert out.getvalue() == ""


def test_analyze_table_and_point():
    rc, out, _ = _run(["analyze", "--fixture", "loyalty-tnlc-window"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "label\tt\tvalue\tdiff"
    assert lines[1] == "05/12\t0\t85305\t"
    assert lines[8] == "12/12\t7\t121520\t-97.5"
    assert lines[10] == "14/12\t9\t129689\t"
    assert lines[11] == (
        "characteristic point: index 3, label 08/12, diff 358, "
        "value 100776, policy first-local-max"
    )
    assert lines[12] == "ambiguous with: index 4 (diff 291.5); index 7 (diff -97.5)"


def test_analyze_not_found_still_exits_zero():
    csv = "label,value\n" + "".join(f"{t},{t * t}\n" for t in range(8))
    rc, out, _ = _run(["analyze", "-", "--kind", "cumulative"], stdin_text=csv)
    assert rc == 0
    assert "no characteristic point:" in out
    assert "global-max fallback: index 1" in out


def test_csv_parse_errors():
    rc, _, err = _run(["analyze", "-"], stdin_text="label,value\n")
    assert rc == 1 and "need at least 3 data rows" in err
    rc, _, err = _run(["analyze", "-"], stdin_text="label,value\na,1 234\nb,2\nc,3\n")
    assert rc == 1 and "line 2" in err and "1 234" in err
    rc, _, err = _run(["analyze", "-"], stdin_text="a,1\nb\nc,3\n")
    assert rc == 1 and "got 1" in err
    rc, _, err = _run(["analyze", "/no/such/file.csv"])
    assert rc == 1 and err.startswith("error:")


def test_csv_value_out_of_float_range_names_its_line():
    # with a header, the bad value is on line 3, not at series index 1
    for text in ("1e999", "-1e999"):
        csv = f"label,value\na,1\nb,{text}\nc,3\n"
        rc, out, err = _run(["analyze", "-", "--kind", "cumulative"], stdin_text=csv)
        assert (rc, out) == (1, "")
        assert err == f"error: <stdin>: line 3: '{text}' is out of float range\n"
    with pytest.raises(ParseError, match=r"^test: line 2: '1e999' is out of float range$"):
        read_csv_series(["a,1", "b,1e999", "c,3"], "test", "raw")


def test_estimate_reads_a_csv_file(tmp_path):
    _, csv, _ = _run(["fixtures", "--name", "loyalty-tnlc-window"])
    path = tmp_path / "window.csv"
    path.write_text(csv)
    want = _run(["estimate", "--fixture", "loyalty-tnlc-window"])
    assert want[0] == 0 and want[2] == ""
    assert _run(["estimate", str(path), "--kind", "cumulative"]) == want


def test_csv_blank_lines_are_skipped():
    _, csv, _ = _run(["fixtures", "--name", "loyalty-tnlc-window"])
    lines = csv.splitlines(keepends=True)
    gappy = "".join(["\n", lines[0], "\n", *lines[1:4], "  \n", *lines[4:]])
    want = _run(["analyze", "--fixture", "loyalty-tnlc-window"])
    assert want[0] == 0 and want[2] == ""
    assert _run(["analyze", "-", "--kind", "cumulative"], stdin_text=gappy) == want


def test_read_csv_series_rejects_special_floats():
    for bad in ("nan", "inf", "-inf", "1_000", "0x10"):
        lines = ["label,value", f"a,{bad}", "b,1", "c,2"]
        with pytest.raises(ParseError):
            read_csv_series(lines, "test", "raw")


def test_read_csv_series_header_optional():
    ts = read_csv_series(["a,1", "b,2", "c,3"], "test", "raw")
    assert ts.values == (1.0, 2.0, 3.0)
    ts = read_csv_series(["Label , Value", "a,1", "b,2", "c,3"], "test", "raw")
    assert ts.labels == ("a", "b", "c")


def test_simulate_round_trips_through_fit():
    rc, out, _ = _run(
        ["simulate", "--umax", "7", "--a", "17", "--c", "1.5", "--n", "21", "--step", "0.5"]
    )
    assert rc == 0
    assert out.splitlines()[0] == "label,value"
    assert out.splitlines()[1] == "0,0.3888888888888889"
    rc, fit_out, _ = _run(["fit", "-", "--kind", "cumulative"], stdin_text=out)
    assert rc == 0
    fitted = json.loads(fit_out)
    assert list(fitted) == ["u_max", "a", "c"]
    assert fitted["u_max"] == pytest.approx(7.0, rel=1e-9)
    assert fitted["a"] == pytest.approx(17.0, rel=1e-9)
    assert fitted["c"] == pytest.approx(0.75, rel=1e-9)


def test_simulate_noise_deterministic():
    argv = [
        "simulate", "--umax", "7", "--a", "17", "--c", "1.5",
        "--n", "10", "--noise", "0.05", "--seed", "42",
    ]
    rc1, out1, _ = _run(argv)
    rc2, out2, _ = _run(argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_fixtures_output():
    rc, out, _ = _run(["fixtures", "--name", "loyalty-nlc"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "label,value"
    assert len(lines) == 106
    assert lines[1] == "48/11,7236"
    rc, out, _ = _run(["fixtures", "--name", "medical-qmd"])
    assert len(out.splitlines()) == 35
    # non-integer cells print as the shortest repr of the float
    germany = (
        0.05, 0.07, 0.10, 0.17, 0.28, 0.58, 0.67, 0.71, 0.77,
        0.85, 0.95, 1.02, 1.15, 1.27, 1.26, 1.06, 1.10, 1.12,
    )
    rc, out, err = _run(["fixtures", "--name", "mobile-germany"])
    assert (rc, err) == (0, "")
    assert out == "label,value\n" + "".join(f"{y},{v!r}\n" for y, v in zip(range(1995, 2013), germany))
    assert out.splitlines()[3] == "1997,0.1"
    rc, out, err = _run(["fixtures", "--name", "nope"])
    assert (rc, out) == (1, "")
    assert err == (
        "error: unknown fixture 'nope'; available: loyalty-nlc, loyalty-tnlc-window, "
        "mobile-germany, mobile-slovakia, medical-qmd\n"
    )


def test_fixtures_cumulation_matches_window():
    rc, out, _ = _run(["fixtures", "--name", "loyalty-nlc"])
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    running = 0.0
    cum = []
    for v in values:
        running += v
        cum.append(running)
    window = get_fixture("loyalty-tnlc-window").series
    assert tuple(cum[9:19]) == window.values


def test_bench_csv_and_determinism(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(
        json.dumps(
            {"specs": [{"u_max": 1000, "a": 200, "c": 0.4, "n_points": 41}], "truncations": [9, 13]}
        )
    )
    rc1, out1, _ = _run(["bench", "--config", str(config)])
    rc2, out2, _ = _run(["bench", "--config", str(config)])
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "spec_index,u_max,n_points,truncation,method,u_max_hat,rel_error,status"
    assert len(lines) == 9
    # one rule per cell: None is empty, a float prints at --digits, the rest as it is
    assert lines[1] == "0,1000,41,9,scd,,,not-found"
    assert lines[5] == "0,1000,41,13,scd,1014.780429,0.01478042917,ok"
    not_found = [l for l in lines if "not-found" in l]
    assert any(l.split(",")[4] == "scd" and l.split(",")[3] == "9" for l in not_found)
    rc, out_json, _ = _run(["bench", "--config", str(config), "--format", "json"])
    assert rc == 0
    rows = json.loads(out_json)
    assert len(rows) == 8
    assert {r["method"] for r in rows} == {"scd", "sld", "polyfit", "nlls"}


def test_bench_warns_once_per_run(tmp_path):
    spec = {"u_max": 1000, "a": 200, "c": 0.4, "n_points": 41, "noise_sd": 1, "seed": 3}
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"specs": [spec], "truncations": list(range(9, 42))}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, _ = _run(["bench", "--config", str(config), "--format", "json"])
    assert rc == 0
    values = generate(GenSpec(LogisticParams(1000, 200, 0.4), 41, noise_sd=1, seed=3)).values
    below = sum(
        r["u_max_hat"] is not None and r["u_max_hat"] <= max(values[: r["truncation"]])
        for r in json.loads(out)
    )
    assert below > 1
    assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, cli.__file__)]
    assert str(caught[0].message).endswith(f"largest observed value in {below} rows")


@pytest.mark.parametrize("fields", [{"n_points": 12.9}, {"n_points": 12, "seed": 1.7}])
def test_bench_refuses_fractional_integer_fields(tmp_path, fields):
    config = tmp_path / "bench.json"
    spec = {"u_max": 1000, "a": 200, "c": 0.4, **fields}
    config.write_text(json.dumps({"specs": [spec], "truncations": [9]}))
    rc, out, err = _run(["bench", "--config", str(config)])
    assert (rc, out) == (1, "")
    assert "bad spec at index 0" in err


def test_bench_config_errors(tmp_path):
    missing = tmp_path / "missing.json"
    rc, out, err = _run(["bench", "--config", str(missing)])
    assert (rc, out) == (1, "")
    assert err == f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    broken = tmp_path / "broken.json"
    broken.write_text("{specs: []}")
    rc, out, err = _run(["bench", "--config", str(broken)])
    assert (rc, out) == (1, "")
    assert err == (
        f"error: {broken}: invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n"
    )
    no_specs = tmp_path / "no_specs.json"
    no_specs.write_text(json.dumps({"truncations": [9]}))
    rc, out, err = _run(["bench", "--config", str(no_specs)])
    assert (rc, out) == (1, "")
    assert err == f"error: {no_specs}: config needs 'specs' and 'truncations'\n"
    not_a_list = tmp_path / "not_a_list.json"
    for config, key, got in (
        ({"specs": 5, "truncations": [9]}, "specs", "5"),
        ({"specs": [], "truncations": 9}, "truncations", "9"),
        ({"specs": [], "truncations": None}, "truncations", "null"),
    ):
        not_a_list.write_text(json.dumps(config))
        rc, out, err = _run(["bench", "--config", str(not_a_list)])
        assert (rc, out) == (1, "")
        assert err == f"error: {not_a_list}: '{key}' must be a list, got {got}\n"


def test_exit_codes():
    rc, _, _ = _run(["no-such-command"])
    assert rc == 2
    rc, _, err = _run(["estimate", "--fixture", "no-such-fixture"])
    assert rc == 2  # argparse rejects values outside the fixture choices
    rc, _, err = _run(["roots", "--order", "1"])
    assert rc == 1
    assert err.startswith("error:")


def test_fixture_and_path_are_exclusive():
    rc, _, err = _run(
        ["analyze", "some.csv", "--fixture", "loyalty-tnlc-window"]
    )
    assert rc == 1
    assert "error:" in err
    # a fixture carries its own kind: --kind beside it is refused, not dropped
    rc, out, err = _run(["estimate", "--fixture", "loyalty-nlc", "--kind", "cumulative"])
    assert (rc, out) == (1, "")
    assert err == "error: --kind is for CSV input: fixture loyalty-nlc is raw; --cumulate makes levels\n"
