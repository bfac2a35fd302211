"""The README's library example runs as shown, without a warning, and
every command of its command-line block exits 0."""

import contextlib
import io
import re
import shlex
import warnings
from pathlib import Path

import pytest

from logistic_horizon import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_quick_start_runs_without_warnings():
    blocks = _blocks("python")
    assert len(blocks) == 1
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(blocks[0], str(README), "exec"), {})
    sld, label, nlls = out.getvalue().split()
    assert (round(float(sld), 2), label, round(float(nlls), 2)) == (435.35, "11/09", 442.16)


def _cli_commands():
    """The argv of each command in the sh block under "Command line"."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line$.*?^```sh\n(.*?)^```$", text, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("logistic-horizon ")]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    return cli.run(argv, stdout=out, stderr=err), out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _cli_commands(), ids=" ".join)
def test_readme_command_line_runs_as_shown(argv, tmp_path):
    # data.csv holds levels where the command reads it as cumulative, raw counts otherwise
    fixture = "loyalty-tnlc-window" if "cumulative" in argv else "loyalty-nlc"
    files = {
        "data.csv": _run(["fixtures", "--name", fixture])[1],
        "bench.json": _blocks("json")[0],
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = _run(argv)
    assert (rc, err) == (0, "")
    assert out
    # bench's one documented warning: estimates at or below the data's maximum
    assert [w.category for w in caught] == [RuntimeWarning] * (argv[0] == "bench")
