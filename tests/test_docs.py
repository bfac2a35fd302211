"""The README's library example runs as shown, without a warning."""

import contextlib
import io
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_quick_start_runs_without_warnings():
    blocks = _python_blocks()
    assert len(blocks) == 1
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(blocks[0], str(README), "exec"), {})
    sld, label, nlls = out.getvalue().split()
    assert (round(float(sld), 2), label, round(float(nlls), 2)) == (435.35, "11/09", 442.16)
