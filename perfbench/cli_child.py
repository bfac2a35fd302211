"""Run one CLI command with trace spans, for the traced cli-oneshot run.

    python perfbench/cli_child.py estimate --fixture NAME --method scd

Prints one JSON object: the CLI's own stdout, the import and run times
in ms, this process's busy time in s, and the spans of its calls.
"""

import time

_START = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

t0 = time.perf_counter()
import logistic_horizon.cli as cli  # noqa: E402

import_ms = 1000.0 * (time.perf_counter() - t0)

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
out, err = io.StringIO(), io.StringIO()
t0 = time.perf_counter()
code = cli.run(sys.argv[1:], stdout=out, stderr=err)
run_ms = 1000.0 * (time.perf_counter() - t0)
tracer.uninstall()
if code:
    sys.stderr.write(err.getvalue())
    sys.exit(code)
report = {
    "stdout": out.getvalue(),
    "import_ms": import_ms,
    "run_ms": run_ms,
    "spans": tracer.spans,
}
report["busy_s"] = time.perf_counter() - _START
print(json.dumps(report))
