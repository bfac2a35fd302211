import sys

from hypothesis import settings

# The one place that sets the property tests' budget: 150 examples each,
# no deadline and no example database. `pytest --hypothesis-profile=thorough`
# draws 2000, with the same settings otherwise; hypothesis's pytest plugin
# loads that option after this initial conftest, so it wins.
settings.register_profile("default", max_examples=150, deadline=None, database=None)
settings.register_profile("thorough", max_examples=2000, deadline=None, database=None)
settings.load_profile("default")


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion, shown on every run
    that executed the acceptance module (capture-proof)."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "CRITERION_RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, ok in sorted(results):
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{word}] criterion {num:2d}: {label}")
