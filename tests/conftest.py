import sys

from hypothesis import settings

# The property tests draw 150 examples each;
# `pytest --hypothesis-profile=thorough` draws 2000, with the same
# settings otherwise.
settings.register_profile("thorough", max_examples=2000, deadline=None, database=None)


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
