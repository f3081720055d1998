import io
import sys

import pytest

from artinsplit.cli import main

_acceptance: dict[str, bool] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(label): end-to-end acceptance criterion, summarized at exit",
    )


def run_main(argv, text):
    """main(argv) with `text` on stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag with exit 2
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def run_cli():
    return run_main


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and rep.when == "call":
        _acceptance[marker.kwargs.get("label", item.name)] = rep.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(_acceptance):
        verdict = "PASS" if _acceptance[label] else "FAIL"
        terminalreporter.write_line(f"{label}: {verdict}")
