"""The two scripts the CI workflow gates on, run as it runs them: from the
root of the checkout, as subprocesses.

``.github/known_failures.py`` passes a JUnit report only when its failed
tests are exactly acceptance criteria 5 and 6; ``.github/code_lines.py``
counts the lines of a file that hold code.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CRITERION_5 = ('<testcase classname="tests.test_acceptance" '
               'name="test_criterion_5_acceptance_ordering"><failure message="x"/></testcase>')
CRITERION_6 = ('<testcase classname="tests.test_acceptance" '
               'name="test_criterion_6_rc_ratio_gap"><failure message="x"/></testcase>')
PASSED_6 = '<testcase classname="tests.test_acceptance" name="test_criterion_6_rc_ratio_gap"/>'
PASSED = '<testcase classname="tests.test_pso.TestOperators" name="test_subtract_indicator"/>'
FAILED = ('<testcase classname="tests.test_pso.TestOperators" '
          'name="test_subtract_indicator"><failure message="x"/></testcase>')
ERRORED = ('<testcase classname="tests.test_generate" '
           'name="test_default_substrate_shape"><error message="x"/></testcase>')


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / ".github" / name), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)


def junit(*cases: str) -> str:
    return ('<?xml version="1.0" encoding="utf-8"?><testsuites>'
            f'<testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')


@pytest.mark.parametrize("cases, code", [
    ((PASSED, CRITERION_5, CRITERION_6), 0),
    ((FAILED, CRITERION_5, CRITERION_6), 1),
    ((PASSED, ERRORED, CRITERION_5, CRITERION_6), 1),
    ((PASSED, CRITERION_5, PASSED_6), 1),
    ((), 1),
], ids=["only-known", "extra-failure", "error", "known-passes", "empty"])
def test_known_failures_passes_exactly_criteria_5_and_6(tmp_path, cases, code):
    report = tmp_path / "tier1.xml"
    report.write_text(junit(*cases))
    proc = run_script("known_failures.py", report)
    assert proc.returncode == code, proc.stdout + proc.stderr
    if code:
        assert "does not match the known failures" in proc.stdout
    else:
        assert "only the known failures" in proc.stdout
    assert ("holds no test case" in proc.stdout) == (not cases)


def test_known_failures_rejects_an_empty_report_with_no_known_failure(tmp_path, monkeypatch):
    """With ``KNOWN`` emptied, no known failure passing is left to fail an
    empty report: only the script's own check that the report holds a test
    case does."""
    spec = importlib.util.spec_from_file_location("known_failures",
                                                  ROOT / ".github" / "known_failures.py")
    known_failures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(known_failures)
    monkeypatch.setattr(known_failures, "KNOWN", set())
    report = tmp_path / "tier1.xml"
    report.write_text(junit())
    assert known_failures.main(str(report)) == 1
    report.write_text(junit(PASSED))
    assert known_failures.main(str(report)) == 0


def test_known_failures_names_the_new_and_the_fixed_test(tmp_path):
    report = tmp_path / "tier1.xml"
    report.write_text(junit(FAILED, CRITERION_5, PASSED_6))
    out = run_script("known_failures.py", report).stdout
    assert "new failure: tests/test_pso.py::TestOperators::test_subtract_indicator" in out
    assert ("known failure now passes, drop it from KNOWN: "
            "tests/test_acceptance.py::test_criterion_6_rc_ratio_gap") in out


# Counted lines: 5, 7, 10, 11, 14, 15, 16 and 17.
FIXTURE = '''"""A module docstring
over two lines."""

# A comment-only line.
import os

x = 1  # a trailing comment


def f(a,
      b):
    """A docstring of one line."""
    # A comment inside a function.
    y = """a string that is not
    a docstring"""
    return (a +
            b + len(y) + len(os.sep))
'''


def test_code_lines_counts_lines_that_hold_code(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "blank.py").write_text("\n\n# Only a comment.\n")
    proc = run_script("code_lines.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    counts = [line.split() for line in proc.stdout.splitlines()]
    assert counts == [["0", (tmp_path / "blank.py").as_posix()],
                      ["8", (tmp_path / "fixture.py").as_posix()],
                      ["8", "total"]]
