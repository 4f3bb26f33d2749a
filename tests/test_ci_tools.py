"""The two scripts the CI workflow gates on, run as it runs them: from the
root of the checkout, as subprocesses.

``.github/known_failures.py`` passes a JUnit report only when its failed
tests are exactly acceptance criteria 5 and 6; ``.github/code_lines.py``
counts the lines of a file that hold code; ``.github/bench_pairs.py`` runs
alternated benchmark pairs of two checkouts.
"""

import importlib.util
import json
import random
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


# A stand-in for perfbench/run.py: logs its tree, the length of its padding
# variable and its arguments to runs.log beside the trees, and reports
# arrivals_per_s = BASE + its tree's run count, save LOSS on its third run.
FAKE_RUN = '''import json, os, sys
from pathlib import Path
tree = Path.cwd()
log = tree.parent / "runs.log"
runs = log.read_text().split("\\n") if log.exists() else []
index = sum(1 for line in runs if line.startswith(tree.name + " "))
with log.open("a") as fh:
    fh.write(f"{tree.name} {len(os.environ['BENCH_PAIRS_PAD'])} {' '.join(sys.argv[1:])}\\n")
rate = LOSS if index == 2 and LOSS else BASE + index
print(f"arrivals_per_s {rate!r} 1/s")
print(f"setup_wall_s {0.5 + index} s")
print(json.dumps({"correct": CORRECT, "attempted": 1, "failed": 0, "metrics": {
    "arrivals_per_s": {"value": rate, "unit": "1/s"},
    "embed_p90_ms": {"value": P90, "unit": "ms"}}}))
sys.exit(0 if CORRECT else 1)
'''
SPEC = {"end_to_end": [{"name": "arrivals_per_s", "better": "higher"},
                       {"name": "embed_p90_ms", "better": "lower"},
                       {"name": "setup_s", "better": "lower"}]}


def fake_tree(root: Path, name: str, base, loss, p90, correct=True) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    source = (FAKE_RUN.replace("BASE", repr(base)).replace("LOSS", repr(loss))
              .replace("P90", repr(p90)).replace("CORRECT", repr(correct)))
    (tree / "perfbench" / "run.py").write_text(source)
    (tree / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return tree


def test_bench_pairs_alternates_pads_and_counts_wins(tmp_path):
    parent = fake_tree(tmp_path, "parent", 100.0, None, 2.0)
    change = fake_tree(tmp_path, "change", 110.0, 50.0, 1.0)
    proc = run_script("bench_pairs.py", parent, change, "--workload", "w", "--seed", 5,
                      "--seconds", 0.5, "--pairs", 4)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    rng = random.Random(5)
    pads = [rng.randrange(4097) for _ in range(4)]
    assert out["pad_lengths"] == pads and out["correct"] is True
    log = [line.split(" ", 2) for line in (tmp_path / "runs.log").read_text().splitlines()]
    assert [name for name, _, _ in log] == ["parent", "change", "change", "parent"] * 2
    assert [int(pad) for _, pad, _ in log] == [p for p in pads for _ in range(2)]
    assert {argv for _, _, argv in log} == {"--workload w --seed 5 --seconds 0.5 --trace 0"}
    metrics = out["metrics"]
    assert set(metrics) == {"arrivals_per_s", "embed_p90_ms", "setup_wall_s"}
    rate = metrics["arrivals_per_s"]
    assert rate["parent"] == [100.0, 101.0, 102.0, 103.0]
    assert rate["change"] == [110.0, 111.0, 50.0, 113.0]
    assert rate["parent_median"] == 101.5 and rate["change_median"] == 110.5
    assert rate["parent_q1_q3"] == [100.75, 102.25]
    assert rate["change_better_pairs"] == 3 and rate["median_gap_exceeds_parent_iqr"]
    p90 = metrics["embed_p90_ms"]
    assert p90["change_better_pairs"] == 4 and p90["median_gap_exceeds_parent_iqr"]
    wall = metrics["setup_wall_s"]
    assert wall["parent"] == wall["change"] == [0.5, 1.5, 2.5, 3.5]
    assert wall["change_better_pairs"] == 0 and not wall["median_gap_exceeds_parent_iqr"]


def test_bench_pairs_fails_when_a_run_is_not_correct(tmp_path):
    parent = fake_tree(tmp_path, "parent", 100.0, None, 2.0)
    change = fake_tree(tmp_path, "change", 110.0, None, 1.0, correct=False)
    proc = run_script("bench_pairs.py", parent, change, "--workload", "w", "--pairs", 2,
                      "--seconds", 0.5)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["correct"] is False
    assert run_script("bench_pairs.py", parent, change, "--workload", "w",
                      "--pairs", 1).returncode == 2
