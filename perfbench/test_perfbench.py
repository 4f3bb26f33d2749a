"""Tests of the benchmark itself, on tiny instances of each workload.

Run from the repository root with `python3 -m pytest -q perfbench`.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run as bench
from layers import SITES, Tracer
from reference import REFERENCE_MS
from workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
LIB = bench.load_library()


def tiny(name: str):
    return replace(WORKLOADS[name], horizon=150.0, instances=2, pinned={})


def site_bindings() -> dict:
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in SITES}


def test_spec_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(name):
    report = bench.measure(LIB, tiny(name), seed=3, seconds=0.1)
    assert report.correct and report.failed == 0 and report.attempted > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in report.metrics.items()} == want
    assert all(value > 0 for value, _ in report.metrics.values())
    assert report.printed["failed_frac"] == (0.0, "ratio")
    assert report.printed["embed_p50_ms"][0] > 0
    printed = {k: value for k, (value, _) in report.printed.items()}
    scale = REFERENCE_MS / printed["reference_ms"]
    assert printed["reference_samples"] >= tiny(name).instances
    assert report.metrics["embed_p90_ms"][0] == pytest.approx(printed["embed_p90_wall_ms"] * scale)
    assert report.metrics["arrivals_per_s"][0] == pytest.approx(printed["arrivals_per_wall_s"] / scale)
    assert report.metrics["setup_s"][0] == pytest.approx(printed["setup_wall_s"] * scale)
    last = json.loads(report.lines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_metrics_and_wrapper_removal(name):
    before = site_bindings()
    report = bench.trace_layers(LIB, tiny(name), seed=3)
    assert site_bindings() == before
    assert report.correct, report.notes
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in report.metrics.items()} == want
    metrics = {k: value for k, (value, _) in report.metrics.items()}
    assert metrics["validation.violations"] == 0
    assert metrics["simulation.embed_calls"] > 0
    if WORKLOADS[name].strategy == "greedy":
        assert metrics["pso.search_calls"] == 0
    else:
        assert metrics["pso.search_calls"] == metrics["simulation.embed_calls"]


def test_traced_run_matches_plain_run_and_repeats():
    wl = tiny("stec-bwbound")
    inst = bench.set_up(LIB, wl, 5, 0, bench.OUT / "test")
    plain = bench.simulate(LIB, wl, inst)
    tracer = Tracer()
    with tracer.installed():
        traced = bench.simulate(LIB, wl, inst, tracer)
    assert traced.digest == plain.digest
    assert bench.simulate(LIB, wl, inst).digest == plain.digest
    assert tracer.stats["routing.bfs"].calls > 0


def test_tracer_restores_bindings_after_an_exception():
    before = site_bindings()
    with pytest.raises(KeyError):
        with Tracer().installed():
            raise KeyError("boom")
    assert site_bindings() == before


def test_pinned_digest_mismatch_fails_the_run():
    wl = replace(tiny("greedy-churn"), pinned={3: "0" * 64})
    report = bench.measure(LIB, wl, seed=3, seconds=0.1)
    assert not report.correct and report.failed == 1


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "greedy-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
