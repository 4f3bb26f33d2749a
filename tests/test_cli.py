"""End-to-end CLI coverage on a miniature instance (2 domains, 12 nodes)."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secvne
from secvne.cli import build_parser, main

from conftest import SPLIT_DOMAIN_SUBSTRATE

MINI_CONFIG = {
    "seed": 7,
    "domain_count": 2,
    "node_count": 12,
    "cd_size_range": [1, 2],
    "vnr_node_range": [2, 4],
    "vnr_arrival_rate": 0.05,
    "vnr_mean_lifetime": 300.0,
}


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINI_CONFIG))
    return path


@pytest.fixture
def generated(tmp_path, mini_config):
    out = tmp_path / "gen"
    code = main(["generate", "--config", str(mini_config), "--horizon", "1200",
                 "--out", str(out)])
    assert code == 0
    return out


def test_generate_writes_all_files(generated):
    assert (generated / "substrate.json").exists()
    assert (generated / "workload.jsonl").exists()
    assert (generated / "config.json").exists()
    doc = json.loads((generated / "substrate.json").read_text())
    assert doc["domain_count"] == 2
    assert len(doc["nodes"]) == 12


def test_generate_is_idempotent(tmp_path, mini_config, generated):
    out2 = tmp_path / "gen2"
    assert main(["generate", "--config", str(mini_config), "--horizon", "1200",
                 "--out", str(out2)]) == 0
    for name in ("substrate.json", "workload.jsonl", "config.json"):
        assert (generated / name).read_bytes() == (out2 / name).read_bytes()


def test_generate_defaults_to_full_scale_substrate(tmp_path):
    out = tmp_path / "full"
    assert main(["generate", "--horizon", "100", "--out", str(out)]) == 0
    doc = json.loads((out / "substrate.json").read_text())
    assert doc["domain_count"] == 4
    assert len(doc["nodes"]) == 120


def test_generate_rejects_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"node_cuont": 12}))
    code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("override, message", [
    ({"node_count": 12.5}, "node_count must be an integer, got 12.5"),
    ({"vnr_arrival_rate": "0.1"}, "vnr_arrival_rate must be a finite number, got '0.1'"),
    ({"seed": "7"}, "seed must be an integer, got '7'"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"vnr_bw_range": [1.5, 3]},
     "vnr_bw_range must be a (min, max) pair of integers, got (1.5, 3)"),
    ({"vnr_mean_lifetime": float("nan")}, "vnr_mean_lifetime must be a finite number, got nan"),
    ({"node_count": -3}, "node_count must be at least domain_count (2), got -3"),
    ({"substrate_bw_range": [0, 2**63]},
     "substrate_bw_range has max 9223372036854775808 above 2**63 - 1"),
    ({"seed": -1}, "seed must lie in [0, 2**64), got -1"),
    # The generator places one inter-domain link per domain pair; a config
    # that still names the count it once took is refused, not ignored.
    ({"inter_link_count_per_domain_pair": 1},
     "unknown config key 'inter_link_count_per_domain_pair'"),
    ({"substrate_bw_range": [-1, 5]}, "substrate_bw_range has negative min -1"),
    ({"vnr_node_range": [0, 4]}, "vnr_node_range min must be at least 1"),
    ({"vnr_cpu_range": [0, 20]}, "vnr_cpu_range min must be at least 1"),
], ids=["fractional-node-count", "string-rate", "string-seed", "boolean-seed",
        "fractional-range-bound", "nan-lifetime", "negative-node-count",
        "oversized-range-bound", "negative-seed", "retired-inter-link-count",
        "negative-range-min", "zero-node-range-min", "zero-cpu-range-min"])
def test_generate_rejects_mistyped_config(tmp_path, capsys, override, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MINI_CONFIG, **override}))
    code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_generate_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config file {bad} must hold a JSON object" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_generate_out_under_a_regular_file_is_an_error(tmp_path, mini_config, capsys):
    # The OSError reaches main's catch-all, which exits 1 without a traceback.
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["generate", "--config", str(mini_config), "--horizon", "100",
                 "--out", str(blocker / "sub")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("secvne: error: [Errno 20] Not a directory")
    assert "Traceback" not in err and blocker.read_text() == ""


def test_generate_rejects_a_repeated_config_key(tmp_path, capsys):
    # Read by plain json.loads, the later seed would win and generate exit 0.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MINI_CONFIG).replace('"seed": 7', '"seed": 3, "seed": 5'))
    code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "repeated key 'seed'" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_run_emits_trace_and_metrics(tmp_path, generated):
    out = tmp_path / "run"
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"),
                 "--strategy", "stec-iot", "--window", "200", "--out", str(out)])
    assert code == 0
    assert (out / "trace.jsonl").exists()
    assert (out / "windows.csv").exists()
    assert (out / "cumulative.csv").exists()
    header = (out / "windows.csv").read_text().splitlines()[0]
    assert header == "t_start,t_end,arrived,accepted,acceptance,avg_revenue,avg_cost,rc_ratio"


def test_rerun_is_byte_identical(tmp_path, generated):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", "--substrate", str(generated / "substrate.json"),
                     "--workload", str(generated / "workload.jsonl"),
                     "--strategy", "greedy", "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trace.jsonl", "windows.csv", "cumulative.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_window_flag_changes_aggregation_not_trace(tmp_path, generated):
    outs = []
    for name, window in (("w1", "200"), ("w2", "400")):
        out = tmp_path / name
        assert main(["run", "--substrate", str(generated / "substrate.json"),
                     "--workload", str(generated / "workload.jsonl"),
                     "--strategy", "greedy", "--window", window, "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "trace.jsonl").read_bytes() == (outs[1] / "trace.jsonl").read_bytes()
    assert (outs[0] / "windows.csv").read_bytes() != (outs[1] / "windows.csv").read_bytes()


def test_unknown_strategy_is_usage_error(tmp_path, generated):
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"),
                 "--strategy", "annealing", "--out", str(tmp_path / "x")])
    assert code == 1


def test_invalid_embedding_is_an_internal_consistency_failure(tmp_path, generated, capsys,
                                                             monkeypatch):
    # make_strategy looks greedy_embed up in secvne.simulation at each call.
    monkeypatch.setattr(secvne.simulation, "greedy_embed",
                        lambda vnr, net: secvne.Embedding(vnr, {}, {}))
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"),
                 "--strategy", "greedy", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert "secvne: internal consistency failure: strategy greedy produced an invalid " \
           "embedding for request 0" in err and "Traceback" not in err


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_compare_emits_metric_tables(tmp_path, mini_config):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", str(mini_config),
                 "--strategies", "stec-iot,greedy", "--seeds", "1,2",
                 "--horizon", "1200", "--window", "200", "--out", str(out)])
    assert code == 0
    for name in ("acceptance", "avg_revenue", "avg_cost", "rc_ratio", "summary"):
        assert (out / f"{name}.csv").exists()
    lines = (out / "acceptance.csv").read_text().splitlines()
    assert lines[0] == "strategy,mean,stddev,seed_1,seed_2"
    assert len(lines) == 3
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "strategy,acceptance,avg_revenue,avg_cost,rc_ratio"
    assert [l.split(",")[0] for l in summary[1:]] == ["stec-iot", "greedy"]


def test_compare_single_strategy(tmp_path, mini_config):
    out = tmp_path / "cmp1"
    code = main(["compare", "--config", str(mini_config), "--strategies", "greedy",
                 "--seeds", "3", "--horizon", "800", "--out", str(out)])
    assert code == 0
    lines = (out / "acceptance.csv").read_text().splitlines()
    assert len(lines) == 2


def test_compare_fixed_instance_mode(tmp_path, generated):
    out = tmp_path / "cmpfix"
    code = main(["compare", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"),
                 "--strategies", "greedy,random", "--seeds", "1,2",
                 "--horizon", "1200", "--window", "200", "--out", str(out)])
    assert code == 0
    assert (out / "summary.csv").exists()


def test_compare_rejects_a_repeated_strategy(tmp_path, mini_config, capsys):
    out = tmp_path / "cmprep"
    code = main(["compare", "--config", str(mini_config), "--strategies", "greedy,greedy",
                 "--seeds", "0,1", "--horizon", "800", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "strategy 'greedy' is listed twice" in err and "Traceback" not in err
    assert not out.exists()


def test_compare_rejects_a_repeated_seed(tmp_path, mini_config, capsys):
    out = tmp_path / "cmprepseed"
    code = main(["compare", "--config", str(mini_config), "--strategies", "greedy",
                 "--seeds", "0,0,1", "--horizon", "800", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed 0 is listed twice" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--strategies", "greedy,bogus"], "unknown strategy 'bogus'; expected one of"),
    (["--seeds", "0,x"], "bad --seeds list '0,x'"),
    (["--strategies", ","], "need at least one strategy and one seed"),
    (["--substrate", "substrate.json"], "--substrate and --workload must be given together"),
], ids=["unknown-strategy", "bad-seed", "empty-strategies", "lone-substrate"])
def test_compare_rejects_a_bad_list_or_a_lone_instance_file(tmp_path, capsys, flags, message):
    # Each is refused before any instance is read or generated.
    out = tmp_path / "cmpbad"
    code = main(["compare", "--strategies", "greedy", "--seeds", "0", *flags,
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_compare_leaves_a_metric_blank_when_no_seed_defines_it(tmp_path):
    # Under table1.json greedy accepts nothing by t=1000, so every window's
    # rc_ratio is undefined, and so are its mean and spread.
    config = Path(__file__).resolve().parents[1] / "configs" / "table1.json"
    out = tmp_path / "cmpnone"
    code = main(["compare", "--config", str(config), "--strategies", "greedy",
                 "--seeds", "0", "--horizon", "1000", "--out", str(out)])
    assert code == 0
    assert (out / "summary.csv").read_text().splitlines()[1] == "greedy,0.0,0.0,0.0,"
    assert (out / "rc_ratio.csv").read_text().splitlines()[1] == "greedy,,,"


def test_compare_rejects_config_with_a_fixed_instance(tmp_path, mini_config, generated,
                                                      capsys):
    out = tmp_path / "cmpboth"
    code = main(["compare", "--config", str(mini_config),
                 "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"), "--strategies", "greedy",
                 "--seeds", "0", "--horizon", "800", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--config and --substrate/--workload are alternatives" in err
    assert not out.exists()


def test_subcommand_options_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(opt for action in p._actions for opt in action.option_strings)
               for name, p in sub.choices.items()}
    assert options == {
        "generate": ["--config", "--help", "--horizon", "--out", "--seed", "-h"],
        "run": ["--help", "--horizon", "--out", "--seed", "--strategy", "--substrate",
                "--window", "--workload", "-h"],
        "compare": ["--config", "--help", "--horizon", "--out", "--seeds", "--strategies",
                    "--substrate", "--warmup-frac", "--window", "--workload", "-h"],
    }


@pytest.mark.parametrize("command", ["generate", "run", "compare"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_infeasible(tmp_path, mini_config, generated, capsys,
                                            command, seed):
    # normalize_seed masks to 64 bits, so 2**64 would run seed 0's stream again.
    instance = ["--substrate", str(generated / "substrate.json"),
                "--workload", str(generated / "workload.jsonl")]
    flags = {"generate": ["--config", str(mini_config), "--seed", str(seed)],
             "run": [*instance, "--strategy", "random", "--seed", str(seed)],
             "compare": [*instance, "--strategies", "random", "--seeds", f"0,{seed}"]}
    out = tmp_path / "out"
    code = main([command, *flags[command], "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"must lie in [0, 2**64), got {seed}" in err and "Traceback" not in err
    assert not out.exists()


def test_compare_rejects_a_horizon_with_no_steady_state_window(tmp_path, mini_config,
                                                               capsys):
    # The one window, [0, 200), starts before the warmup ends at 0.2 * 200.
    out = tmp_path / "cmpshort"
    code = main(["compare", "--config", str(mini_config), "--strategies", "greedy",
                 "--seeds", "1", "--horizon", "200", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--horizon 200.0 and --window 500.0 leave no window starting at or after " \
           "the warmup time 40.0" in err
    assert not out.exists()


def _edit_first_request(tmp_path, generated, edit):
    """Copy of the generated workload after `edit` mutates its first request."""
    lines = (generated / "workload.jsonl").read_text().splitlines()
    doc = json.loads(lines[1])
    edit(doc)
    lines[1] = json.dumps(doc)
    workload = tmp_path / "bad_workload.jsonl"
    workload.write_text("\n".join(lines) + "\n")
    return workload


def _run_with_first_request(tmp_path, generated, capsys, edit):
    """Run greedy on the generated workload after `edit` mutates its first request."""
    workload = _edit_first_request(tmp_path, generated, edit)
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(workload), "--strategy", "greedy",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_workload_link_to_unknown_node_is_infeasible(tmp_path, generated, capsys):
    code, err = _run_with_first_request(
        tmp_path, generated, capsys,
        lambda doc: doc["links"].append({"u": doc["nodes"][0]["id"], "v": 99, "bw": 1}))
    assert code == 2
    assert "missing" in err


def test_workload_negative_lifetime_is_infeasible(tmp_path, generated, capsys):
    code, err = _run_with_first_request(tmp_path, generated, capsys,
                                        lambda doc: doc.update(lifetime=-5.0))
    assert code == 2
    assert "lifetime" in err


def test_workload_nan_arrival_time_is_infeasible(tmp_path, generated, capsys):
    code, err = _run_with_first_request(tmp_path, generated, capsys,
                                        lambda doc: doc.update(arrival_time=float("nan")))
    assert code == 2
    assert "arrival_time" in err


@pytest.mark.parametrize("field", ["nodes", "links"])
def test_workload_negative_demand_is_infeasible(tmp_path, generated, capsys, field):
    key = "cpu" if field == "nodes" else "bw"
    code, err = _run_with_first_request(tmp_path, generated, capsys,
                                        lambda doc: doc[field][0].update({key: -500}))
    assert code == 2
    assert "negative" in err


def test_workload_duplicate_virtual_node_is_infeasible(tmp_path, generated, capsys):
    code, err = _run_with_first_request(
        tmp_path, generated, capsys,
        lambda doc: doc["nodes"].append(dict(doc["nodes"][0], cpu=1)))
    assert code == 2
    assert "duplicate" in err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["nodes"][0].update(cpu=3.5),
     "virtual node cpu must be a non-negative integer, got 3.5"),
    (lambda doc: doc["nodes"][0].update(vsd="2"),
     "virtual node vsd must be a non-negative integer, got '2'"),
    (lambda doc: doc["links"][0].update(bw=True),
     "virtual link bw must be a non-negative integer, got True"),
    (lambda doc: doc["nodes"][0].update(cd=[True]),
     "candidate domain must be a non-negative integer, got True"),
    (lambda doc: doc.update(nodes=[], links=[]), "a request needs at least one virtual node"),
    (lambda doc: doc.update(lifetime=True), "lifetime must be a finite number, got True"),
    (lambda doc: doc.update(arrival_time=True),
     "arrival_time must be a finite number, got True"),
    (lambda doc: doc["nodes"][0].update(cd=[]), "virtual node 0 has no candidate domain"),
    (lambda doc: doc["links"].append({"u": doc["links"][0]["v"], "v": doc["links"][0]["u"],
                                      "bw": doc["links"][0]["bw"] + 100}),
     "duplicate virtual link"),
    (lambda doc: doc["links"].append({"u": doc["nodes"][0]["id"], "v": doc["nodes"][0]["id"],
                                      "bw": 1}),
     "request 0: virtual link (0, 0) is a self-loop"),
    # The strategy streams key on the id as a 64-bit integer, so 2**64 would
    # share request 0's streams.
    (lambda doc: doc.update(id=2**64), f"request id {2**64} must lie in [0, 2**64)"),
    (lambda doc: doc.update(arrival_time=-1.0),
     "request 0: arrival_time -1.0 must be finite and non-negative"),
], ids=["fractional-cpu", "string-vsd", "boolean-bw", "boolean-domain", "no-nodes",
        "boolean-lifetime", "boolean-arrival-time", "empty-cd", "duplicate-link", "self-loop",
        "id-past-64-bits", "negative-arrival-time"])
def test_workload_malformed_request_is_infeasible(tmp_path, generated, capsys, edit, message):
    code, err = _run_with_first_request(tmp_path, generated, capsys, edit)
    assert code == 2
    assert message in err and "line 2" in err


@pytest.mark.parametrize("horizon, message", [
    (-5, "horizon must be positive, got -5.0"),
    (0, "horizon must be positive, got 0.0"),
    (True, "horizon must be a finite number, got True"),
    ("1500", "horizon must be a finite number, got '1500'"),
], ids=["negative", "zero", "boolean", "string"])
def test_workload_malformed_horizon_is_infeasible(tmp_path, generated, capsys, horizon,
                                                  message):
    lines = (generated / "workload.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["horizon"] = horizon
    lines[0] = json.dumps(header)
    workload = tmp_path / "bad_workload.jsonl"
    workload.write_text("\n".join(lines) + "\n")
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(workload), "--strategy", "greedy",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "line 1" in err and "Traceback" not in err


def test_workload_repeated_request_id_is_infeasible(tmp_path, generated, capsys):
    lines = (generated / "workload.jsonl").read_text().splitlines()
    second = json.loads(lines[2])
    second["id"] = json.loads(lines[1])["id"]
    lines[2] = json.dumps(second)
    workload = tmp_path / "bad_workload.jsonl"
    workload.write_text("\n".join(lines) + "\n")
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(workload), "--strategy", "greedy",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"line 3: duplicate request id {second['id']}" in err and "Traceback" not in err


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"],
                         ids=["line-separator", "paragraph-separator", "next-line"])
def test_workload_splits_lines_only_at_newline(tmp_path, generated, capsys, separator):
    """A JSON string may hold U+2028, U+2029 or U+0085 raw; a key the loader
    ignores holding one leaves the run as it was, and a later line keeps its
    number."""
    lines = (generated / "workload.jsonl").read_text().splitlines()
    doc = json.loads(lines[1])
    doc["note"] = f"a{separator}b"
    lines[1] = json.dumps(doc, ensure_ascii=False)
    workload = tmp_path / "noted.jsonl"
    traces = []
    for text in ((generated / "workload.jsonl").read_text(), "\n".join(lines) + "\n"):
        workload.write_text(text, encoding="utf-8")
        assert main(["run", "--substrate", str(generated / "substrate.json"),
                     "--workload", str(workload), "--strategy", "greedy",
                     "--out", str(tmp_path / "out")]) == 0
        traces.append((tmp_path / "out" / "trace.jsonl").read_bytes())
    assert traces[1] == traces[0]
    lines[2] = "{"
    workload.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(workload), "--strategy", "greedy",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{workload}, line 3:" in err and "Traceback" not in err


def _run_workload_bytes(tmp_path, generated, data: bytes) -> int:
    workload = tmp_path / "workload_bytes.jsonl"
    workload.write_bytes(data)
    return main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(workload), "--strategy", "greedy",
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("edit", ["cr-inside-line", "crlf-line-ends"])
def test_workload_carriage_return_is_json_whitespace(tmp_path, generated, edit):
    """A raw carriage return is JSON whitespace and does not end a line: a
    request line holding one, or a file whose lines end in CRLF, runs as
    the plain file does."""
    plain = (generated / "workload.jsonl").read_bytes()
    if edit == "cr-inside-line":
        lines = plain.split(b"\n")
        assert b', "lifetime"' in lines[1]
        lines[1] = lines[1].replace(b', "lifetime"', b',\r"lifetime"')
        data = b"\n".join(lines)
    else:
        data = plain.replace(b"\n", b"\r\n")
    traces = []
    for text in (plain, data):
        assert _run_workload_bytes(tmp_path, generated, text) == 0
        traces.append((tmp_path / "out" / "trace.jsonl").read_bytes())
    assert traces[1] == traces[0]


def test_workload_line_of_non_json_whitespace_is_infeasible(tmp_path, generated, capsys):
    """A line holding only a form feed is not blank: JSON whitespace is
    space, tab, carriage return and newline, so the parser rejects it and
    the message names its line."""
    lines = (generated / "workload.jsonl").read_bytes().split(b"\n")
    lines.insert(3, b"\x0c")
    assert _run_workload_bytes(tmp_path, generated, b"\n".join(lines)) == 2
    err = capsys.readouterr().err
    assert "workload_bytes.jsonl, line 4:" in err and "Traceback" not in err


def test_empty_workload_is_infeasible(tmp_path, generated, capsys):
    workload = tmp_path / "empty.jsonl"
    workload.write_text("")
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(workload), "--strategy", "greedy",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"workload file {workload} is empty" in err and "Traceback" not in err


def _run_greedy(tmp_path, generated, lines):
    workload = tmp_path / "bad_workload.jsonl"
    workload.write_text("\n".join(lines) + "\n")
    return main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(workload), "--strategy", "greedy",
                 "--out", str(tmp_path / "out")])


def test_workload_cut_short_is_infeasible(tmp_path, generated, capsys):
    lines = (generated / "workload.jsonl").read_text().splitlines()
    count = json.loads(lines[0])["vnr_count"]
    assert count == len(lines) - 1 > 20
    code = _run_greedy(tmp_path, generated, lines[:20])
    err = capsys.readouterr().err
    assert code == 2
    assert f"vnr_count is {count} but 19 requests follow it" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda count: count + 1, "vnr_count is {high} but {count} requests follow it"),
    (lambda count: count - 1, "vnr_count is {low} but {count} requests follow it"),
    (lambda count: True, "line 1: vnr_count must be a non-negative integer, got True"),
    (str, "line 1: vnr_count must be a non-negative integer, got '{count}'"),
    (None, "line 1: 'vnr_count'"),
], ids=["too-high", "too-low", "boolean", "string", "missing"])
def test_workload_header_count_must_match_the_requests(tmp_path, generated, capsys, edit,
                                                       message):
    lines = (generated / "workload.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    count = header.pop("vnr_count")
    if edit is not None:
        header["vnr_count"] = edit(count)
    lines[0] = json.dumps(header)
    code = _run_greedy(tmp_path, generated, lines)
    err = capsys.readouterr().err
    assert code == 2
    assert message.format(count=count, high=count + 1, low=count - 1) in err
    assert "Traceback" not in err


def test_workload_unknown_candidate_domain_is_infeasible(tmp_path, generated, capsys):
    def edit(doc):
        doc["nodes"][0]["cd"] = [99]

    code, err = _run_with_first_request(tmp_path, generated, capsys, edit)
    assert code == 2
    assert "domain 99" in err
    workload = _edit_first_request(tmp_path, generated, edit)
    code = main(["compare", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(workload), "--strategies", "greedy", "--seeds", "1",
                 "--out", str(tmp_path / "cmp")])
    err = capsys.readouterr().err
    assert code == 2
    assert "domain 99" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--horizon", "nan"], ["--horizon", "0"], ["--horizon", "-5"],
    ["--window", "nan"], ["--window", "inf"], ["--window", "0"],
])
def test_run_rejects_non_finite_or_non_positive_numbers(tmp_path, generated, capsys, flags):
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"), "--strategy", "greedy",
                 "--out", str(tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert flags[0] in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_window_count_above_the_cap_is_infeasible(tmp_path, generated, capsys, command):
    # 1000.001 / 0.001 asks for 1,000,001 windows, one more than allowed.
    flags = (["--strategy", "greedy"] if command == "run"
             else ["--strategies", "greedy", "--seeds", "1"])
    code = main([command, "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"), *flags,
                 "--horizon", "1000.001", "--window", "0.001", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "--window 0.001" in err and "1000001 windows" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_horizon_past_the_workload_file_is_infeasible(tmp_path, generated, capsys, command):
    # The workload was generated to horizon 1200; after it every window is empty.
    flags = (["--strategy", "greedy"] if command == "run"
             else ["--strategies", "greedy", "--seeds", "1"])
    code = main([command, "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"), *flags,
                 "--horizon", "6000", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "--horizon 6000.0 is past the horizon 1200.0 of the workload file" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["--warmup-frac", "1.5"], ["--warmup-frac", "nan"], ["--warmup-frac", "-0.1"],
    ["--warmup-frac", "1"], ["--horizon", "nan"],
])
def test_compare_rejects_out_of_range_numbers(tmp_path, generated, capsys, flags):
    code = main(["compare", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"), "--strategies", "greedy",
                 "--seeds", "1", "--out", str(tmp_path / "cmp"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert flags[0] in err and "Traceback" not in err
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_generate_rejects_non_positive_horizon(tmp_path, mini_config, capsys, horizon):
    code = main(["generate", "--config", str(mini_config), "--horizon", horizon,
                 "--out", str(tmp_path / "gen")])
    assert code == 2
    assert "--horizon" in capsys.readouterr().err


def _drop_inter_domain_links(doc):
    domain = {n["id"]: n["domain"] for n in doc["nodes"]}
    doc["links"] = [l for l in doc["links"] if domain[l["u"]] == domain[l["v"]]]


@pytest.mark.parametrize("edit, message", [
    (_drop_inter_domain_links, "has no boundary node"),
    (lambda doc: doc["nodes"].append(dict(doc["nodes"][0], cpu=1)),
     "duplicate substrate node id 0"),
    (lambda doc: doc["links"].append({"u": 0, "v": 9999, "bw": 10}),
     "substrate link (0, 9999) names unknown node 9999"),
    (lambda doc: doc["nodes"][0].update(ssl="3"),
     "substrate node ssl must be a non-negative integer, got '3'"),
    (lambda doc: doc["nodes"][0].update(cpu=True),
     "substrate node cpu must be a non-negative integer, got True"),
    (lambda doc: doc["links"][0].update(bw=-1),
     "substrate link bw must be a non-negative integer, got -1"),
    (lambda doc: doc["nodes"][0].update(domain=7),
     "substrate node 0 has domain 7, outside [0, 2)"),
    (lambda doc: doc.update(domain_count=0), "domain_count must be an integer >= 1, got 0"),
    (lambda doc: doc.update(SPLIT_DOMAIN_SUBSTRATE), "some domain is not connected"),
    # Nodes sit in domains 0 and 1 only; a file may not declare more domains.
    (lambda doc: doc.update(domain_count=4), "domain 2 has no node"),
    (lambda doc: doc.update(domain_count=10**12), "domain 2 has no node"),
    (lambda doc: doc["links"].append({"u": 0, "v": 0, "bw": 10}),
     "substrate link (0, 0) is a self-loop"),
], ids=["no-boundary-node", "duplicate-node-id", "link-to-unknown-node", "string-ssl",
        "boolean-cpu", "negative-link-bw", "domain-out-of-range", "no-domains",
        "split-domain", "empty-domain", "huge-domain-count", "self-loop"])
def test_malformed_substrate_is_infeasible(tmp_path, generated, capsys, edit, message):
    doc = json.loads((generated / "substrate.json").read_text())
    edit(doc)
    substrate = tmp_path / "bad_substrate.json"
    substrate.write_text(json.dumps(doc))
    code = main(["run", "--substrate", str(substrate),
                 "--workload", str(generated / "workload.jsonl"), "--strategy", "greedy",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("name, key", [("substrate.json", "bw"),
                                       ("workload.jsonl", "horizon")])
def test_repeated_key_is_infeasible(tmp_path, generated, capsys, name, key):
    """A substrate object or the workload header naming a key twice exits
    2; the first link's ``bw`` and the header's ``horizon`` each gain an
    earlier value."""
    paths = {n: generated / n for n in ("substrate.json", "workload.jsonl")}
    text = paths[name].read_text()
    assert f'"{key}": ' in text
    paths[name] = tmp_path / name
    paths[name].write_text(text.replace(f'"{key}": ', f'"{key}": 1, "{key}": ', 1))
    code = main(["run", "--substrate", str(paths["substrate.json"]),
                 "--workload", str(paths["workload.jsonl"]), "--strategy", "greedy",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"repeated key '{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["substrate.json", "workload.jsonl", "config.json"])
def test_file_that_is_not_utf8_is_infeasible(tmp_path, generated, capsys, name):
    paths = {n: generated / n for n in ("substrate.json", "workload.jsonl", "config.json")}
    paths[name] = tmp_path / name
    paths[name].write_bytes(b"\xff\xfe{}\n")
    if name == "config.json":
        argv = ["generate", "--config", str(paths[name]), "--out", str(tmp_path / "out")]
    else:
        argv = ["run", "--substrate", str(paths["substrate.json"]),
                "--workload", str(paths["workload.jsonl"]), "--strategy", "greedy",
                "--out", str(tmp_path / "out")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "codec can't decode byte 0xff" in err and "Traceback" not in err


def _chain_instance(tmp_path, n=1200):
    """A valid instance whose one request needs an augmenting path through
    all of its n virtual nodes: virtual node k may go to substrate node k or
    k + 1 and the last only to node 0, so every other node must shift over."""
    nodes = [{"id": i, "domain": 2 * i // (n + 2), "cpu": 10, "ssl": i + 1, "ssd": i}
             for i in range(n + 2)]
    links = [{"u": i, "v": i + 1, "bw": 10} for i in range(n + 1)]
    substrate = tmp_path / "chain_substrate.json"
    substrate.write_text(json.dumps({"domain_count": 2, "nodes": nodes, "links": links}))
    vnodes = [{"id": k, "cpu": 1, "vsd": (k + 1) % n, "vsl": (k + 1) % n, "cd": [0, 1]}
              for k in range(n)]
    request = {"id": 0, "arrival_time": 1.0, "lifetime": 10.0, "nodes": vnodes, "links": []}
    workload = tmp_path / "chain_workload.jsonl"
    workload.write_text(json.dumps({"horizon": 100.0, "vnr_count": 1}) + "\n"
                        + json.dumps(request) + "\n")
    return substrate, workload


@pytest.mark.parametrize("strategy", ["stec-iot", "greedy", "random"])
def test_run_places_a_long_chain_request(tmp_path, capsys, strategy):
    substrate, workload = _chain_instance(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--substrate", str(substrate), "--workload", str(workload),
                 "--strategy", strategy, "--window", "50", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 0, err
    for name in ("trace.jsonl", "windows.csv", "cumulative.csv"):
        assert (out / name).exists()
    if strategy == "stec-iot":
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        assert [r["outcome"] for r in records if r["kind"] == "arrival"] == ["accepted"]


# A locale whose encoding is ASCII: no UTF-8 mode, no coercion of the C
# locale to a UTF-8 one.
C_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def run_in_c_locale(*args) -> subprocess.CompletedProcess:
    """``python *args`` under the C locale, importing this checkout's
    secvne."""
    src = str(Path(secvne.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, **C_LOCALE, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def digests(out, names):
    return [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names]


def test_c_locale_encodes_in_ascii():
    """The locale of the tests below is not UTF-8, so they test the files'
    own encoding."""
    proc = run_in_c_locale("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert proc.returncode == 0, proc.stderr
    assert "utf" not in proc.stdout.lower().replace("-", ""), proc.stdout


def test_generate_in_the_c_locale_writes_the_same_bytes(tmp_path, mini_config, generated):
    out = tmp_path / "c-locale"
    proc = run_in_c_locale("-m", "secvne", "generate", "--config", str(mini_config),
                           "--horizon", "1200", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    names = ("substrate.json", "workload.jsonl", "config.json")
    assert digests(out, names) == digests(generated, names)


@pytest.mark.parametrize("strategy", ["stec-iot", "greedy"])
def test_run_in_the_c_locale_writes_the_same_bytes(tmp_path, generated, strategy):
    """A workload that holds a raw non-ASCII character (U+2028 in a key the
    loader ignores) runs under the C locale as it runs here."""
    lines = (generated / "workload.jsonl").read_text(encoding="utf-8").split("\n")
    doc = json.loads(lines[1])
    doc["note"] = "a\u2028b"
    lines[1] = json.dumps(doc, ensure_ascii=False)
    workload = tmp_path / "noted.jsonl"
    workload.write_text("\n".join(lines), encoding="utf-8")
    args = ["run", "--substrate", str(generated / "substrate.json"), "--workload",
            str(workload), "--strategy", strategy, "--window", "200"]
    assert main([*args, "--out", str(tmp_path / "here")]) == 0
    proc = run_in_c_locale("-m", "secvne", *args, "--out", str(tmp_path / "c-locale"))
    assert proc.returncode == 0, proc.stderr
    names = ("trace.jsonl", "windows.csv", "cumulative.csv")
    assert digests(tmp_path / "c-locale", names) == digests(tmp_path / "here", names)
