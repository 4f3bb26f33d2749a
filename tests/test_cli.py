"""End-to-end CLI coverage on a miniature instance (2 domains, 12 nodes)."""

import json

import pytest

from secvne.cli import main

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


def test_eq20_literal_flag_accepted(tmp_path, generated):
    out = tmp_path / "lit"
    code = main(["run", "--substrate", str(generated / "substrate.json"),
                 "--workload", str(generated / "workload.jsonl"),
                 "--strategy", "stec-iot", "--eq20-literal", "--cost-mode", "literal",
                 "--out", str(out)])
    assert code == 0


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
