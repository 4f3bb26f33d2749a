"""Serialization round trips and the pinned on-disk formats."""

import json

import pytest

from secvne.errors import InvalidConfig
from secvne.fileio import (
    CUMULATIVE_CSV_HEADER,
    WINDOW_CSV_HEADER,
    atomic_write_text,
    config_from_dict,
    load_config,
    load_substrate,
    load_workload,
    save_config,
    save_substrate,
    save_workload,
    write_cumulative_csv,
    write_window_csv,
)
from secvne.generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from secvne.metrics import CumulativeRow, MetricWindow, WindowRow

from conftest import SPLIT_DOMAIN_SUBSTRATE, state_signature


def test_substrate_round_trip(tmp_path):
    net = generate_substrate(GeneratorConfig(seed=13, node_count=24, domain_count=2))
    path = tmp_path / "substrate.json"
    save_substrate(net, path)
    loaded = load_substrate(path)
    assert loaded.domain_count == net.domain_count
    assert state_signature(loaded) == state_signature(net)
    for nid, n in net.nodes.items():
        m = loaded.nodes[nid]
        assert (m.domain, m.cpu_capacity, m.ssl, m.ssd, m.hop_to_boundary) == \
               (n.domain, n.cpu_capacity, n.ssl, n.ssd, n.hop_to_boundary)
    assert set(loaded.links) == set(net.links)


def test_substrate_file_uses_pinned_field_names(tmp_path):
    net = generate_substrate(GeneratorConfig(seed=1, node_count=24, domain_count=2))
    path = tmp_path / "substrate.json"
    save_substrate(net, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"domain_count", "nodes", "links"}
    assert set(doc["nodes"][0]) == {"id", "domain", "cpu", "ssl", "ssd"}
    assert set(doc["links"][0]) == {"u", "v", "bw"}


def test_workload_round_trip(tmp_path):
    cfg = GeneratorConfig(seed=21)
    vnrs = generate_vnr_stream(cfg, horizon=1500)
    path = tmp_path / "workload.jsonl"
    save_workload(vnrs, 1500, path)
    loaded, horizon = load_workload(path)
    assert horizon == 1500
    assert len(loaded) == len(vnrs)
    for a, b in zip(vnrs, loaded):
        assert a.id == b.id
        assert a.arrival_time == b.arrival_time
        assert a.lifetime == b.lifetime
        assert {(n.id, n.cpu_demand, n.vsd, n.vsl, n.cd) for n in a.nodes.values()} == \
               {(n.id, n.cpu_demand, n.vsd, n.vsl, n.cd) for n in b.nodes.values()}
        assert {(k, l.bw_demand) for k, l in a.links.items()} == \
               {(k, l.bw_demand) for k, l in b.links.items()}


def test_config_round_trip(tmp_path):
    cfg = GeneratorConfig(seed=5, cd_size_range=(2, 3), vnr_arrival_rate=0.07)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_config_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "node_cuont": 120}))
    with pytest.raises(InvalidConfig, match="node_cuont"):
        load_config(path)


def test_config_bad_range_shape_rejected():
    with pytest.raises(InvalidConfig):
        config_from_dict({"substrate_cpu_range": [1, 2, 3]})


def test_config_dict_round_trip(tmp_path):
    cfg = GeneratorConfig(seed=9)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    doc = json.loads(path.read_text())
    assert doc["substrate_bw_range"] == list(cfg.substrate_bw_range)
    assert config_from_dict(doc) == cfg


def test_window_csv_format(tmp_path):
    rows = [
        WindowRow(MetricWindow(0.0, 10.0, 4, 2, 30.0, 60.0), 0.5, 3.0, 6.0, 0.5),
        WindowRow(MetricWindow(10.0, 20.0, 0, 0, 0.0, 0.0), None, 0.0, 0.0, None),
    ]
    path = tmp_path / "w.csv"
    write_window_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == WINDOW_CSV_HEADER
    assert lines[1] == "0.0,10.0,4,2,0.5,3.0,6.0,0.5"
    assert lines[2] == "10.0,20.0,0,0,,0.0,0.0,"


def test_cumulative_csv_format(tmp_path):
    rows = [CumulativeRow(10.0, 4, 2, 0.5, 30.0, 60.0, 0.5)]
    path = tmp_path / "c.csv"
    write_cumulative_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CUMULATIVE_CSV_HEADER
    assert lines[1] == "10.0,4,2,0.5,30.0,60.0,0.5"


def test_malformed_substrate_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidConfig):
        load_substrate(path)
    path.write_text(json.dumps({"domain_count": 2, "nodes": [], "links": [{"u": 0}]}))
    with pytest.raises(InvalidConfig):
        load_substrate(path)


def test_domain_in_two_components_rejected(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(SPLIT_DOMAIN_SUBSTRATE))
    with pytest.raises(InvalidConfig, match="some domain is not connected"):
        load_substrate(path)


def test_missing_workload_rejected(tmp_path):
    with pytest.raises(InvalidConfig):
        load_workload(tmp_path / "nope.jsonl")


def test_failed_atomic_write_leaves_the_target_and_no_temp_file(tmp_path):
    # A lone surrogate cannot be encoded as UTF-8, so the write fails after
    # the temp file is made.
    target = tmp_path / "out.txt"
    target.write_text("before\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "a\ud800b")
    assert target.read_text() == "before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
