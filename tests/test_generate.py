"""Generator: determinism, parameter ranges, connectivity, arrival process."""

import hashlib
import math
import statistics
from dataclasses import replace
from pathlib import Path

import pytest

from secvne.errors import InvalidConfig
from secvne.fileio import load_config, save_substrate, save_workload
from secvne.generate import (MAX_NODE_COUNT, MAX_STREAM_DRAWS, GeneratorConfig,
                             generate_substrate, generate_vnr_stream)

from oracles import is_connected

TABLE1_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "table1.json"


def test_default_substrate_shape():
    net = generate_substrate(GeneratorConfig(seed=3))
    assert net.domain_count == 4
    assert len(net.nodes) == 120
    for d in range(4):
        assert sum(n.domain == d for n in net.nodes.values()) == 30


def test_attributes_within_ranges():
    cfg = GeneratorConfig(seed=11)
    net = generate_substrate(cfg)
    for n in net.nodes.values():
        assert 50 <= n.cpu_capacity <= 100
        assert n.cpu_residual == n.cpu_capacity
        assert 0 <= n.ssl <= 4
        assert 0 <= n.ssd <= 4
    for l in net.links.values():
        assert 1000 <= l.bw_capacity <= 3000
        assert l.bw_residual == l.bw_capacity


def test_every_domain_connected():
    for seed in range(8):
        cfg = GeneratorConfig(seed=seed, intra_link_rate=0.05)  # sparse: repair must kick in
        net = generate_substrate(cfg)
        for d in range(net.domain_count):
            members = {nid for nid, n in net.nodes.items() if n.domain == d}
            assert is_connected(members, [k for k in net.links if set(k) <= members])


def test_substrate_determinism(tmp_path):
    a = generate_substrate(GeneratorConfig(seed=99))
    b = generate_substrate(GeneratorConfig(seed=99))
    save_substrate(a, tmp_path / "a.json")
    save_substrate(b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_intra_density_matches_link_rate():
    """Mean intra-domain density over 100 seeds within 0.6 +/- 0.05.

    Density is measured against the Bernoulli draw alone, so repair edges are
    counted but contribute little on a 0.6-rate graph (they almost never fire).
    """
    densities = []
    for seed in range(100):
        net = generate_substrate(GeneratorConfig(seed=seed))
        intra = len(net.links) - len(net.inter_links)
        pairs = 4 * (30 * 29 // 2)
        densities.append(intra / pairs)
    assert abs(statistics.fmean(densities) - 0.6) < 0.05


def domain_links(net, d):
    """The members of domain ``d``, ascending, and its intra-domain link keys."""
    members = sorted(nid for nid, n in net.nodes.items() if n.domain == d)
    return members, [k for k in net.links if set(k) <= set(members)]


@pytest.mark.parametrize("seed", range(4))
def test_link_rate_zero_joins_each_domain_into_a_tree(seed):
    """At rate 0 no pair draws a link, so every intra-domain link is a join:
    size - 1 of them, the domain connected, and (every component a single
    node, joined in ascending order) each member but the smallest linked to
    exactly one smaller member."""
    cfg = GeneratorConfig(seed=seed, node_count=23, domain_count=3, intra_link_rate=0.0,
                          substrate_bw_range=(7, 9))
    net = generate_substrate(cfg)
    for d in range(cfg.domain_count):
        members, keys = domain_links(net, d)
        assert len(keys) == len(members) - 1
        assert is_connected(set(members), keys)
        assert sorted(v for u, v in keys) == members[1:]
    assert len(net.inter_links) == 3
    assert all(7 <= l.bw_capacity <= 9 for l in net.links.values())


@pytest.mark.parametrize("seed", range(4))
def test_link_rate_one_makes_each_domain_complete(seed):
    """At rate 1 every pair draws a link, so each domain is complete and no
    join is added."""
    cfg = GeneratorConfig(seed=seed, node_count=23, domain_count=3, intra_link_rate=1.0,
                          substrate_bw_range=(7, 9))
    net = generate_substrate(cfg)
    for d in range(cfg.domain_count):
        members, keys = domain_links(net, d)
        assert sorted(keys) == [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
    assert len(net.links) == 2 * (8 * 7 // 2) + 7 * 6 // 2 + 3
    assert all(7 <= l.bw_capacity <= 9 for l in net.links.values())


def test_inter_links_per_domain_pair():
    """Exactly one inter-domain link joins each pair of domains, and
    ``inter_links`` holds every link whose ends lie in different domains."""
    for domain_count in range(2, 6):
        for seed in range(10):
            net = generate_substrate(GeneratorConfig(seed=seed, domain_count=domain_count,
                                                     node_count=10 * domain_count))
            pairs = sorted(tuple(sorted((net.nodes[l.u].domain, net.nodes[l.v].domain)))
                           for l in net.inter_links)
            assert pairs == [(a, b) for a in range(domain_count)
                             for b in range(a + 1, domain_count)]
            assert net.inter_links == [l for l in net.links.values()
                                       if net.nodes[l.u].domain != net.nodes[l.v].domain]


def test_vnr_node_counts_in_range():
    vnrs = generate_vnr_stream(GeneratorConfig(seed=2), horizon=5000)
    assert vnrs
    for vnr in vnrs:
        assert 2 <= len(vnr.nodes) <= 10
        for n in vnr.nodes.values():
            assert 1 <= n.cpu_demand <= 50
            assert 0 <= n.vsd <= 4
            assert 0 <= n.vsl <= 4
            assert n.cd and all(0 <= d < 4 for d in n.cd)
        for l in vnr.links.values():
            assert 1 <= l.bw_demand <= 10
        assert is_connected(vnr.nodes, vnr.links)
        assert vnr.lifetime > 0


def test_zero_horizon_gives_empty_stream():
    assert generate_vnr_stream(GeneratorConfig(seed=1), horizon=0) == []


@pytest.mark.parametrize("horizon", [-1.0, float("nan"), float("inf")])
def test_negative_or_non_finite_horizon_is_rejected(horizon):
    # A NaN or infinite horizon never stops the arrival loop.
    with pytest.raises(InvalidConfig, match="horizon"):
        generate_vnr_stream(GeneratorConfig(seed=1), horizon=horizon)


def test_arrival_times_sorted_and_rate_consistent():
    cfg = GeneratorConfig(seed=123, vnr_arrival_rate=2.0)
    vnrs = generate_vnr_stream(cfg, horizon=5200)  # ~10000 arrivals
    times = [v.arrival_time for v in vnrs]
    assert times == sorted(times)
    assert len(times) > 9000
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert abs(statistics.fmean(gaps) - 0.5) < 0.05  # within 10% of 1/rate


def test_workload_determinism(tmp_path):
    cfg = GeneratorConfig(seed=77)
    a = generate_vnr_stream(cfg, horizon=2000)
    b = generate_vnr_stream(cfg, horizon=2000)
    save_workload(a, 2000, tmp_path / "a.jsonl")
    save_workload(b, 2000, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_table1_config_file_restores_published_cpu_ranges():
    cfg = replace(load_config(TABLE1_CONFIG), seed=4)
    assert cfg == GeneratorConfig(seed=4, substrate_cpu_range=(0, 50),
                                  vnr_cpu_range=(50, 100))
    net = generate_substrate(cfg)
    assert all(n.cpu_capacity <= 50 for n in net.nodes.values())
    vnrs = generate_vnr_stream(cfg, horizon=2000)
    assert all(50 <= n.cpu_demand <= 100 for v in vnrs for n in v.nodes.values())


@pytest.mark.parametrize("bad", [
    dict(domain_count=1),
    dict(node_count=2),
    dict(intra_link_rate=1.5),
    dict(vnr_arrival_rate=0.0),
    dict(vnr_mean_lifetime=-1),
    dict(substrate_bw_range=(10, 5)),
    dict(cd_size_range=(0, 4)),
    dict(cd_size_range=(1, 9)),
    dict(substrate_bw_range=(0, 2**63)),
    dict(vnr_cpu_range=(1, 2**64)),
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(InvalidConfig):
        GeneratorConfig(**bad).validate()


def test_node_count_is_capped():
    GeneratorConfig(node_count=MAX_NODE_COUNT).validate()
    with pytest.raises(InvalidConfig, match=f"node_count must be at most {MAX_NODE_COUNT}, "
                                            f"got {10**30}"):
        GeneratorConfig(node_count=10**30).validate()


def test_stream_size_is_capped():
    # 1,000 expected arrivals of up to 45 nodes ask for 1000 * 45 * 46 / 2 draws.
    cfg = GeneratorConfig(vnr_arrival_rate=1.0, vnr_node_range=(1, 45))
    with pytest.raises(InvalidConfig, match=f"up to 45 nodes, is 1.035e\\+06, above "
                                            f"{MAX_STREAM_DRAWS}"):
        generate_vnr_stream(cfg, horizon=1000.0)
    with pytest.raises(InvalidConfig, match="n\\(n\\+1\\)/2"):
        generate_vnr_stream(GeneratorConfig(vnr_node_range=(2, 2**63 - 1)), horizon=1.0)


def test_infinite_lifetime_is_drawn_again():
    # A mean lifetime this close to the float limit draws infinity about one
    # time in six; such a lifetime is drawn again, as a zero one is.
    vnrs = generate_vnr_stream(GeneratorConfig(seed=7, vnr_mean_lifetime=1e308), horizon=1000.0)
    assert vnrs and all(0.0 < v.lifetime < math.inf for v in vnrs)


def test_largest_range_bound_generates():
    cfg = GeneratorConfig(seed=2, node_count=12, domain_count=2,
                          substrate_bw_range=(2**63 - 2, 2**63 - 1))
    net = generate_substrate(cfg)
    assert {l.bw_capacity for l in net.links.values()} <= {2**63 - 2, 2**63 - 1}


@pytest.mark.parametrize("overrides, message", [
    ({"node_count": 12.5, "domain_count": 2}, "node_count must be an integer, got 12.5"),
    ({"domain_count": 2.0}, "domain_count must be an integer, got 2.0"),
    ({"domain_count": True}, "domain_count must be an integer, got True"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"substrate_bw_range": (20.5, 60)},
     "substrate_bw_range must be a (min, max) pair of integers, got (20.5, 60)"),
    ({"vnr_node_range": (2,)}, "vnr_node_range must be a (min, max) pair of integers"),
    ({"cd_size_range": (1, 2.0)}, "cd_size_range must be a (min, max) pair of integers"),
    ({"vnr_arrival_rate": float("nan")}, "vnr_arrival_rate must be a finite number, got nan"),
    ({"vnr_arrival_rate": float("inf")}, "vnr_arrival_rate must be a finite number, got inf"),
    ({"vnr_mean_lifetime": float("inf")}, "vnr_mean_lifetime must be a finite number"),
    ({"intra_link_rate": "0.5"}, "intra_link_rate must be a finite number, got '0.5'"),
], ids=["fractional-nodes", "float-domains", "boolean-domains",
        "fractional-seed", "fractional-bw-bound", "short-range", "float-cd-bound",
        "nan-rate", "infinite-rate", "infinite-lifetime", "string-link-rate"])
def test_mistyped_config_is_invalid(overrides, message):
    cfg = GeneratorConfig(**overrides)
    for generate in (generate_substrate, lambda c: generate_vnr_stream(c, horizon=50.0)):
        with pytest.raises(InvalidConfig) as info:
            generate(cfg)
        assert message in str(info.value)


def test_numpy_integers_are_integers():
    import numpy as np
    cfg = GeneratorConfig(seed=np.int64(3), node_count=np.int64(12), domain_count=2,
                          substrate_bw_range=(np.int32(20), 60))
    assert len(generate_substrate(cfg).nodes) == 12


# SHA-256 of (saved substrate, saved workload) per generator config, each
# generated up to its horizon.  The cases cover the defaults, the benchmark's
# churn and bandwidth-bound overrides, candidate-domain sets drawn from seven
# domains, sub-unit lifetimes and a bandwidth range wider than 32 bits.
GENERATOR_GOLDEN = {
    "default": (dict(seed=3), 2000.0, (
        "c13dd3a7c78d8b8eaff156f80e8942f489e963a902f4cfc80ae70085110bf800",
        "88fa8affa33d74664532aa7ff753e9d22c896e953fcd7637fd114011f7b823c8")),
    "greedy-churn": (dict(seed=1, vnr_arrival_rate=0.5, vnr_mean_lifetime=100.0), 400.0, (
        "fc58c2f6c4502920c3157967bca9f286e0c4de156662295a611f863658c8bc2f",
        "fcc84ae8b2a79958871e4ab3259508e9e0d35f7b5110b68e062a9622fc5332d7")),
    "stec-bwbound": (dict(seed=0, substrate_bw_range=(20, 60)), 2000.0, (
        "51fba9758b79e4618cde4557abd4549eb6a77410de904c62434d95c8034b5df8",
        "4398e6f04a35202acc4782a50a2a9286d88f72068fa8e8ea20baef4b2aad8255")),
    "seven-domains": (dict(seed=5, node_count=70, domain_count=7, cd_size_range=(2, 7)),
                      2000.0, (
        "c9dec7213330278cdce27847e4884d47695d0779ed6d51e0e3866a898634de6c",
        "814add2ee2afa35b424451d16dd3108dab51010922d3beea70308db91b5304d2")),
    "tiny-lifetime": (dict(seed=8, vnr_mean_lifetime=0.001), 2000.0, (
        "0c14b97ad7afea864e2612bdca4228238c1e58105de225988be04ea1438fe588",
        "dc0fb25dacd4efcc5b375719597a3a54111e62af033616a31451dcf1202758fe")),
    "wide-bandwidth": (dict(seed=13, substrate_bw_range=(0, 2**40)), 2000.0, (
        "6201563a9a885827419ff607fda037770aa624254efebc3e281cfaa624665b21",
        "d1fd7110cab4b502932ffd70ad8503ac6f8d95a16c38504fbeac5eac1f075535")),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_GOLDEN))
def test_generated_files_are_pinned(name, tmp_path):
    overrides, horizon, digests = GENERATOR_GOLDEN[name]
    cfg = GeneratorConfig(**overrides)
    save_substrate(generate_substrate(cfg), tmp_path / "substrate.json")
    save_workload(generate_vnr_stream(cfg, horizon), horizon, tmp_path / "workload.jsonl")
    assert tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                 for f in ("substrate.json", "workload.jsonl")) == digests
