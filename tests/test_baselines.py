"""Greedy and random comparison strategies."""

import pytest

from secvne import baselines, routing, simulation
from secvne.baselines import greedy_embed, random_embed
from secvne.errors import EmbeddingInfeasible
from secvne.generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from secvne.node_mapping import map_nodes
from secvne.pso import PsoConfig, optimize, request_candidates
from secvne.simulation import make_strategy, run
from secvne.validation import validate_embedding

from conftest import count_mask_builds, make_substrate, make_vnr, scattered_net
from oracles import candidate_nodes_brute, greedy_brute


def test_single_candidate_matches_priority_mapping(toy_net):
    vnr = make_vnr([(0, 10, 4, 4, (0,))], [])  # only node 1 has ssl=4 in domain 0
    greedy = greedy_embed(vnr, toy_net)
    mapped = map_nodes(vnr, toy_net, request_candidates(vnr, toy_net))
    assert greedy.node_map == mapped == {0: 1}


def test_greedy_prefers_max_residual():
    net = make_substrate(
        node_specs=[(0, 0, 40, 0, 0), (1, 0, 90, 0, 0), (2, 1, 10, 0, 0)],
        link_specs=[(0, 1, 100), (0, 2, 100)],
    )
    vnr = make_vnr([(0, 10, 0, 4, (0,))], [])
    assert greedy_embed(vnr, net).node_map == {0: 1}


def test_greedy_breaks_equal_residuals_by_lowest_id():
    """Equal residuals go to the lowest id, though the substrate lists its
    nodes out of id order: ``scattered_net``'s domain 0 is 9, 5, 1, 4, all
    with residual 10."""
    net = scattered_net()
    vnr = make_vnr([(0, 5, 0, 0, (0,)), (1, 5, 0, 0, (0,))], [(0, 1, 1)])
    emb = greedy_embed(vnr, net)
    assert emb.node_map == {0: 1, 1: 4}
    # Once 1 is down to 5, the next request's first pick skips it for 4.
    net.nodes[1].cpu_residual = 5
    assert greedy_embed(vnr, net).node_map == {0: 4, 1: 5}


def test_greedy_bottleneck_rejects_where_swarm_recovers():
    """Greedy reaches for the fat remote node and strands the thin bridge;
    the swarm search falls back to the co-located pair."""
    net = make_substrate(
        node_specs=[(0, 0, 60, 0, 0), (1, 0, 50, 0, 0), (2, 1, 200, 0, 0)],
        link_specs=[(0, 1, 100), (1, 2, 1)],
    )
    vnr = make_vnr([(0, 10, 0, 4, (0, 1)), (1, 10, 0, 4, (0, 1))], [(0, 1, 5)])
    with pytest.raises(EmbeddingInfeasible):
        greedy_embed(vnr, net)  # picks node 2 first, then the bridge cannot carry 5
    emb = optimize(vnr, net, PsoConfig(seed=0))
    assert set(emb.node_map.values()) == {0, 1}
    assert validate_embedding(net, vnr, emb) == []


def test_greedy_rejection_names_the_request(toy_net):
    # Node 1 is the only domain-0 node with ssl 4, and both virtual nodes need it.
    vnr = make_vnr([(0, 10, 4, 4, (0,)), (1, 5, 4, 4, (0,))], [], vnr_id=7)
    with pytest.raises(EmbeddingInfeasible, match=r"^request 7: greedy: no unused candidate "
                                                  r"for virtual node 1$"):
        greedy_embed(vnr, toy_net)


def test_greedy_validates(toy_net, toy_vnr):
    emb = greedy_embed(toy_vnr, toy_net)
    assert validate_embedding(toy_net, toy_vnr, emb) == []


@pytest.mark.parametrize("bw_range", [(1000, 3000), (20, 60)], ids=["default-bw", "bw-bound"])
def test_greedy_places_as_the_brute_force_greedy(monkeypatch, bw_range):
    """On runs whose residuals often tie, every greedy call places each
    virtual node where ``oracles.greedy_brute`` does, and fails for want
    of a candidate exactly where it finds none."""
    placed = []
    counts = {"calls": 0, "unplaced": 0, "picks": 0, "tied": 0}
    plain_build, plain_greedy = baselines.build_embedding, simulation.greedy_embed

    def build_embedding(vnr, assignment, net):
        placed.append(dict(assignment))
        return plain_build(vnr, assignment, net)

    def greedy_embed(vnr, net):
        expected = greedy_brute(vnr, net)
        counts["calls"] += 1
        counts["unplaced"] += expected is None
        for v in vnr.nodes.values():
            residuals = [net.nodes[s].cpu_residual for s in candidate_nodes_brute(v, net)]
            counts["picks"] += 1
            counts["tied"] += residuals.count(max(residuals, default=None)) > 1
        placed.clear()
        try:
            return plain_greedy(vnr, net)
        finally:
            assert placed == ([] if expected is None else [expected])

    monkeypatch.setattr(baselines, "build_embedding", build_embedding)
    monkeypatch.setattr(simulation, "greedy_embed", greedy_embed)
    for seed in range(3):
        cfg = GeneratorConfig(seed=seed, node_count=16, domain_count=2,
                              substrate_cpu_range=(10, 11), substrate_bw_range=bw_range,
                              security_range=(0, 1),
                              vnr_cpu_range=(1, 2), vnr_node_range=(2, 5),
                              vnr_arrival_rate=0.2, vnr_mean_lifetime=40.0)
        run(generate_substrate(cfg), generate_vnr_stream(cfg, 300.0),
            make_strategy("greedy"), 300.0)
    # Over a third of the picks have a top residual shared by two candidates.
    assert counts["calls"] > 150 and counts["unplaced"] > 0
    assert 3 * counts["tied"] > counts["picks"]


def test_random_empty_candidates_immediately_infeasible(toy_net):
    vnr = make_vnr([(0, 10, 4, 0, (1,))], [])  # nobody in domain 1 fits
    with pytest.raises(EmbeddingInfeasible):
        random_embed(vnr, toy_net, seed=0)


def test_random_unique_assignment_found_within_retries():
    net = make_substrate(
        node_specs=[(0, 0, 30, 4, 0), (1, 0, 5, 0, 0), (2, 1, 30, 4, 0)],
        link_specs=[(0, 1, 100), (0, 2, 100)],
    )
    vnr = make_vnr([(0, 10, 3, 4, (0,)), (1, 10, 3, 4, (1,))], [(0, 1, 5)])
    emb = random_embed(vnr, net, seed=123)
    assert emb.node_map == {0: 0, 1: 2}


def test_random_rejection_names_the_request():
    # Every draw is the one injective pair, and its link cannot cross the
    # 3-unit bridge.
    net = make_substrate(
        node_specs=[(0, 0, 30, 0, 0), (1, 1, 30, 0, 0)],
        link_specs=[(0, 1, 3)],
    )
    vnr = make_vnr([(0, 10, 0, 4, (0,)), (1, 10, 0, 4, (1,))], [(0, 1, 5)], vnr_id=9)
    with pytest.raises(EmbeddingInfeasible, match=r"^request 9: random: no routable assignment "
                                                  r"within 10 attempts$"):
        random_embed(vnr, net, seed=0)


def test_random_is_deterministic_per_seed(toy_net, toy_vnr):
    a = random_embed(toy_vnr, toy_net, seed=5)
    b = random_embed(toy_vnr, toy_net, seed=5)
    assert a.node_map == b.node_map
    assert a.link_map == b.link_map


def test_random_validates(toy_net, toy_vnr):
    for seed in range(10):
        emb = random_embed(toy_vnr, toy_net, seed=seed)
        assert validate_embedding(toy_net, toy_vnr, emb) == []


def test_random_names_the_first_virtual_node_without_a_candidate(toy_net):
    # vsd 4 in domain 1 leaves only node 5, whose ssd 1 exceeds vsl 0.
    vnr = make_vnr([(0, 10, 0, 4, (0,)), (1, 10, 4, 0, (1,))], [(0, 1, 5)])
    with pytest.raises(EmbeddingInfeasible, match="virtual node 1 has no candidate"):
        random_embed(vnr, toy_net, seed=0)


@pytest.mark.parametrize("strategy", ["greedy", "random"])
def test_routing_builds_masks_at_most_once_per_call(monkeypatch, strategy):
    """On a bandwidth-bound stream a baseline's routing builds usable masks
    at most once per ``route_all_links`` call, only when a link falls back
    to a search, and only for demands missing from the substrate's mask
    store.  Allocate and release keep the store current and the default
    demands (1 to 10) stay under its limit, so no demand is built twice in
    the whole run."""
    calls = []
    searches = []
    builds = count_mask_builds(monkeypatch)
    plain_route_all, plain_route_link = routing.route_all_links, routing.route_link

    def route_all_links(*args):
        built, searched = len(builds), len(searches)
        try:
            return plain_route_all(*args)
        finally:
            calls.append((len(searches) - searched, len(builds) - built))

    def route_link(*args):
        searches.append(args[:3])
        return plain_route_link(*args)

    monkeypatch.setattr(routing, "route_all_links", route_all_links)
    monkeypatch.setattr(routing, "route_link", route_link)
    cfg = GeneratorConfig(seed=0, node_count=30, substrate_bw_range=(20, 60))
    run(generate_substrate(cfg), generate_vnr_stream(cfg, 1000.0), make_strategy(strategy),
        1000.0)
    assert all(built <= min(1, searched) for searched, built in calls)
    assert max(searched for searched, _ in calls) >= 2
    built = [d for demands in builds for d in demands]
    assert built and len(built) == len(set(built))


def test_random_builds_each_demand_once_per_substrate(monkeypatch):
    """On eight bandwidth-bound instances, where the random baseline
    retries requests whose routing fails, each demand's masks are built
    at most once per substrate: retries and later requests read the
    store."""
    builds = count_mask_builds(monkeypatch)
    attempts = []
    plain_build = baselines.build_embedding

    def build_embedding(*args):
        attempts.append(args[0].id)
        return plain_build(*args)

    monkeypatch.setattr(baselines, "build_embedding", build_embedding)
    retries = 0
    for seed in range(8):
        builds.clear()
        attempts.clear()
        cfg = GeneratorConfig(seed=seed, substrate_bw_range=(20, 60))
        run(generate_substrate(cfg), generate_vnr_stream(cfg, 1000.0),
            make_strategy("random", seed=seed), 1000.0)
        built = [d for demands in builds for d in demands]
        assert built and len(built) == len(set(built))
        retries += len(attempts) - len(set(attempts))
    assert retries > 0
