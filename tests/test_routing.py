"""Path routing under residual-bandwidth constraints."""

import itertools

import pytest

from secvne import routing
from secvne.errors import LinkMappingInfeasible, NoFeasiblePath
from secvne.generate import GeneratorConfig, generate_substrate
from secvne.model import link_key
from secvne.routing import min_hop_path, route_all_links, route_link

from conftest import make_substrate, make_vnr
from oracles import route_all_brute, shortest_feasible_path_brute


def grid_net(bws):
    """4-node cycle 0-1-2-3 with per-edge bandwidths, plus a domain-1 anchor."""
    return make_substrate(
        node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 0, 10, 0, 0),
                    (3, 0, 10, 0, 0), (4, 1, 10, 0, 0)],
        link_specs=[(0, 1, bws[0]), (1, 2, bws[1]), (2, 3, bws[2]), (3, 0, bws[3]),
                    (0, 4, 1000)],
    )


class TestRouteLink:
    def test_adjacent_nodes_take_direct_link(self):
        net = grid_net([10, 10, 10, 10])
        assert route_link(0, 1, 5, net) == (0, 1)

    def test_saturated_links_raise(self):
        net = grid_net([3, 3, 3, 3])
        with pytest.raises(NoFeasiblePath):
            route_link(0, 2, 5, net)

    def test_detour_when_direct_side_lacks_bandwidth(self):
        # 1-hop side 0-1 too small; 3-hop side 0-3-2-1 suffices
        net = grid_net([2, 10, 10, 10])
        assert route_link(0, 1, 5, net) == (0, 3, 2, 1)

    def test_equal_length_ties_break_lexicographically(self):
        net = grid_net([10, 10, 10, 10])
        # 0->2 has two 2-hop routes: (0,1,2) and (0,3,2)
        assert route_link(0, 2, 5, net) == (0, 1, 2)

    def test_same_endpoint_rejected(self):
        net = grid_net([10, 10, 10, 10])
        with pytest.raises(ValueError):
            route_link(0, 0, 1, net)

    def test_matches_brute_force_on_random_graphs(self):
        for seed in range(6):
            cfg = GeneratorConfig(seed=seed, node_count=8, domain_count=2,
                                  intra_link_rate=0.4, substrate_bw_range=(1, 9))
            net = generate_substrate(cfg)
            ids = sorted(net.nodes)
            for src in ids:
                for dst in ids:
                    if src >= dst:
                        continue
                    for bw in (1, 4, 8):
                        expected = shortest_feasible_path_brute(net, src, dst, bw)
                        if expected is None:
                            with pytest.raises(NoFeasiblePath):
                                route_link(src, dst, bw, net)
                        else:
                            assert route_link(src, dst, bw, net) == expected


class TestRouteAllLinks:
    def test_zero_link_vnr_costs_nothing(self, toy_net):
        vnr = make_vnr([(0, 5, 0, 4, (0,))], [])
        result = route_all_links(vnr, {0: 0}, toy_net)
        assert result.paths == {}
        assert result.total_bw_cost == 0

    def test_two_hop_path_cost(self):
        net = make_substrate(
            node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 0, 10, 0, 0),
                        (3, 1, 10, 0, 0)],
            link_specs=[(0, 1, 100), (1, 2, 100), (0, 3, 100)],
        )
        vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,))], [(0, 1, 10)])
        result = route_all_links(vnr, {0: 0, 1: 2}, net)
        assert result.paths[(0, 1)] == (0, 1, 2)
        assert result.total_bw_cost == 20

    def test_shared_bottleneck_fails_atomically(self):
        # two virtual links must both cross the single 0-1 bridge of capacity 12
        net = make_substrate(
            node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 0, 10, 0, 0),
                        (3, 0, 10, 0, 0), (4, 1, 10, 0, 0)],
            link_specs=[(2, 0, 100), (3, 0, 100), (0, 1, 12), (1, 4, 1000)],
        )
        vnr = make_vnr(
            [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,)), (2, 1, 0, 4, (0,)), (3, 1, 0, 4, (1,))],
            [(0, 3, 8), (1, 3, 8), (0, 1, 1), (1, 2, 1), (2, 3, 1)],
        )
        # 8 + 8 = 16 > 12 on the bridge; the second 8-demand link must fail
        with pytest.raises(LinkMappingInfeasible):
            route_all_links(vnr, {0: 2, 1: 3, 2: 1, 3: 4}, net)

    def test_cumulative_debits_never_oversubscribe(self, toy_net):
        vnr = make_vnr(
            [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,)), (2, 1, 0, 4, (1,))],
            [(0, 1, 400), (1, 2, 400), (0, 2, 400)],
        )
        result = route_all_links(vnr, {0: 0, 1: 2, 2: 3}, toy_net)
        load = {}
        for vkey, path in result.paths.items():
            for i in range(len(path) - 1):
                k = link_key(path[i], path[i + 1])
                load[k] = load.get(k, 0) + vnr.links[vkey].bw_demand
        for k, used in load.items():
            assert used <= toy_net.links[k].bw_residual

    def test_matches_brute_force_cumulative_routing(self):
        for seed in range(4):
            cfg = GeneratorConfig(seed=seed, node_count=8, domain_count=2,
                                  intra_link_rate=0.5, substrate_bw_range=(5, 20))
            net = generate_substrate(cfg)
            vnr = make_vnr(
                [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0, 1)), (2, 1, 0, 4, (1,))],
                [(0, 1, 6), (1, 2, 6), (0, 2, 3)],
            )
            ids = sorted(net.nodes)
            assignment = {0: ids[0], 1: ids[2], 2: ids[-1]}
            expected = route_all_brute(vnr, assignment, net)
            if expected is None:
                with pytest.raises(LinkMappingInfeasible):
                    route_all_links(vnr, assignment, net)
            else:
                result = route_all_links(vnr, assignment, net)
                assert result.paths == expected[0]
                assert result.total_bw_cost == expected[1]

    def test_path_table_revalidates_under_debits(self):
        """A table path that an earlier link's debit saturates must be
        re-routed by the fallback, matching the brute-force router exactly."""
        net = make_substrate(
            node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 0, 10, 0, 0),
                        (3, 0, 10, 0, 0), (4, 0, 10, 0, 0), (5, 0, 10, 0, 0),
                        (6, 0, 10, 0, 0), (7, 1, 10, 0, 0)],
            link_specs=[(0, 1, 100), (1, 2, 12), (2, 3, 100),   # chain P-X-Y-Q
                        (4, 1, 100), (2, 5, 100),               # spurs R-X, Y-S
                        (1, 6, 100), (6, 2, 100),               # detour X-A-Y
                        (0, 7, 100)],
        )
        # fill the table with the route R -> S (via the 12-capacity link)
        warm = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,))], [(0, 1, 5)])
        warmed = route_all_links(warm, {0: 4, 1: 5}, net)
        assert warmed.paths[(0, 1)] == (4, 1, 2, 5)
        assert net.min_hop_paths[(4, 5)] == (4, 1, 2, 5)
        # now a request whose 9-unit link saturates 1-2 before the 5-unit
        # link needs it; the table's (4, ..., 5) route must be re-derived
        vnr = make_vnr(
            [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,)),
             (2, 1, 0, 4, (0,)), (3, 1, 0, 4, (0,))],
            [(0, 1, 9), (2, 3, 5)],
        )
        assignment = {0: 0, 1: 3, 2: 4, 3: 5}
        routed = route_all_links(vnr, assignment, net)
        expected_paths, expected_cost = route_all_brute(vnr, assignment, net)
        assert routed.paths == expected_paths
        assert routed.paths[(0, 1)] == (0, 1, 2, 3)       # debits 1-2 down to 3
        assert routed.paths[(2, 3)] == (4, 1, 6, 2, 5)    # forced detour
        assert routed.total_bw_cost == expected_cost
        assert net.min_hop_paths[(4, 5)] == (4, 1, 2, 5)  # debits leave the table alone

    def test_path_table_gives_identical_results(self, toy_net):
        vnr = make_vnr(
            [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0, 1)), (2, 1, 0, 4, (1,))],
            [(0, 1, 7), (1, 2, 5), (0, 2, 3)],
        )
        assignments = [{0: 0, 1: 2, 2: 3}, {0: 1, 1: 2, 2: 5}, {0: 0, 1: 2, 2: 3}]
        for assignment in assignments:
            fresh = route_all_links(vnr, assignment, toy_net.copy())
            shared = route_all_links(vnr, assignment, toy_net)
            assert fresh.paths == shared.paths
            assert fresh.total_bw_cost == shared.total_bw_cost

    def test_matches_brute_force_when_bandwidth_binds(self, monkeypatch):
        bfs_calls = []
        plain_route_link = routing.route_link

        def counting_route_link(*args):
            bfs_calls.append(args[:3])
            return plain_route_link(*args)

        monkeypatch.setattr(routing, "route_link", counting_route_link)
        vnr = make_vnr(
            [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0, 1)), (2, 1, 0, 4, (1,)),
             (3, 1, 0, 4, (0, 1))],
            [(0, 1, 18), (1, 2, 14), (0, 2, 10), (2, 3, 6)],
        )
        for seed in range(4):
            cfg = GeneratorConfig(seed=seed, node_count=8, domain_count=2,
                                  intra_link_rate=0.5, substrate_bw_range=(20, 60))
            net = generate_substrate(cfg)
            for nodes in list(itertools.permutations(sorted(net.nodes), 4))[::29]:
                assignment = dict(enumerate(nodes))
                expected = route_all_brute(vnr, assignment, net)
                if expected is None:
                    with pytest.raises(LinkMappingInfeasible):
                        route_all_links(vnr, assignment, net)
                else:
                    result = route_all_links(vnr, assignment, net)
                    assert result.paths == expected[0]
                    assert result.total_bw_cost == expected[1]
        assert bfs_calls


class TestMinHopPath:
    def test_matches_brute_force_on_random_graphs(self):
        for seed in range(6):
            cfg = GeneratorConfig(seed=seed, node_count=8, domain_count=2,
                                  intra_link_rate=0.4, substrate_bw_range=(1, 9))
            net = generate_substrate(cfg)
            for src in net.nodes:
                for dst in net.nodes:
                    if src != dst:
                        assert (min_hop_path(src, dst, net)
                                == shortest_feasible_path_brute(net, src, dst, 0))

    def test_ignores_bandwidth(self):
        net = grid_net([2, 10, 10, 10])
        assert min_hop_path(0, 1, net) == (0, 1)
        assert route_link(0, 1, 5, net) == (0, 3, 2, 1)

    def test_copy_starts_with_an_empty_table(self, toy_net):
        assert min_hop_path(0, 5, toy_net) == (0, 2, 3, 5)
        assert toy_net.min_hop_paths and toy_net.hop_dist
        clone = toy_net.copy()
        assert clone.min_hop_paths == {} and clone.hop_dist == {}

    def test_disjoint_domains_are_infeasible(self):
        net = make_substrate(
            node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 1, 10, 0, 0),
                        (3, 1, 10, 0, 0)],
            link_specs=[(0, 1, 100), (2, 3, 100)],
            hops=False,
        )
        with pytest.raises(NoFeasiblePath):
            min_hop_path(1, 2, net)
        vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (1,))], [(0, 1, 5)])
        with pytest.raises(LinkMappingInfeasible):
            route_all_links(vnr, {0: 1, 1: 2}, net)
