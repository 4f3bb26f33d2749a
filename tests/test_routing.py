"""Path routing under residual-bandwidth constraints."""

import itertools
import random

import pytest

from secvne import routing
from secvne.baselines import greedy_embed
from secvne.errors import EmbeddingInfeasible
from secvne.generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from secvne.model import allocate, bfs_levels, link_key, release
from secvne.node_mapping import candidate_nodes
from secvne.routing import (MASK_STORE_LIMIT, _descend, hop_distances, min_hop_path,
                            route_all_links, route_link, stored_masks, usable_masks)

from conftest import contended_net, make_substrate, make_vnr, scattered_net, write_bw_residual
from oracles import (domain_cut_short, hop_distances_brute, route_all_brute,
                     shortest_feasible_path_brute, usable_masks_brute)


def route(src, dst, bw, net, debits=None):
    """``route_link`` over the usable masks ``usable_masks`` builds at ``bw``."""
    return route_link(src, dst, bw, net, debits, usable_masks((bw,), net)[bw])


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
        assert route(0, 1, 5, net) == (0, 1)

    def test_saturated_links_raise(self):
        net = grid_net([3, 3, 3, 3])
        with pytest.raises(EmbeddingInfeasible, match="no path"):
            route(0, 2, 5, net)

    def test_detour_when_direct_side_lacks_bandwidth(self):
        # 1-hop side 0-1 too small; 3-hop side 0-3-2-1 suffices
        net = grid_net([2, 10, 10, 10])
        assert route(0, 1, 5, net) == (0, 3, 2, 1)

    def test_equal_length_ties_break_lexicographically(self):
        net = grid_net([10, 10, 10, 10])
        # 0->2 has two 2-hop routes: (0,1,2) and (0,3,2)
        assert route(0, 2, 5, net) == (0, 1, 2)

    def test_same_endpoint_rejected(self):
        net = grid_net([10, 10, 10, 10])
        with pytest.raises(ValueError):
            route(0, 0, 1, net)

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
                            with pytest.raises(EmbeddingInfeasible, match="no path"):
                                route(src, dst, bw, net)
                        else:
                            assert route(src, dst, bw, net) == expected

    def test_matches_brute_force_under_debits_when_bandwidth_binds(self):
        checked = failed = 0
        for seed in range(6):
            cfg = GeneratorConfig(seed=seed, node_count=8, domain_count=2,
                                  intra_link_rate=0.5, substrate_bw_range=(20, 60))
            net = generate_substrate(cfg)
            rnd = random.Random(seed)
            keys = sorted(net.links)
            for _ in range(4):
                debits = {k: rnd.randint(1, 50) for k in rnd.sample(keys, len(keys) // 2)}
                for src, dst in itertools.permutations(sorted(net.nodes), 2):
                    for bw in (10, 25, 40):
                        expected = shortest_feasible_path_brute(net, src, dst, bw, debits)
                        if expected is None:
                            with pytest.raises(EmbeddingInfeasible, match="no path"):
                                route(src, dst, bw, net, debits)
                            failed += 1
                        else:
                            assert route(src, dst, bw, net, debits) == expected
                        checked += 1
        assert 0 < failed < checked

    @staticmethod
    def scattered_net(seed):
        """A random 10-node substrate whose node ids are neither contiguous
        nor inserted in ascending order, bandwidth U[20, 60]."""
        rnd = random.Random(seed)
        ids = [40, 7, 93, 15, 62, 3, 28, 71, 55, 12]
        links = [(a, b, rnd.randint(20, 60))
                 for a, b in itertools.combinations(ids, 2) if rnd.random() < 0.35]
        return make_substrate([(i, rnd.randint(0, 1), 10, 0, 0) for i in ids], links,
                              hops=False)

    def test_debits_alone_can_make_the_route_fail(self):
        # 0-1 direct (residual 10) and 0-2-1 (residual 10 each): both carry
        # 8 until the debits take 3 off the direct link and 5 off 2-1.
        net = make_substrate([(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 0, 10, 0, 0),
                              (3, 1, 10, 0, 0)],
                             [(0, 1, 10), (0, 2, 10), (1, 2, 10), (2, 3, 10)], hops=False)
        masks = usable_masks([8], net)[8]
        assert route_link(0, 1, 8, net, {}, masks) == (0, 1)
        debits = {(0, 1): 3, (1, 2): 5}
        assert shortest_feasible_path_brute(net, 0, 1, 8, debits) is None
        with pytest.raises(EmbeddingInfeasible, match="no path"):
            route_link(0, 1, 8, net, debits, masks)
        assert shortest_feasible_path_brute(net, 0, 1, 8, {(0, 1): 3}) == (0, 2, 1)
        assert route_link(0, 1, 8, net, {(0, 1): 3}, masks) == (0, 2, 1)
        assert masks == usable_masks_brute(net, 8)  # the debits went to a copy

    def test_plan_and_on_the_fly_masks_match_brute_force_under_debits(self):
        """The masks at a demand route the same whether they are built for it
        alone or for every demand of a request.  Also on substrates with
        scattered node ids inserted out of order: bit ranks follow ascending
        node id, so ties still break toward the smallest ids."""
        seen = set()
        for seed in range(6):
            scattered = self.scattered_net(seed)
            assert scattered.node_ids == sorted(scattered.nodes) != list(scattered.nodes)
            for net in (contended_net(seed), scattered):
                rnd = random.Random(seed)
                keys = sorted(net.links)
                demands = (10, 25, 40)
                plan_masks = usable_masks(demands, net)
                before = {d: list(m) for d, m in plan_masks.items()}
                for debits in [{}] + [{k: rnd.randint(1, 30)
                                       for k in rnd.sample(keys, len(keys) // 3)}
                                      for _ in range(3)]:
                    for src, dst in itertools.permutations(net.node_ids, 2):
                        for bw in demands:
                            expected = shortest_feasible_path_brute(net, src, dst, bw, debits)
                            for masks in (usable_masks((bw,), net)[bw], plan_masks[bw]):
                                try:
                                    got = route_link(src, dst, bw, net, debits, masks)
                                except EmbeddingInfeasible:
                                    got = None
                                assert got == expected
                            seen.add(expected is None)
                assert plan_masks == before
        assert seen == {True, False}


class TestUsableMasks:
    def test_no_demands_give_no_masks(self, toy_net):
        assert usable_masks([], toy_net) == {}

    def test_masks_match_brute_force(self):
        """One mask list per distinct demand, each the brute-force usable
        masks, also on substrates whose node ids are scattered or whose
        topology is disconnected."""
        nets = [scattered_net()]
        for seed in range(6):
            nets += [contended_net(seed), TestRouteLink.scattered_net(seed)]
        for net in nets:
            masks = usable_masks([15, 30, 45, 30, 60, 1], net)
            assert sorted(masks) == [1, 15, 30, 45, 60]
            for d, mask in masks.items():
                assert mask == usable_masks_brute(net, d)

    @pytest.mark.parametrize("equal", [True, False], ids=["equal-masks", "distinct-masks"])
    def test_every_demand_gets_a_list_of_its_own(self, equal):
        """Every demand gets a list of its own, never the topology's, also
        when it drops no link beyond the next smaller demand; every list is
        the brute-force usable masks."""
        for seed in range(6):
            net = contended_net(seed, node_count=12)
            if equal:
                # Residuals 5, 10 and 20: demand 3 drops no link, and
                # demands 5, 10 and 20 none beyond 3, 8 and 15.
                for i, k in enumerate(sorted(net.links)):
                    write_bw_residual(net, net.links[k], (5, 10, 20)[i % 3])
                demands = [3, 5, 8, 10, 15, 20, 25]
            else:
                # Demand r + 1 drops every link of residual r.
                demands = sorted({l.bw_residual + 1 for l in net.links.values()})
            masks = usable_masks(demands, net)
            for d in demands:
                assert masks[d] == usable_masks_brute(net, d)
            if equal:
                assert masks[3] == net.adj_masks
                for below, d in ((3, 5), (8, 10), (15, 20)):
                    assert masks[d] == masks[below]
            assert len({id(m) for m in masks.values()}) == len(demands)
            assert all(m is not net.adj_masks for m in masks.values())


class TestRouteAllLinks:
    def test_cut_short_position_makes_route_all_links_raise(self):
        """A position whose virtual links leaving some domain demand more
        than the residual of its inter-domain links does not route."""
        vnr = make_vnr(
            [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0, 1)), (2, 1, 0, 4, (1,))],
            [(0, 1, 30), (1, 2, 20), (0, 2, 10)],
        )
        rejected = 0
        for seed in range(6):
            net = contended_net(seed)
            for nodes in itertools.permutations(sorted(net.nodes), 3):
                assignment = dict(enumerate(nodes))
                if not domain_cut_short(vnr, assignment, net):
                    continue
                rejected += 1
                assert route_all_brute(vnr, assignment, net) is None
                with pytest.raises(EmbeddingInfeasible, match="no path"):
                    route_all_links(vnr, assignment, net)
        assert rejected > 100

    def test_zero_link_vnr_costs_nothing(self, toy_net):
        vnr = make_vnr([(0, 5, 0, 4, (0,))], [])
        assert route_all_links(vnr, {0: 0}, toy_net) == ({}, 0)

    def test_two_hop_path_cost(self):
        net = make_substrate(
            node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 0, 10, 0, 0),
                        (3, 1, 10, 0, 0)],
            link_specs=[(0, 1, 100), (1, 2, 100), (0, 3, 100)],
        )
        vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,))], [(0, 1, 10)])
        assert route_all_links(vnr, {0: 0, 1: 2}, net) == ({(0, 1): (0, 1, 2)}, 20)

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
        with pytest.raises(EmbeddingInfeasible, match="no path"):
            route_all_links(vnr, {0: 2, 1: 3, 2: 1, 3: 4}, net)

    def test_endpoints_on_one_host_raise(self, toy_net):
        vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,))], [(0, 1, 5)])
        with pytest.raises(EmbeddingInfeasible,
                           match=r"^virtual link \(0, 1\) endpoints share node 2$"):
            route_all_links(vnr, {0: 2, 1: 2}, toy_net)

    def test_cumulative_debits_never_oversubscribe(self, toy_net):
        vnr = make_vnr(
            [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,)), (2, 1, 0, 4, (1,))],
            [(0, 1, 400), (1, 2, 400), (0, 2, 400)],
        )
        paths, _ = route_all_links(vnr, {0: 0, 1: 2, 2: 3}, toy_net)
        load = {}
        for vkey, path in paths.items():
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
                with pytest.raises(EmbeddingInfeasible, match="no path"):
                    route_all_links(vnr, assignment, net)
            else:
                assert route_all_links(vnr, assignment, net) == expected

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
        assert route_all_links(warm, {0: 4, 1: 5}, net) == ({(0, 1): (4, 1, 2, 5)}, 15)
        assert min_hop_path(4, 5, net) == (4, 1, 2, 5)
        # now a request whose 9-unit link saturates 1-2 before the 5-unit
        # link needs it; the table's (4, ..., 5) route must be re-derived
        vnr = make_vnr(
            [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,)),
             (2, 1, 0, 4, (0,)), (3, 1, 0, 4, (0,))],
            [(0, 1, 9), (2, 3, 5)],
        )
        assignment = {0: 0, 1: 3, 2: 4, 3: 5}
        routed = route_all_links(vnr, assignment, net)
        assert routed == route_all_brute(vnr, assignment, net)
        assert routed[0][(0, 1)] == (0, 1, 2, 3)       # debits 1-2 down to 3
        assert routed[0][(2, 3)] == (4, 1, 6, 2, 5)    # forced detour
        assert min_hop_path(4, 5, net) == (4, 1, 2, 5)  # debits leave the table alone

    def test_path_table_gives_identical_results(self, toy_net):
        vnr = make_vnr(
            [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0, 1)), (2, 1, 0, 4, (1,))],
            [(0, 1, 7), (1, 2, 5), (0, 2, 3)],
        )
        assignments = [{0: 0, 1: 2, 2: 3}, {0: 1, 1: 2, 2: 5}, {0: 0, 1: 2, 2: 3}]
        for assignment in assignments:
            assert (route_all_links(vnr, assignment, toy_net.copy())
                    == route_all_links(vnr, assignment, toy_net))

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
                    with pytest.raises(EmbeddingInfeasible, match="no path"):
                        route_all_links(vnr, assignment, net)
                else:
                    assert route_all_links(vnr, assignment, net) == expected
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

    def test_hop_distances_and_paths_on_scattered_ids(self):
        """The hop row of a destination lists each source by its bit rank,
        None where no path joins the two."""
        net = scattered_net()
        unjoined = 0
        for dst in net.nodes:
            expected = [None] * len(net.nodes)
            expected[net.rank[dst]] = 0
            for src in net.nodes:
                if src == dst:
                    continue
                path = shortest_feasible_path_brute(net, src, dst, 0)
                if path is None:
                    unjoined += 1
                    with pytest.raises(EmbeddingInfeasible, match="does not join"):
                        min_hop_path(src, dst, net)
                else:
                    expected[net.rank[src]] = len(path) - 1
                    assert min_hop_path(src, dst, net) == path
            assert hop_distances(dst, net) == expected
        assert unjoined

    def test_next_hop_walk_is_the_descent(self):
        """The walk down a next-hop row gives the path ``_descend`` takes
        over the levels of a full search from the destination, as long as
        the plain breadth-first distance, from every source, on scattered
        ids, on a substrate of two parts and on generated substrates whose
        equal-hop paths tie."""
        nets = [scattered_net()] + [
            generate_substrate(GeneratorConfig(seed=seed, node_count=12, domain_count=3,
                                               intra_link_rate=0.5))
            for seed in range(3)]
        unjoined = 0
        for net in nets:
            rank = net.rank
            for dst in net.nodes:
                levels = bfs_levels(1 << rank[dst], net.adj_masks)
                brute = hop_distances_brute(net, dst)
                for src in net.nodes:
                    hops = brute.get(src)
                    if hops is None:
                        unjoined += 1
                        with pytest.raises(EmbeddingInfeasible, match="does not join"):
                            min_hop_path(src, dst, net)
                        assert net.hop_next[rank[dst]][rank[src]] is None
                        continue
                    path = _descend(rank[src], levels[:hops], net.adj_masks, net.node_ids)
                    assert len(path) == hops + 1
                    assert min_hop_path(src, dst, net) == path
        assert unjoined

    def test_ignores_bandwidth(self):
        net = grid_net([2, 10, 10, 10])
        assert min_hop_path(0, 1, net) == (0, 1)
        assert route(0, 1, 5, net) == (0, 3, 2, 1)

    def test_copy_shares_the_table_and_keeps_its_own_state(self, toy_net):
        """The clone holds the very table lists of the original, so a row
        either fills serves both, and its residuals, mask store, active
        records and candidate index are its own."""
        assert min_hop_path(0, 5, toy_net) == (0, 2, 3, 5)
        stored_masks([5], toy_net)
        candidate_nodes(make_vnr([(0, 1, 0, 4, (0,))], []).nodes[0], toy_net)
        assert toy_net.mask_store and toy_net.candidate_index
        clone = toy_net.copy()
        assert clone.hop_dist is toy_net.hop_dist and clone.hop_next is toy_net.hop_next
        assert min_hop_path(5, 0, clone) == (5, 3, 2, 0)
        assert toy_net.hop_dist[toy_net.rank[0]] is not None
        assert clone.mask_store == {} and clone.candidate_index == {} and clone.active == {}
        assert clone.mask_store is not toy_net.mask_store
        assert clone.active is not toy_net.active
        assert clone.candidate_index is not toy_net.candidate_index
        for nid, node in clone.nodes.items():
            assert node is not toy_net.nodes[nid] and node == toy_net.nodes[nid]
        for k, link in clone.links.items():
            assert link is not toy_net.links[k] and link == toy_net.links[k]

    def test_disjoint_domains_are_infeasible(self):
        net = make_substrate(
            node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 1, 10, 0, 0),
                        (3, 1, 10, 0, 0)],
            link_specs=[(0, 1, 100), (2, 3, 100)],
            hops=False,
        )
        with pytest.raises(EmbeddingInfeasible, match="does not join"):
            min_hop_path(1, 2, net)
        vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (1,))], [(0, 1, 5)])
        with pytest.raises(EmbeddingInfeasible, match="does not join"):
            route_all_links(vnr, {0: 1, 1: 2}, net)


class TestMaskStore:
    """The substrate's mask store: filled by ``stored_masks``, kept equal
    to a fresh build by allocate and release, bounded, and never shared."""

    @staticmethod
    def check(net, demands):
        store = net.mask_store
        assert store.keys() == set(demands)
        for d, masks in store.items():
            assert masks == usable_masks_brute(net, d)
            assert masks is not net.adj_masks

    def test_allocate_and_release_keep_the_store_current(self):
        """On binding substrates whose store holds every demand 1 to
        ``MASK_STORE_LIMIT``, so that residuals often land on a stored
        demand exactly, the store equals the brute-force masks after every
        allocate and after every release, released in shuffled order.  A
        copy starts empty, builds its own lists, and later events on the
        original leave it as it was."""
        demands = range(1, MASK_STORE_LIMIT + 1)
        moves = 0
        for seed in range(6):
            cfg = GeneratorConfig(seed=seed, node_count=16, domain_count=2,
                                  substrate_bw_range=(20, 60), vnr_node_range=(2, 4),
                                  vnr_bw_range=(1, 12))
            net = generate_substrate(cfg)
            assert stored_masks(demands, net) is net.mask_store
            self.check(net, demands)
            rnd = random.Random(seed)
            placed = []
            for i, vnr in enumerate(generate_vnr_stream(cfg, horizon=1500)):
                try:
                    emb = greedy_embed(vnr, net)
                except EmbeddingInfeasible:
                    continue
                allocate(net, emb)
                placed.append(emb)
                self.check(net, demands)
                if i % 3 == 0:
                    release(net, placed.pop(rnd.randrange(len(placed))))
                    self.check(net, demands)
                    moves += 1
                moves += 1
            snapshot = net.copy()
            assert snapshot.mask_store == {}
            stored_masks(demands, snapshot)
            self.check(snapshot, demands)
            assert not {id(m) for m in snapshot.mask_store.values()} & {
                id(m) for m in net.mask_store.values()}
            frozen = {d: list(m) for d, m in snapshot.mask_store.items()}
            rnd.shuffle(placed)
            for emb in placed:
                release(net, emb)
                self.check(net, demands)
                moves += 1
            assert snapshot.mask_store == frozen
        assert moves > 100

    def test_store_is_emptied_before_it_would_pass_the_limit(self, toy_net):
        """Missing demands that would take the store past the limit empty it
        first, and then every demand asked for is built; up to the limit
        the store only grows."""
        full = range(1, MASK_STORE_LIMIT + 1)
        stored_masks(full[:10], toy_net)
        stored_masks(full, toy_net)
        self.check(toy_net, full)
        stored_masks([1, 2, 40], toy_net)
        self.check(toy_net, [1, 2, 40])
        many = range(100, 100 + MASK_STORE_LIMIT + 5)
        stored_masks(many, toy_net)
        self.check(toy_net, many)
        stored_masks([7], toy_net)
        self.check(toy_net, [7])
