"""Priority formulas, candidate filtering, and the greedy priority mapping."""

import random

import pytest

from secvne.baselines import greedy_embed
from secvne.errors import EmbeddingInfeasible
from secvne.generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from secvne.model import Embedding, VirtualNode, allocate, release
from secvne.node_mapping import (
    THETA,
    candidate_nodes,
    candidate_scores,
    map_nodes,
    virtual_node_priority,
)
from secvne.pso import request_candidates

from conftest import make_substrate, make_vnr
from oracles import candidate_nodes_brute, map_nodes_brute


def vn(vid, cpu, vsd, vsl, cd):
    return VirtualNode(vid, cpu, vsd, vsl, frozenset(cd))


def mapped(vnr, net):
    """``map_nodes`` over the request's candidate lists, as a search calls it."""
    return map_nodes(vnr, net, request_candidates(vnr, net))


class TestVirtualPriority:
    def test_product(self):
        assert virtual_node_priority(vn(0, 30, 2, 0, (0,))) == 60

    def test_zero_demand_level(self):
        assert virtual_node_priority(vn(0, 99, 0, 0, (0,))) == 0

    def test_sort_order(self):
        nodes = [vn(0, 40, 3, 0, (0,)), vn(1, 100, 1, 0, (0,)), vn(2, 30, 2, 0, (0,))]
        prios = sorted((virtual_node_priority(v) for v in nodes), reverse=True)
        assert prios == [120, 100, 60]


class TestCandidates:
    def test_all_four_predicates(self):
        # A passes everything; B fails cpu; C fails the offered security level
        net = make_substrate(
            node_specs=[(0, 0, 20, 3, 1), (1, 0, 5, 4, 0), (2, 0, 30, 1, 0),
                        (3, 1, 50, 4, 0)],
            link_specs=[(0, 1, 10), (1, 2, 10), (0, 3, 10)],
        )
        v = vn(0, 10, 2, 3, (0,))
        assert candidate_nodes(v, net) == [0]

    def test_unknown_domain_gives_empty_set(self, toy_net):
        assert candidate_nodes(vn(0, 1, 0, 4, (7,)), toy_net) == []

    def test_permissive_security_accepts_everything_with_capacity(self):
        net = make_substrate(
            node_specs=[(i, 0, 10, 0, 0) for i in range(3)] + [(3, 1, 10, 0, 0)],
            link_specs=[(0, 1, 10), (1, 2, 10), (2, 3, 10)],
        )
        assert candidate_nodes(vn(0, 1, 0, 4, (0,)), net) == [0, 1, 2]

    def test_growing_residual_never_shrinks_candidates(self, toy_net):
        v = vn(0, 35, 1, 2, (0, 1))
        before = set(candidate_nodes(v, toy_net))
        for sid in toy_net.nodes:
            toy_net.nodes[sid].cpu_capacity += 50
            toy_net.nodes[sid].cpu_residual += 50
        after = set(candidate_nodes(v, toy_net))
        assert before <= after

    def test_index_matches_a_full_scan(self):
        """``candidate_nodes`` answers from the substrate's candidate index
        and must equal a full scan of every node: between allocations and
        releases, while CPU residuals move; on a copy, which shares the
        index while its residuals and the original's diverge; for a domain
        the substrate lacks; and for a security demand above every node's
        ssl, where no node qualifies.  Every list in the index holds
        ascending int node ids."""
        checked = 0

        def check(net, vnodes):
            nonlocal checked
            for v in vnodes:
                assert candidate_nodes(v, net) == candidate_nodes_brute(v, net)
                checked += 1

        for seed in range(4):
            cfg = GeneratorConfig(seed=seed, node_count=30, domain_count=3,
                                  vnr_node_range=(2, 5), cd_size_range=(1, 3))
            net = generate_substrate(cfg)
            vnrs = generate_vnr_stream(cfg, horizon=400)
            top = max(n.ssl for n in net.nodes.values())
            absent, above = vn(0, 1, 0, 4, (3,)), vn(1, 0, top + 1, 4, (0, 1, 2))
            vnodes = [v for vnr in vnrs for v in vnr.nodes.values()]
            vnodes += [absent, vn(2, 1, 0, 4, (0, 7)), above]
            assert candidate_nodes(absent, net) == candidate_nodes(above, net) == []
            check(net, vnodes)
            placed = []
            for vnr in vnrs:
                try:
                    emb = greedy_embed(vnr, net)
                except EmbeddingInfeasible:
                    continue
                allocate(net, emb)
                placed.append(emb)
                check(net, vnodes)
            assert len(placed) > 5
            snapshot = net.copy()
            assert snapshot.candidate_index is net.candidate_index
            check(snapshot, vnodes)
            for emb in random.Random(seed).sample(placed, len(placed)):
                release(net, emb)
                check(net, vnodes)
                check(snapshot, vnodes)
            assert net.candidate_index
            for ids in net.candidate_index.values():
                assert all(type(i) is int for i in ids) and ids == sorted(set(ids))
        assert checked > 1000

    def test_a_copy_reads_the_shared_index_by_its_own_residuals(self, toy_net):
        """A clone's lookup of a key its original filled adds no key and
        filters by the clone's own residuals: a node that an allocation on
        the original took below the demand is still listed on the clone."""
        v = vn(0, 50, 1, 2, (0, 1))
        assert candidate_nodes(v, toy_net) == [0, 1, 2, 3, 4, 5]
        clone = toy_net.copy()
        allocate(toy_net, Embedding(make_vnr([(0, 40, 0, 4, (0,))], []), {0: 1}, {}))
        assert toy_net.nodes[1].cpu_residual == 40 and clone.nodes[1].cpu_residual == 80
        assert candidate_nodes(v, toy_net) == [0, 2, 3, 4, 5]
        index = dict(clone.candidate_index)
        assert list(index) == [(v.cd, v.vsd, v.vsl)]
        assert candidate_nodes(v, clone) == [0, 1, 2, 3, 4, 5]
        assert clone.candidate_index == index
        assert index[(v.cd, v.vsd, v.vsl)] == [0, 1, 2, 3, 4, 5]


class TestSubstratePriority:
    def test_singleton_candidate_scores_zero(self, toy_net):
        v = vn(0, 10, 1, 2, (0,))
        assert candidate_scores(v, [0], toy_net) == {0: 0.0}

    def test_boundary_proximity_worth_theta(self):
        # two candidates identical except boundary distance 0 vs 2
        net = make_substrate(
            node_specs=[(0, 0, 50, 2, 0), (1, 0, 50, 2, 0), (2, 0, 50, 2, 0),
                        (3, 1, 50, 2, 0)],
            link_specs=[(0, 1, 10), (1, 2, 10), (0, 3, 10)],
        )
        v = vn(0, 10, 1, 4, (0,))
        scores = candidate_scores(v, [0, 2], net)
        assert scores[0] - scores[2] == pytest.approx(THETA)

    def test_hand_computed_two_candidate_scores(self):
        # security surplus 2 vs 0, cpu slack 10 vs 50, equal boundary distance
        net = make_substrate(
            node_specs=[(0, 0, 20, 3, 0), (1, 0, 60, 1, 0), (2, 1, 10, 0, 0)],
            link_specs=[(0, 1, 10), (0, 2, 10), (1, 2, 10)],
        )
        v = vn(0, 10, 1, 4, (0,))
        assert candidate_scores(v, [0, 1], net) == pytest.approx({0: 0.5, 1: 0.3})

    def test_scaling_security_differences_keeps_argmax(self):
        # min-max normalization absorbs positive scaling of the security term
        for scale in (1, 2, 5):
            net = make_substrate(
                node_specs=[(0, 0, 40, 0 + 1 * scale, 0), (1, 0, 45, 0 + 3 * scale, 0),
                            (2, 0, 60, 0 + 2 * scale, 0), (3, 1, 10, 0, 0)],
                link_specs=[(0, 1, 10), (1, 2, 10), (0, 2, 10), (0, 3, 10)],
            )
            v = vn(0, 10, 0, 4, (0,))
            cands = candidate_nodes(v, net)
            scores = candidate_scores(v, cands, net)
            best = min(cands, key=lambda sid: (-scores[sid], sid))
            assert best == 1  # highest surplus wins at every scale


class TestMapNodes:
    def test_single_node_forced_choice(self):
        net = make_substrate(
            node_specs=[(0, 0, 20, 3, 0), (1, 1, 5, 0, 0)],
            link_specs=[(0, 1, 10)],
        )
        vnr = make_vnr([(0, 10, 2, 3, (0,))], [])
        assert mapped(vnr, net) == {0: 0}

    def test_exhausted_candidates_fail_atomically(self):
        net = make_substrate(
            node_specs=[(0, 0, 50, 4, 0), (1, 1, 5, 0, 0)],
            link_specs=[(0, 1, 10)],
        )
        vnr = make_vnr([(0, 10, 2, 4, (0,)), (1, 10, 2, 4, (0,))], [(0, 1, 1)])
        with pytest.raises(EmbeddingInfeasible, match="no unused candidate"):
            mapped(vnr, net)

    def test_matches_stepwise_oracle_on_toy(self, toy_net, toy_vnr):
        expected = map_nodes_brute(toy_vnr, toy_net)
        assert mapped(toy_vnr, toy_net) == expected

    def test_matches_stepwise_oracle_on_random_instances(self):
        hits = 0
        for seed in range(20):
            cfg = GeneratorConfig(seed=seed, node_count=24, domain_count=2,
                                  vnr_node_range=(2, 5), cd_size_range=(1, 2))
            net = generate_substrate(cfg)
            vnrs = generate_vnr_stream(cfg, horizon=200)
            for vnr in vnrs[:5]:
                expected = map_nodes_brute(vnr, net)
                if expected is None:
                    with pytest.raises(EmbeddingInfeasible, match="no (unused )?candidate"):
                        mapped(vnr, net)
                else:
                    assert mapped(vnr, net) == expected
                    hits += 1
        assert hits > 10

    def test_priority_order_and_injectivity(self, toy_net, toy_vnr):
        assignment = mapped(toy_vnr, toy_net)
        prios = [virtual_node_priority(toy_vnr.nodes[vid]) for vid in assignment]
        assert prios == sorted(prios, reverse=True)
        assert len(set(assignment.values())) == len(assignment)

    def test_output_passes_node_level_validation(self, toy_net, toy_vnr):
        from secvne.routing import build_embedding
        from secvne.validation import validate_embedding

        emb = build_embedding(toy_vnr, mapped(toy_vnr, toy_net), toy_net)
        assert validate_embedding(toy_net, toy_vnr, emb) == []

    def test_determinism(self, toy_net, toy_vnr):
        a = mapped(toy_vnr, toy_net)
        b = mapped(toy_vnr, toy_net)
        assert list(a.items()) == list(b.items())
