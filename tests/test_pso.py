"""Discrete swarm operators and the full search loop."""

import math

import numpy as np
import pytest

from secvne import metrics
from secvne.errors import EmbeddingInfeasible, LengthMismatch
from secvne.generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from secvne.pso import (
    Particle,
    PsoConfig,
    fitness,
    injective_assignment,
    optimize,
    position_subtract,
    position_update,
    random_injective,
    sample_injective,
    swarm_search,
    velocity_update,
)
from secvne.validation import validate_embedding

from conftest import make_substrate, make_vnr
from oracles import best_fitness_brute


def particle_at(position, velocity=None, pbest=None):
    velocity = velocity if velocity is not None else [0] * len(position)
    pbest = pbest if pbest is not None else list(position)
    return Particle(list(position), velocity, pbest, 0.0)


class TestOperators:
    def test_subtract_indicator(self):
        assert position_subtract([1, 2, 3], [1, 5, 3]) == [1, 0, 1]

    def test_subtract_identity_and_disjoint(self):
        assert position_subtract([4, 5], [4, 5]) == [1, 1]
        assert position_subtract([4, 5], [6, 7]) == [0, 0]

    def test_subtract_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            position_subtract([1], [1, 2])

    def test_velocity_rounding_threshold(self):
        # omega*v + r1*c1*pb + r2*c2*gb = 0.5 + 0.9 + 0 = 1.4 -> keeps the bit
        p = particle_at([7, 8], velocity=[1, 0], pbest=[7, 9])
        v = velocity_update(p, [9, 9], omega=0.5, r1=0.6, r2=0.3)
        assert v[0] == 1  # s = 0.5*1 + 0.9*1 + 0.45*0 = 1.4
        assert v[1] == 0  # s = 0

    def test_velocity_zero_sum_gives_zero(self):
        p = particle_at([7, 8], velocity=[0, 0], pbest=[1, 1])
        assert velocity_update(p, [2, 2], omega=0.9, r1=1.0, r2=1.0) == [0, 0]

    def test_velocity_agreement_with_both_bests_locks(self):
        p = particle_at([7], velocity=[0], pbest=[7])
        assert velocity_update(p, [7], omega=0.5, r1=1.0, r2=1.0) == [1]  # s = 3.0

    def test_velocity_half_up_boundary(self):
        # s = 0.5 exactly must round up to 1
        p = particle_at([7], velocity=[1], pbest=[0])
        assert velocity_update(p, [0], omega=0.5, r1=0.0, r2=0.0) == [1]

    def test_position_update_all_ones_keeps_everything(self):
        rng = np.random.default_rng(0)
        p = particle_at([3, 4])
        assert position_update(p, [1, 1], [[3, 9], [4, 9]], rng) == [3, 4]

    def test_position_update_all_zeros_is_fresh_injective_sample(self):
        rng = np.random.default_rng(0)
        p = particle_at([3, 4])
        cands = [[3, 9], [4, 9]]
        out = position_update(p, [0, 0], cands, rng)
        assert out[0] in cands[0] and out[1] in cands[1]
        assert out[0] != out[1]

    def test_position_update_excludes_kept_nodes(self):
        # component 0 keeps node 5; component 1 must re-draw avoiding it
        rng = np.random.default_rng(1)
        p = particle_at([5, 6])
        for _ in range(20):
            out = position_update(p, [1, 0], [[5], [5, 6, 7]], rng)
            assert out[0] == 5
            assert out[1] in (6, 7)

    def test_position_update_dead_end_rerandomizes(self):
        rng = np.random.default_rng(2)
        p = particle_at([5, 6])
        # component 1 keeps 6? no: velocity 0 on both, candidates force collision
        out = position_update(p, [0, 0], [[5, 6], [5, 6]], rng)
        assert sorted(out) == [5, 6]

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(LengthMismatch):
            position_update(particle_at([1]), [0, 1], [[1]], rng)
        with pytest.raises(LengthMismatch):
            velocity_update(particle_at([1]), [1, 2], 0.5, 0.5, 0.5)


class TestInjectiveSampling:
    def test_matching_finds_assignment_when_tight(self):
        assert injective_assignment([[1], [1, 2]]) == [1, 2]
        assert injective_assignment([[1], [1]]) is None

    def test_random_injective_respects_candidates(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            out = random_injective([[1, 2], [2, 3], [1, 3]], rng)
            assert len(set(out)) == 3
            for k, pool in enumerate([[1, 2], [2, 3], [1, 3]]):
                assert out[k] in pool

    def test_random_injective_impossible_raises(self):
        rng = np.random.default_rng(4)
        with pytest.raises(EmbeddingInfeasible):
            random_injective([[1], [1]], rng)

    def test_sample_injective_returns_none_when_a_pool_empties(self):
        rng = np.random.default_rng(5)
        assert sample_injective([[1], [1, 2], [2]], rng) is None
        assert sample_injective([[1], [1, 2]], rng) == [1, 2]


class TestFitness:
    def test_cost_of_two_hop_link(self):
        net = make_substrate(
            node_specs=[(0, 0, 50, 0, 0), (1, 0, 50, 0, 0), (2, 0, 50, 0, 0),
                        (3, 1, 50, 0, 0)],
            link_specs=[(0, 1, 100), (1, 2, 100), (0, 3, 100)],
        )
        vnr = make_vnr([(0, 10, 0, 4, (0,)), (1, 20, 0, 4, (0,))], [(0, 1, 10)])
        assert fitness([0, 2], vnr, net, [0, 1]) == 50.0  # 30 cpu + 10*2 hops

    def test_infeasible_routing_is_plus_infinity(self):
        net = make_substrate(
            node_specs=[(0, 0, 50, 0, 0), (1, 0, 50, 0, 0), (2, 1, 50, 0, 0)],
            link_specs=[(0, 1, 3), (0, 2, 100)],
        )
        vnr = make_vnr([(0, 10, 0, 4, (0,)), (1, 20, 0, 4, (0,))], [(0, 1, 10)])
        assert fitness([0, 1], vnr, net, [0, 1]) == math.inf

    def test_zero_link_vnr_fitness_is_cpu_total(self, toy_net):
        vnr = make_vnr([(0, 15, 0, 4, (0,))], [])
        assert fitness([4], vnr, toy_net, [0]) == 15.0


class TestSwarm:
    def test_unique_feasible_assignment_is_returned(self):
        net = make_substrate(
            node_specs=[(0, 0, 30, 4, 0), (1, 0, 5, 0, 0), (2, 1, 30, 4, 0)],
            link_specs=[(0, 1, 100), (0, 2, 100)],
        )
        vnr = make_vnr([(0, 10, 3, 4, (0,)), (1, 10, 3, 4, (1,))], [(0, 1, 5)])
        emb = optimize(vnr, net, PsoConfig(seed=5))
        assert emb.node_map == {0: 0, 1: 2}

    def test_empty_candidate_set_is_infeasible(self, toy_net):
        vnr = make_vnr([(0, 10, 4, 0, (1,)), (1, 10, 0, 4, (0,))], [(0, 1, 5)])
        # vsd=4 but domain 1 tops out at ssl=4 on node 5 with ssd=1 > vsl=0
        with pytest.raises(EmbeddingInfeasible):
            optimize(vnr, toy_net, PsoConfig(seed=1))

    def test_gbest_history_non_increasing(self, toy_net, toy_vnr):
        for seed in range(10):
            result = swarm_search(toy_vnr, toy_net, PsoConfig(seed=seed))
            hist = result.gbest_history
            assert len(hist) == PsoConfig().iterations + 1
            assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_matches_brute_force_on_fixed_toy(self, toy_net, toy_vnr):
        expected = best_fitness_brute(toy_vnr, toy_net)
        result = swarm_search(toy_vnr, toy_net, PsoConfig(seed=0))
        assert result.fitness == expected

    def test_best_of_seeds_reaches_brute_force_optimum(self):
        cfg = GeneratorConfig(seed=20, node_count=12, domain_count=2,
                              vnr_node_range=(3, 4), cd_size_range=(1, 2))
        net = generate_substrate(cfg)
        vnrs = [v for v in generate_vnr_stream(cfg, horizon=400) if len(v.nodes) <= 4]
        checked = 0
        for vnr in vnrs[:3]:
            expected = best_fitness_brute(vnr, net)
            if expected is None:
                continue
            best = min(swarm_search(vnr, net, PsoConfig(seed=s)).fitness
                       for s in range(10))
            assert best == expected
            checked += 1
        assert checked >= 1

    def test_returned_embedding_validates(self, toy_net, toy_vnr):
        emb = optimize(toy_vnr, toy_net, PsoConfig(seed=3))
        assert validate_embedding(toy_net, toy_vnr, emb) == []

    def test_determinism(self, toy_net, toy_vnr):
        a = optimize(toy_vnr, toy_net, PsoConfig(seed=9))
        b = optimize(toy_vnr, toy_net, PsoConfig(seed=9))
        assert a.node_map == b.node_map
        assert a.link_map == b.link_map
        assert metrics.revenue(a.vnr) == metrics.revenue(b.vnr)
        assert metrics.cost(a) == metrics.cost(b)

    def test_position_invariants_hold_during_search(self, toy_net, toy_vnr):
        result = swarm_search(toy_vnr, toy_net, PsoConfig(seed=2, iterations=20))
        assert len(result.position) == len(toy_vnr.nodes)
        assert len(set(result.position)) == len(result.position)
