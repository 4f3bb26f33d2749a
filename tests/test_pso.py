"""Discrete swarm operators and the full search loop."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from secvne import metrics, node_mapping, pso, routing
from secvne.errors import EmbeddingInfeasible
from secvne.generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from secvne.model import compute_boundary_hops
from secvne.node_mapping import candidate_nodes
from secvne.pso import (
    INFEASIBLE,
    Particle,
    PsoConfig,
    evaluation_plan,
    fitness,
    index_maps,
    injective_assignment,
    optimize,
    position_update,
    random_injective,
    request_candidates,
    sample_injective,
    swarm_search,
    velocity_table,
    velocity_update,
)
from secvne.routing import route_all_links, usable_masks
from secvne.seeding import Draws, draws_from
from secvne.simulation import Strategy, make_strategy, run
from secvne.validation import validate_embedding

from conftest import (contended_net, count_mask_builds, make_substrate, make_vnr, scattered_net,
                      write_bw_residual)
from oracles import (best_fitness_brute, cut_residual_brute, domain_cut_short,
                     embeddable_brute, enumerate_assignments, hop_distances_brute,
                     matching_brute, position_subtract, random_injective_brute,
                     request_cut_brute, rng_from, route_all_brute, sample_injective_brute,
                     scalar_velocity_bit, scalar_velocity_update, swarm_reference,
                     unjoined_hosts)

BITS = [(v, pb, gb) for v in (0, 1) for pb in (0, 1) for gb in (0, 1)]

# The bandwidth-bound regime of tests/test_golden.py.
GOLDEN_BW_CONFIG = GeneratorConfig(seed=11, node_count=12, domain_count=2,
                                   cd_size_range=(1, 2), vnr_node_range=(2, 4),
                                   vnr_arrival_rate=0.05, vnr_mean_lifetime=300.0,
                                   substrate_bw_range=(20, 60))


def four_node_vnr():
    """Four virtual nodes over both domains; bw_total is 48."""
    return make_vnr(
        [(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0, 1)), (2, 1, 0, 4, (1,)),
         (3, 1, 0, 4, (0, 1))],
        [(0, 1, 18), (1, 2, 14), (0, 2, 10), (2, 3, 6)],
    )


def plan_for(vnr, net):
    """The evaluation plan of a search of ``vnr`` over ``net`` in which every
    substrate node is a candidate of every virtual node, so that any
    position can be priced."""
    return evaluation_plan(vnr, net, [sorted(net.nodes)] * len(vnr.nodes))


def assignment_of(position, plan):
    """The assignment, virtual node id -> substrate node id, of a position
    of substrate bit ranks, as ``fitness`` reads one."""
    node_ids = plan.net.node_ids
    return {vid: node_ids[r] for vid, r in zip(plan.vnode_order, position)}


def routed_cost(position, plan, cutoff=INFEASIBLE):
    """A position's cost routed in full, the reference for the plan's fast
    paths: cpu_total plus the bandwidth cost of route_all_links, or +inf
    when it cannot route the links.  It takes ``fitness``'s position of
    ranks and its cutoff, which it ignores, so that it can stand in for
    ``fitness`` in a search."""
    try:
        _, bw_cost = route_all_links(plan.vnr, assignment_of(position, plan), plan.net)
    except EmbeddingInfeasible:
        return math.inf
    return float(plan.vnr.cpu_total + bw_cost)


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
        with pytest.raises(ValueError, match="length"):
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
        cands = [[3, 9], [4, 9]]
        assert position_update(p, [1, 1], cands, index_maps(cands), rng) == [3, 4]

    def test_position_update_all_zeros_is_fresh_injective_sample(self):
        rng = np.random.default_rng(0)
        p = particle_at([3, 4])
        cands = [[3, 9], [4, 9]]
        out = position_update(p, [0, 0], cands, index_maps(cands), rng)
        assert out[0] in cands[0] and out[1] in cands[1]
        assert out[0] != out[1]

    def test_position_update_excludes_kept_nodes(self):
        # component 0 keeps node 5; component 1 must re-draw avoiding it
        rng = np.random.default_rng(1)
        p = particle_at([5, 6])
        cands = [[5], [5, 6, 7]]
        for _ in range(20):
            out = position_update(p, [1, 0], cands, index_maps(cands), rng)
            assert out[0] == 5
            assert out[1] in (6, 7)

    def test_position_update_dead_end_rerandomizes(self):
        rng = np.random.default_rng(2)
        p = particle_at([5, 6])
        # component 1 keeps 6? no: velocity 0 on both, candidates force collision
        cands = [[5, 6], [5, 6]]
        out = position_update(p, [0, 0], cands, index_maps(cands), rng)
        assert sorted(out) == [5, 6]

    def test_position_update_leaves_the_particles_lists_as_they_were(self, monkeypatch):
        """``swarm_search`` lets a particle's position and its bests share
        one list, which holds only while the update never writes the lists
        it reads: over mixed velocities, re-draws that reach the end and
        re-draws that dead-end (then re-randomize), position and pbest stay
        equal to copies taken before each call."""
        dead_ends = []
        plain = pso.random_injective

        def random_injective(candidate_lists, maps, rng):
            dead_ends.append(candidate_lists)
            return plain(candidate_lists, maps, rng)

        monkeypatch.setattr(pso, "random_injective", random_injective)
        # Keeping node 5 leaves component 2 only node 7, which component 1
        # takes half the time: a dead end.
        cands = [[5, 6], [6, 7], [5, 7]]
        calls = 0
        for seed in range(20):
            draws = draws_from(seed)
            for v_new in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, 0]):
                p = particle_at([5, 6, 7], velocity=[1, 1, 0], pbest=[6, 7, 5])
                position, pbest = list(p.position), list(p.pbest_position)
                out = position_update(p, v_new, cands, index_maps(cands), draws)
                calls += 1
                assert (p.position, p.pbest_position) == (position, pbest)
                assert out is not p.position and out is not p.pbest_position
                assert len(set(out)) == 3
        assert 0 < len(dead_ends) < calls

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="length"):
            position_update(particle_at([1]), [0, 1], [[1]], index_maps([[1]]), rng)
        with pytest.raises(ValueError, match="length"):
            velocity_update(particle_at([1]), [1, 2], 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("velocity,pbest", [([1], [1, 2]), ([1, 0, 1], [1, 2]),
                                                ([1, 0], [1]), ([1, 0], [1, 2, 3])])
    def test_velocity_update_rejects_velocity_or_pbest_of_another_length(self, velocity,
                                                                         pbest):
        with pytest.raises(ValueError, match="length"):
            velocity_update(Particle([1, 2], velocity, pbest, 0.0), [1, 2], 0.5, 0.5, 0.5)


class TestVelocityTable:
    def test_matches_scalar_rule(self):
        rnd = random.Random(0)
        cases = [(rnd.uniform(0.1, 0.9), rnd.random(), rnd.random()) for _ in range(3000)]
        cases += [(omega, 0.0, 0.0) for omega in (0.1, 0.5, 0.9, 0.5 - 2**-54)]
        cases += [(0.5 - 2**-54, 0.0, 0.3), ((0.5 - 2**-54) / 1.5, (0.5 - 2**-54) / 1.5, 0.0)]
        for omega, r1, r2 in cases:
            expected = [scalar_velocity_bit(omega, r1, r2, PsoConfig.c1, PsoConfig.c2, *bits)
                        for bits in BITS]
            assert velocity_table(omega, r1, r2) == expected

    def test_rounds_after_adding_one_half(self):
        # s = 0.5 - 2**-54 is below 0.5, but s + 0.5 rounds to 1.0, so the bit is 1.
        s = 0.5 - 2**-54
        assert s < 0.5 and s + 0.5 == 1.0
        assert velocity_table(s, 0.0, 0.0)[4] == 1
        assert velocity_table(s, 0.0, 0.0)[:4] == [0, 0, 0, 0]

    def test_all_ones_on_pbest_stays_all_ones_exactly_at_entry_6(self):
        """With velocity all ones and position equal to pbest, the scalar
        rule gives all ones whenever ``omega + r1*c1 + 0.5 >= 1.0``
        (entry 6 of ``velocity_table``, the widened held test of
        ``swarm_search``), whatever r2 and the gbest agreement; and when it
        does not hold, a component off gbest gets 0.  Over every omega the
        swarm uses and r1 on a grid and at the floats around the boundary."""
        c1, c2 = PsoConfig.c1, PsoConfig.c2
        omegas = [pso._inertia(it) for it in range(PsoConfig.iterations)] + [0.5 - 2**-54]
        position = [3, 1, 4, 6]
        gbests = [list(position), [3, 9, 4, 9], [9, 9, 9, 9]]
        held = widened = not_held = 0
        for omega in omegas:
            r1s = [k / 20 for k in range(20)]
            # Entry 6's edge and entry 2's, with three floats either side.
            for edge in ((0.5 - omega) / c1, 0.5 / c1):
                below = above = edge
                r1s.append(edge)
                for _ in range(3):
                    below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
                    r1s += [below, above]
            for r1 in r1s:
                if not 0.0 <= r1 < 1.0:
                    continue
                for r2 in (0.0, 0.25, math.nextafter(1.0, 0.0)):
                    for gbest in gbests:
                        p = particle_at(position, velocity=[1] * 4, pbest=position)
                        update = scalar_velocity_update(p, gbest, omega, r1, r2, c1, c2)
                        if omega + r1 * c1 + 0.5 >= 1.0:
                            assert update == [1] * 4, (omega, r1, r2, gbest)
                            held += 1
                            widened += r1 * c1 + 0.5 < 1.0
                        elif gbest != position:
                            assert 0 in update, (omega, r1, r2, gbest)
                            not_held += 1
        assert held and widened and not_held, (held, widened, not_held)
        # The boundary itself: a sum of exactly 1.0 holds, and the first
        # float r1 below it whose sum falls under 1.0 does not.
        omega, r1 = 0.25, 0.25 / c1
        assert omega + r1 * c1 + 0.5 == 1.0
        assert scalar_velocity_update(particle_at([2], [1], [2]), [7], omega, r1, 0.0,
                                      c1, c2) == [1]
        while omega + r1 * c1 + 0.5 >= 1.0:
            r1 = math.nextafter(r1, 0.0)
        assert scalar_velocity_update(particle_at([2], [1], [2]), [7], omega, r1, 0.0,
                                      c1, c2) == [0]

    def test_velocity_update_matches_scalar_update(self):
        rnd = random.Random(1)
        for _ in range(500):
            n = rnd.randint(1, 10)
            position = [rnd.randrange(6) for _ in range(n)]
            p = Particle(position, [rnd.randrange(2) for _ in range(n)],
                         [rnd.randrange(6) for _ in range(n)], 0.0)
            gbest = [rnd.randrange(6) for _ in range(n)]
            omega, r1, r2 = rnd.uniform(0.1, 0.9), rnd.random(), rnd.random()
            assert (velocity_update(p, gbest, omega, r1, r2)
                    == scalar_velocity_update(p, gbest, omega, r1, r2,
                                              PsoConfig.c1, PsoConfig.c2))


class TestInjectiveSampling:
    def test_matching_finds_assignment_when_tight(self):
        assert injective_assignment([[1], [1, 2]]) == [1, 2]
        assert injective_assignment([[1], [1]]) is None

    def test_matching_is_iterative_on_a_long_chain(self):
        """Virtual node k may take k or k + 1 and the last only 0, so the
        last one's augmenting path displaces all 1,999 owners before it, far
        past the interpreter's recursion limit."""
        n = 2000
        chain = [[k, k + 1] for k in range(n - 1)] + [[0]]
        assert injective_assignment(chain) == list(range(1, n)) + [0]

    def test_matching_equals_the_recursive_matching(self):
        """On small random lists, the assignment of the recursive augmenting
        paths of ``oracles.matching_brute``, and None exactly when no choice
        of one candidate per list is injective."""
        rnd = random.Random(3)
        found = {True: 0, False: 0}
        for _ in range(1000):
            lists = [rnd.sample(range(6), rnd.randint(1, 3)) for _ in range(rnd.randint(0, 6))]
            out = injective_assignment(lists)
            assert out == matching_brute(lists)
            exists = any(len(set(p)) == len(p) for p in itertools.product(*lists))
            assert (out is not None) == exists
            found[exists] += 1
        assert min(found.values()) > 100, found

    def test_random_injective_respects_candidates(self):
        rng = np.random.default_rng(3)
        cands = [[1, 2], [2, 3], [1, 3]]
        for _ in range(50):
            out = random_injective(cands, index_maps(cands), rng)
            assert len(set(out)) == 3
            for k, pool in enumerate(cands):
                assert out[k] in pool

    def test_random_injective_impossible_raises(self):
        rng = np.random.default_rng(4)
        with pytest.raises(EmbeddingInfeasible):
            random_injective([[1], [1]], index_maps([[1], [1]]), rng)

    def test_sample_injective_returns_none_when_a_pool_empties(self):
        rng = np.random.default_rng(5)
        assert sample_injective([[1], [1, 2], [2]], index_maps([[1], [1, 2], [2]]), rng) is None
        assert sample_injective([[1], [1, 2]], index_maps([[1], [1, 2]]), rng) == [1, 2]

    def test_sample_injective_draws_what_one_reference_pass_draws(self):
        """Draw for draw, on a twin stream, the pass of the plain reference,
        dead ends included, and both streams end at the same point."""
        rnd = random.Random(7)
        outcomes = {True: 0, False: 0}
        for seed in range(400):
            n = rnd.randint(1, 7)
            cands = [sorted(rnd.sample(range(10), rnd.randint(1, 5))) for _ in range(n)]
            fast, plain = draws_from(seed), rng_from(seed)
            out = sample_injective(cands, index_maps(cands), fast)
            assert out == sample_injective_brute(cands, plain)
            assert fast.random() == plain.random()
            outcomes[out is None] += 1
        assert min(outcomes.values()) > 50, outcomes


class TestFitness:
    def test_cost_of_two_hop_link(self):
        net = make_substrate(
            node_specs=[(0, 0, 50, 0, 0), (1, 0, 50, 0, 0), (2, 0, 50, 0, 0),
                        (3, 1, 50, 0, 0)],
            link_specs=[(0, 1, 100), (1, 2, 100), (0, 3, 100)],
        )
        vnr = make_vnr([(0, 10, 0, 4, (0,)), (1, 20, 0, 4, (0,))], [(0, 1, 10)])
        plan = plan_for(vnr, net)
        assert fitness([0, 2], plan) == 50.0  # 30 cpu + 10*2 hops
        assert routed_cost([0, 2], plan) == 50.0

    def test_infeasible_routing_is_plus_infinity(self):
        net = make_substrate(
            node_specs=[(0, 0, 50, 0, 0), (1, 0, 50, 0, 0), (2, 1, 50, 0, 0)],
            link_specs=[(0, 1, 3), (0, 2, 100)],
        )
        vnr = make_vnr([(0, 10, 0, 4, (0,)), (1, 20, 0, 4, (0,))], [(0, 1, 10)])
        assert fitness([0, 1], plan_for(vnr, net)) == math.inf

    def test_zero_link_vnr_fitness_is_cpu_total(self, toy_net):
        vnr = make_vnr([(0, 15, 0, 4, (0,))], [])
        assert fitness([4], plan_for(vnr, toy_net)) == 15.0


class TestEvaluationPlan:
    """One plan per search: the link triples, the slack flag and the masks
    are derived once, and the plan-driven operators agree with the plain
    computations they replace."""

    def test_links_follow_the_routing_order_by_index(self):
        vnr = four_node_vnr()
        net = contended_net(0)
        plan = plan_for(vnr, net)
        index = {vid: i for i, vid in enumerate(sorted(vnr.nodes))}
        assert plan.vnode_order == sorted(vnr.nodes)
        assert plan.links == [(index[l.u], index[l.v], l.bw_demand) for l in vnr.routing_order]
        assert plan.cpu_total == vnr.cpu_total
        assert not plan.bw_slack
        assert net.mask_store == usable_masks([l.bw_demand for l in vnr.routing_order], net)
        slack_net = generate_substrate(GeneratorConfig(seed=0, node_count=8, domain_count=2))
        slack = plan_for(vnr, slack_net)
        assert slack.bw_slack and not slack_net.mask_store and slack.cut is None

    def test_fitness_equals_cpu_total_plus_routed_bandwidth_cost(self):
        """On random positions, shared hosts included, the plan-driven cost is
        cpu_total plus route_all_links's bandwidth cost, or INFEASIBLE where
        route_all_links cannot route the links; with and without slack."""
        seen = {(True, False): 0, (True, True): 0, (False, False): 0, (False, True): 0}
        for seed in range(6):
            cfg = GeneratorConfig(seed=seed, node_count=10, domain_count=2,
                                  vnr_node_range=(2, 5), vnr_bw_range=(5, 30))
            rnd = random.Random(seed)
            vnrs = generate_vnr_stream(cfg, horizon=400)[:6]
            for net in (generate_substrate(cfg), contended_net(seed)):
                nodes = sorted(net.nodes)
                for vnr in vnrs:
                    plan = plan_for(vnr, net)
                    for _ in range(40):
                        position = [rnd.choice(nodes) for _ in plan.vnode_order]
                        cost = fitness(position, plan)
                        assert cost == routed_cost(position, plan)
                        seen[(plan.bw_slack, cost == pso.INFEASIBLE)] += 1
        assert min(seen.values()) > 20, seen

    def test_position_update_draws_the_filtered_pools(self):
        """Draw for draw, on twin streams, ``position_update`` and
        ``sample_injective`` pick what picking from each candidate list
        filtered of the used nodes picks, dead ends included (the update's
        full re-draw, the sample's None), and both streams end at the same
        point.  The lists ascend, as ``index_maps`` requires; it rejects a
        list that does not."""
        def filtered_update(p, v_new, candidate_lists, rng):
            used = {x for x, v in zip(p.position, v_new) if v == 1}
            out = list(p.position)
            for k, v in enumerate(v_new):
                if v == 1:
                    continue
                pool = [c for c in candidate_lists[k] if c not in used]
                if not pool:
                    dead_ends["update"] += 1
                    return random_injective_brute(candidate_lists, rng)
                out[k] = pool[int(rng.integers(len(pool)))]
                used.add(out[k])
            return out

        rnd = random.Random(3)
        dead_ends = {"update": 0, "sample": 0}
        for seed in range(300):
            n = rnd.randint(1, 6)
            drawn = [rnd.sample(range(8), rnd.randint(1, 6)) for _ in range(n)]
            cands = [sorted(pool) for pool in drawn]
            if drawn != cands:
                with pytest.raises(ValueError, match="does not strictly ascend"):
                    index_maps(drawn)
            position = injective_assignment(cands)
            if position is None:
                continue
            v_new = [rnd.randrange(2) for _ in range(n)]
            fast, plain = np.random.default_rng(seed), np.random.default_rng(seed)
            out = position_update(particle_at(position), v_new, cands, index_maps(cands), fast)
            assert out == filtered_update(particle_at(position), v_new, cands, plain)
            assert fast.random() == plain.random()
            sample = sample_injective(cands, index_maps(cands), fast)
            assert sample == sample_injective_brute(cands, plain)
            assert fast.random() == plain.random()
            dead_ends["sample"] += sample is None
        assert min(dead_ends.values()) > 10, dead_ends


class TestBandwidthSlack:
    """Under bandwidth slack (bw_total <= every residual) fitness reads hop
    distances instead of routing."""

    def test_hop_distance_fitness_equals_routed_fitness(self, monkeypatch):
        """Under slack ``fitness`` gives the routed cost and routes nothing."""
        vnr = four_node_vnr()
        calls = self.count_routing(monkeypatch)
        checked = 0
        for seed in range(4):
            cfg = GeneratorConfig(seed=seed, node_count=8, domain_count=2,
                                  intra_link_rate=0.5, substrate_bw_range=(48, 60))
            net = generate_substrate(cfg)
            # The boundary: the smallest residual equals the request's bw_total.
            write_bw_residual(net, next(iter(net.links.values())), vnr.bw_total)
            fast_net = net.copy()
            routed_plan, plan = plan_for(vnr, net), plan_for(vnr, fast_net)
            assert plan.bw_slack
            for nodes in list(itertools.permutations(sorted(net.nodes), 4))[::7]:
                routed = routed_cost(list(nodes), routed_plan)
                assert fitness(list(nodes), plan) == routed
                checked += routed != math.inf
        assert calls == []
        assert checked > 100

    def test_hop_sum_fills_the_rows_it_reads(self):
        """On a freshly built substrate, whose table is empty, ``hop_sum``
        fills each row it reads, and gives what it gives over a filled table
        and what plain breadth-first distances give: INFEASIBLE when some
        link's hosts are not joined (the substrate has two parts) or
        coincide.  Positions and table rows are by rank, which the scattered
        ids tell apart from ids."""
        vnr = four_node_vnr()
        filled = scattered_net()
        for dst in filled.nodes:
            routing.hop_distances(dst, filled)
        fresh = scattered_net()
        assert fresh.hop_dist == [None] * len(fresh.nodes)
        fresh_plan, filled_plan = plan_for(vnr, fresh), plan_for(vnr, filled)
        brute = {dst: hop_distances_brute(filled, dst) for dst in filled.nodes}
        rank = filled.rank
        seen = {True: 0, False: 0}
        for nodes in itertools.permutations(sorted(filled.nodes), 4):
            hops = [brute[nodes[iv]].get(nodes[iu]) for iu, iv, _ in filled_plan.links]
            expected = (INFEASIBLE if not all(hops) else
                        float(vnr.cpu_total + sum(bw * h for (_, _, bw), h
                                                  in zip(filled_plan.links, hops))))
            position = [rank[n] for n in nodes]
            cost = pso.hop_sum(position, fresh_plan)
            assert cost == pso.hop_sum(position, filled_plan) == expected
            seen[cost == INFEASIBLE] += 1
        assert fresh.hop_dist == [[brute[dst].get(src) for src in filled.node_ids]
                                  for dst in filled.node_ids]
        assert min(seen.values()) > 500, seen

    def test_unjoined_or_shared_hosts_are_infeasible(self):
        net = make_substrate(
            node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 1, 10, 0, 0),
                        (3, 1, 10, 0, 0)],
            link_specs=[(0, 1, 100), (2, 3, 100)],
            hops=False,
        )
        vnr = make_vnr([(0, 1, 0, 4, (0, 1)), (1, 1, 0, 4, (0, 1))], [(0, 1, 5)])
        plan = plan_for(vnr, net)
        assert plan.bw_slack
        for position in ([1, 2], [1, 1]):
            assert routed_cost(position, plan) == math.inf
            assert fitness(position, plan) == math.inf
        assert fitness([0, 1], plan) == 7.0

    @staticmethod
    def count_routing(monkeypatch):
        calls = []
        plain = pso.route_all_links

        def counting_route_all_links(*args):
            calls.append(args[0].id)
            return plain(*args)

        monkeypatch.setattr(pso, "route_all_links", counting_route_all_links)
        return calls

    @staticmethod
    def routed_search(monkeypatch, vnr, net, cfg):
        """swarm_search with every fitness call forced through routing."""
        with monkeypatch.context() as m:
            m.setattr(pso, "fitness", routed_cost)
            return swarm_search(vnr, net, cfg)

    def test_search_routes_only_when_bandwidth_can_bind(self, monkeypatch, toy_net, toy_vnr):
        calls = self.count_routing(monkeypatch)
        link = toy_net.links[(2, 3)]
        for residual, routes in ((toy_vnr.bw_total, False), (toy_vnr.bw_total - 1, True)):
            write_bw_residual(toy_net, link, residual)
            calls.clear()
            result = swarm_search(toy_vnr, toy_net, PsoConfig(seed=4))
            assert bool(calls) == routes
            assert result == self.routed_search(monkeypatch, toy_vnr, toy_net, PsoConfig(seed=4))

    def test_bandwidth_bound_stream_takes_both_paths(self, monkeypatch):
        """A search under slack never routes.  A binding search routes
        unless a domain cut or the pbest cutoff settles every position it
        evaluates, and the stream holds searches that route."""
        calls = self.count_routing(monkeypatch)
        cfg = GeneratorConfig(seed=11, node_count=12, domain_count=2, cd_size_range=(1, 2),
                              vnr_node_range=(2, 4), vnr_arrival_rate=0.05,
                              substrate_bw_range=(20, 60))
        net = generate_substrate(cfg)
        min_residual = min(l.bw_residual for l in net.links.values())
        seen = set()
        for vnr in generate_vnr_stream(cfg, horizon=1500):
            calls.clear()
            try:
                result = swarm_search(vnr, net, PsoConfig(seed=vnr.id))
            except EmbeddingInfeasible:
                continue
            slack = vnr.bw_total <= min_residual
            assert not (slack and calls)
            seen.add((slack, bool(calls)))
            assert result == self.routed_search(monkeypatch, vnr, net, PsoConfig(seed=vnr.id))
        assert {(True, False), (False, True)} <= seen

    def test_masks_are_never_built_under_bandwidth_slack(self, monkeypatch):
        """A search builds no usable masks under slack.  Without slack it
        builds them once, for the demands of the request that the
        substrate's mask store lacks, and only those; routing the winner
        then builds none, though some winners search the feasible
        subgraph, since the store already holds every demand."""
        builds = count_mask_builds(monkeypatch)
        searches = count_calls(monkeypatch, routing, "route_link")
        winners = []
        plain_build = pso.build_embedding

        def build(*args):
            searched, built = len(searches), len(builds)
            embedding = plain_build(*args)
            winners.append((len(searches) - searched, len(builds) - built))
            return embedding

        monkeypatch.setattr(pso, "build_embedding", build)
        golden_stream = generate_vnr_stream(GOLDEN_BW_CONFIG, horizon=1500)
        # Random residuals on 20 nodes make some winners' table paths fall
        # short, so their routing searches the feasible subgraph.
        loaded_stream = generate_vnr_stream(
            GeneratorConfig(seed=1, node_count=20, domain_count=2, cd_size_range=(1, 2),
                            vnr_node_range=(2, 5)), horizon=400)
        instances = [(generate_substrate(GOLDEN_BW_CONFIG), golden_stream)]
        instances += [(contended_net(seed, node_count=20), loaded_stream) for seed in (0, 1)]
        seen = set()
        for net, stream in instances:
            min_residual = min(l.bw_residual for l in net.links.values())
            for vnr in stream:
                builds.clear()
                stored = set(net.mask_store)
                searched = len(winners)
                try:
                    optimize(vnr, net, PsoConfig(seed=vnr.id))
                except EmbeddingInfeasible:
                    continue
                slack = vnr.bw_total <= min_residual
                missing = {l.bw_demand for l in vnr.links.values()} - stored
                assert builds == ([missing] if missing and not slack else [])
                assert len(winners) == searched + 1 and winners[-1][1] == 0
                seen.add((slack, bool(builds)))
        assert seen == {(True, False), (False, True), (False, False)}
        assert sum(searched > 0 for searched, _ in winners) > 0


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's first argument."""
    calls = []
    plain = getattr(module, name)

    def counting(*args):
        calls.append(args[0])
        return plain(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_proofs(monkeypatch):
    """Wrap ``pso.fitness`` to count the calls without slack that return
    without routing by one of its two proofs: ``cut``, an INFEASIBLE that
    must be a domain cut's unless the cutoff is finite and the topology
    does not join some link's hosts; ``cutoff``, a finite value, which
    must be at least the cutoff."""
    proofs = {"cut": 0, "cutoff": 0}
    routes = count_calls(monkeypatch, pso, "route_all_links")
    plain = pso.fitness

    def counting(position, plan, cutoff=INFEASIBLE):
        routed = len(routes)
        value = plain(position, plan, cutoff)
        if plan.bw_slack or len(routes) > routed:
            return value
        if value < INFEASIBLE:
            assert value >= cutoff
            proofs["cutoff"] += 1
        else:
            assignment = assignment_of(position, plan)
            short = domain_cut_short(plan.vnr, assignment, plan.net)
            assert short or (cutoff < INFEASIBLE
                             and unjoined_hosts(plan.vnr, assignment, plan.net))
            proofs["cut"] += short
        return value

    monkeypatch.setattr(pso, "fitness", counting)
    return proofs


def bandwidth_bound_family():
    """(substrate, request) pairs from 24 seeded substrates of 8 to 10 nodes
    in two or three domains, bandwidth U[20, 60], each link's residual then
    lowered to a random value in [0, capacity]; four requests each."""
    for seed in range(24):
        cfg = GeneratorConfig(seed=seed, node_count=8 + seed % 3, domain_count=2 + seed % 2,
                              intra_link_rate=0.4, substrate_bw_range=(20, 60),
                              vnr_node_range=(3, 4), vnr_bw_range=(5, 30))
        net = generate_substrate(cfg)
        rnd = random.Random(seed)
        for link in net.links.values():
            write_bw_residual(net, link, rnd.randint(0, link.bw_capacity))
        for vnr in generate_vnr_stream(cfg, horizon=300)[:4]:
            yield net, vnr


class TestRoutingProofs:
    """Without slack, ``fitness`` settles a position without routing when a
    domain cut proves it unroutable, or when its topology hop sum reaches
    the cutoff; both checked against the brute-force router."""

    def test_domain_cut_and_cutoff_agree_with_brute_force_routing(self, monkeypatch):
        """Every position the cut rejects is unroutable; a value below the
        cutoff is the routed cost, and one at or above it is at most that
        cost.  The cutoff is the least routed cost seen so far on the
        request, as a particle's pbest would be."""
        routes = count_calls(monkeypatch, pso, "route_all_links")
        fired = {"cut": 0, "cutoff": 0}
        for i, (net, vnr) in enumerate(bandwidth_bound_family()):
            plan = plan_for(vnr, net)
            if plan.bw_slack:
                continue
            rnd = random.Random(i)
            best = INFEASIBLE
            for _ in range(30):
                position = rnd.sample(sorted(net.nodes), len(plan.vnode_order))
                assignment = dict(zip(plan.vnode_order, position))
                brute = route_all_brute(vnr, assignment, net)
                cost = INFEASIBLE if brute is None else float(vnr.cpu_total + brute[1])
                routes.clear()
                assert fitness(position, plan) == cost
                if not routes:
                    assert cost == INFEASIBLE and domain_cut_short(vnr, assignment, net)
                    fired["cut"] += 1
                routes.clear()
                value = fitness(position, plan, best)
                if value < best:
                    assert value == cost
                else:
                    assert value <= cost
                    fired["cutoff"] += not routes and value < INFEASIBLE
                best = min(best, cost)
        assert min(fired.values()) >= 50, fired

    def test_cut_rejected_position_is_not_routed(self, monkeypatch):
        """A position is routed exactly when no domain cut proves it
        unroutable, and its fitness is the routed cost either way."""
        calls = count_calls(monkeypatch, pso, "route_all_links")
        vnr = four_node_vnr()
        cut = routed = 0
        for seed in range(8):
            net = contended_net(seed)
            plan = plan_for(vnr, net)
            assert not plan.bw_slack
            for nodes in list(itertools.permutations(sorted(net.nodes), 4))[::11]:
                position = list(nodes)
                expected = routed_cost(position, plan)
                calls.clear()
                assert fitness(position, plan) == expected
                short = domain_cut_short(vnr, nodes, net)
                assert calls == ([] if short else [vnr])
                cut += short
                routed += not short
        assert cut > 50 and routed > 50


class TestDisconnectedSubstrate:
    """A loaded substrate need not be connected: each domain is, but
    ``scattered_net`` joins domains 0 and 1, and 2 and 3, never the two
    pairs.  Virtual node 0 lies in domain 0 and nodes 1 and 2 in domain 0
    or 2, so some positions put a link's hosts where no path joins them."""

    def test_search_over_hosts_the_topology_does_not_join(self, monkeypatch):
        """Every search embeds a placement that passes the validator, and
        every INFEASIBLE on a position with unjoined hosts, the pbest cutoff's
        included, is the brute-force router's verdict."""
        net = scattered_net()
        compute_boundary_hops(net)
        vnr = make_vnr([(0, 1, 0, 0, (0,)), (1, 1, 0, 0, (0, 2)), (2, 1, 0, 0, (0, 2))],
                       [(0, 1, 5), (1, 2, 6)])
        plan = evaluation_plan(vnr, net, request_candidates(vnr, net))
        assert not plan.bw_slack and plan.bound == 14.0
        plain = pso.fitness
        unjoined = {"cutoff": 0, "no cutoff": 0}

        def checked(position, plan, cutoff=INFEASIBLE):
            value = plain(position, plan, cutoff)
            assignment = assignment_of(position, plan)
            if value == INFEASIBLE and unjoined_hosts(vnr, assignment, net):
                assert route_all_brute(vnr, assignment, net) is None
                unjoined["cutoff" if cutoff < INFEASIBLE else "no cutoff"] += 1
            return value

        monkeypatch.setattr(pso, "fitness", checked)
        for seed in range(40):
            emb = optimize(vnr, net, PsoConfig(seed=seed))
            assert validate_embedding(net, vnr, emb) == []
        assert min(unjoined.values()) > 0, unjoined


def cut_family():
    """(substrate, request, candidate lists) triples from 40 seeded
    substrates of 6 to 8 nodes in two or three domains, bandwidth U[20, 60],
    each inter-domain link's residual then lowered to a random value in
    [0, capacity]; up to eight requests of 3 to 5 virtual nodes each, those
    with links and a candidate for every virtual node."""
    for seed in range(40):
        cfg = GeneratorConfig(seed=seed, node_count=6 + seed % 3, domain_count=2 + seed % 2,
                              intra_link_rate=0.4, substrate_bw_range=(20, 60),
                              vnr_node_range=(3, 5), vnr_bw_range=(5, 30))
        net = generate_substrate(cfg)
        rnd = random.Random(seed)
        for link in net.inter_links:
            write_bw_residual(net, link, rnd.randint(0, link.bw_capacity))
        for vnr in generate_vnr_stream(cfg, horizon=300)[:8]:
            cands = [candidate_nodes(vnr.nodes[vid], net) for vid in sorted(vnr.nodes)]
            if vnr.links and all(cands):
                yield net, vnr, cands


def bridged_net(residual):
    """Domain 0 (nodes 0-1) and domain 1 (nodes 2-3), each joined inside by
    a 100-unit link, and to each other by the links 0-2, of ``residual``,
    and 1-3, of 10."""
    return make_substrate(
        node_specs=[(0, 0, 50, 0, 0), (1, 0, 50, 0, 0), (2, 1, 50, 0, 0), (3, 1, 50, 0, 0)],
        link_specs=[(0, 1, 100), (2, 3, 100), (0, 2, residual), (1, 3, 10)],
    )


class TestRequestCut:
    """Without slack, a plan whose cost bound is finite is INFEASIBLE when
    some domain's request-level cut is short; checked against brute force
    over the side assignments and over every placement."""

    def test_max_flow_is_the_least_crossing_demand(self):
        """For every domain and demand of the request, ``request_cut`` equals
        the least crossing demand over every side assignment the candidate
        lists allow."""
        nonzero = 0
        for net, vnr, cands in cut_family():
            plan = evaluation_plan(vnr, net, cands)
            domains = [{net.nodes[c].domain for c in cs} for cs in cands]
            for (d, t), least in request_cut_brute(vnr, net).items():
                assert pso.request_cut(plan.links, domains, d, t) == least
                nonzero += least > 0
        assert nonzero > 100

    def test_cut_rejects_exactly_when_some_domain_is_short(self):
        """The proof fires exactly when, for some domain d and demand t, the
        least crossing demand exceeds the residual of d's border links with
        residual >= t; the family holds rejections that need the
        threshold."""
        fired = needs_threshold = 0
        for net, vnr, cands in cut_family():
            least = request_cut_brute(vnr, net)
            short = {(d, t) for (d, t), v in least.items() if v > cut_residual_brute(net, d, t)}
            proved = pso.cut_proves_infeasible(evaluation_plan(vnr, net, cands).links, cands, net)
            assert proved == bool(short)
            fired += proved
            needs_threshold += proved and all(least[d, t] <= cut_residual_brute(net, d, 0)
                                              for d, t in short)
        assert fired > 20 and needs_threshold > 0, (fired, needs_threshold)

    def test_a_cut_rejection_routes_nothing(self):
        """Whenever the cut fires, no injective assignment routes; the plan's
        bound is INFEASIBLE exactly when the cost bound is, or, without
        slack, when the cut fires."""
        caught = 0
        for net, vnr, cands in cut_family():
            plan = evaluation_plan(vnr, net, cands)
            proved = pso.cut_proves_infeasible(plan.links, cands, net)
            if proved:
                assert all(route_all_brute(vnr, a, net) is None
                           for a in enumerate_assignments(vnr, net))
            costed = pso.cost_bound(plan.links, vnr.cpu_total, cands, net,
                                    None if plan.bw_slack else net.mask_store)
            assert (plan.bound == INFEASIBLE) == (costed == INFEASIBLE
                                                   or (proved and not plan.bw_slack))
            caught += plan.bound == INFEASIBLE and costed < INFEASIBLE
        assert caught > 5

    def test_search_rejects_a_request_whose_domain_cut_is_short(self):
        """Every link is routable on its own, and the two border links hold
        20 in all, but neither holds 15: the cut at demand 15 is empty, so
        the search rejects before the swarm.  At a residual of 15 the least
        crossing demand, 15, equals the border's residual at 15, which is no
        proof, though the 20 units leaving virtual node 0 exceed it."""
        # Virtual node 0 lies in domain 0, node 2 in domain 1 and node 1 in
        # either, so one of the two links crosses between them: the 15-unit
        # one when node 1 sits in domain 0.
        vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0, 1)), (2, 1, 0, 4, (1,))],
                       [(0, 1, 20), (1, 2, 15)])
        net = bridged_net(10)
        cands = request_candidates(vnr, net)
        plan = evaluation_plan(vnr, net, cands)
        assert not plan.bw_slack and plan.cut == [20, 20]
        assert pso.cost_bound(plan.links, vnr.cpu_total, cands, net, net.mask_store) == 3 + 20 + 15
        assert plan.bound == INFEASIBLE
        with pytest.raises(EmbeddingInfeasible, match=r"^request 0: no placement its candidate "
                                                      r"lists allow can carry its virtual "
                                                      r"links' demand in residual$"):
            swarm_search(vnr, net, PsoConfig(seed=0))
        net = bridged_net(15)
        assert pso.request_cut(plan.links, [{0}, {0, 1}, {1}], 0, 15) == 15
        assert not pso.cut_proves_infeasible(plan.links, cands, net)
        assert swarm_search(vnr, net, PsoConfig(seed=0)).fitness == 3 + 20 + 15


class TestProvedRejectionsInWholeRuns:
    """Over whole bandwidth-bound runs, every rejection the search proves is
    not embeddable by brute force."""

    def test_every_proved_rejection_is_not_embeddable(self, monkeypatch):
        """Twenty seeded substrates of 10 to 16 nodes in two or three
        domains, bandwidth U[20, 60], and requests of 2 to 6 virtual nodes
        run through ``simulation.run`` with ``stec-iot``.  A rejection is
        proved when a virtual node has no candidate, the candidate sets
        admit no injective assignment or the plan's bound is INFEASIBLE,
        by the cost bound or by a domain cut; each is checked against
        ``embeddable_brute`` on the residuals of its arrival.  A search
        whose swarm ends INFEASIBLE is an unproven rejection, and the test
        prints how many of them brute force embeds (shown under ``pytest
        -s``; README.md states the count)."""
        plain_search, plain_plan = pso.swarm_search, pso.evaluation_plan
        plain_candidates = pso.request_candidates
        plans, emptied, proved, unproven = [], [], {}, []

        def recording_plan(*args):
            plans.append(plain_plan(*args))
            return plans[-1]

        def recording_candidates(vnr, net):
            try:
                return plain_candidates(vnr, net)
            except EmbeddingInfeasible:
                emptied.append(vnr.id)
                raise

        def checked_search(vnr, net, cfg):
            plans.clear()
            emptied.clear()
            try:
                result = plain_search(vnr, net, cfg)
            except EmbeddingInfeasible:
                if emptied:
                    kind = "no candidate"
                elif not plans:
                    kind = "injectivity"
                else:
                    assert plans[-1].bound == INFEASIBLE
                    masks = None if plans[-1].bw_slack else net.mask_store
                    costed = pso.cost_bound(plans[-1].links, vnr.cpu_total,
                                            request_candidates(vnr, net), net, masks)
                    kind = "cost bound" if costed == INFEASIBLE else "domain cut"
                proved.setdefault(kind, []).append(embeddable_brute(vnr, net))
                raise
            if result.fitness == INFEASIBLE:
                unproven.append(embeddable_brute(vnr, net))
            return result

        monkeypatch.setattr(pso, "evaluation_plan", recording_plan)
        monkeypatch.setattr(pso, "request_candidates", recording_candidates)
        monkeypatch.setattr(pso, "swarm_search", checked_search)
        for seed in range(20):
            cfg = GeneratorConfig(seed=seed, node_count=10 + seed % 7, domain_count=2 + seed % 2,
                                  substrate_bw_range=(20, 60), security_range=(0, 2),
                                  vnr_node_range=(2, 6), vnr_cpu_range=(1, 10),
                                  vnr_bw_range=(5, 20), vnr_mean_lifetime=300.0)
            run(generate_substrate(cfg), generate_vnr_stream(cfg, 1000),
                make_strategy("stec-iot", seed=0), 1000)
        assert {kind: any(embeddable) for kind, embeddable in proved.items()} == {
            "no candidate": False, "injectivity": False, "cost bound": False,
            "domain cut": False}
        assert unproven
        print(f"unproven rejections embeddable by brute force: {sum(unproven)} of "
              f"{len(unproven)}")

    @pytest.mark.parametrize("cfg,horizon", [
        (GOLDEN_BW_CONFIG, 1500),
        (GeneratorConfig(seed=0, substrate_bw_range=(20, 60)), 600),
    ], ids=["golden-bw-bound", "paper-scale-bw-bound"])
    def test_bound_rejections_are_infeasible_when_routed(self, monkeypatch, cfg, horizon):
        """Every request the plan's bound rejects during a simulated stream,
        by the cost bound or by a domain cut, searched again with a plan
        bound of 0 (which proves nothing and stops no search) and every
        fitness call routed, is INFEASIBLE."""
        plain_search = pso.swarm_search
        plain_plan = pso.evaluation_plan
        verdicts = []
        forced = []

        def recording_plan(*args):
            plan = plain_plan(*args)
            verdicts.append(plan.bound)
            return plan

        def checked_search(vnr, net, pso_cfg, *rest):
            verdicts.clear()
            try:
                return plain_search(vnr, net, pso_cfg, *rest)
            except EmbeddingInfeasible:
                if verdicts and verdicts[-1] == INFEASIBLE:
                    with monkeypatch.context() as m:
                        m.setattr(pso, "evaluation_plan",
                                  lambda *args: dataclasses.replace(plain_plan(*args), bound=0.0))
                        m.setattr(pso, "fitness", routed_cost)
                        forced.append(plain_search(vnr, net, pso_cfg, *rest).fitness)
                raise

        monkeypatch.setattr(pso, "evaluation_plan", recording_plan)
        monkeypatch.setattr(pso, "swarm_search", checked_search)
        run(generate_substrate(cfg), generate_vnr_stream(cfg, horizon),
            make_strategy("stec-iot", seed=0), horizon)
        assert forced == [math.inf] * len(forced)
        if cfg is not GOLDEN_BW_CONFIG:
            assert len(forced) >= 3


class TestSwarm:
    def test_only_the_seed_is_settable(self):
        assert [f.name for f in dataclasses.fields(PsoConfig)] == ["seed"]
        assert PsoConfig(seed=3).seed == 3
        assert (PsoConfig().particle_count, PsoConfig().iterations) == (10, 50)
        with pytest.raises(TypeError):
            PsoConfig(iterations=2)

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

    def test_no_injective_assignment_names_the_request(self, toy_net):
        # Only node 5 meets vsd 4 in domain 1, and both virtual nodes need it.
        vnr = make_vnr([(0, 10, 4, 1, (1,)), (1, 10, 4, 1, (1,))], [(0, 1, 5)], vnr_id=8)
        with pytest.raises(EmbeddingInfeasible, match=r"^request 8: candidate sets admit no "
                                                      r"injective assignment$"):
            swarm_search(vnr, toy_net, PsoConfig(seed=0))

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
        result = swarm_search(toy_vnr, toy_net, PsoConfig(seed=2))
        assert len(result.position) == len(toy_vnr.nodes)
        assert len(set(result.position)) == len(result.position)


class TestRequestCandidates:
    def test_one_list_per_virtual_node_in_ascending_id_order(self, toy_net):
        vnr = make_vnr([(2, 10, 0, 4, (1,)), (0, 10, 3, 4, (0,)), (1, 10, 0, 4, (0, 1))], [])
        assert request_candidates(vnr, toy_net) == [
            candidate_nodes(vnr.nodes[vid], toy_net) for vid in (0, 1, 2)]
        assert request_candidates(vnr, toy_net)[0] == [0, 1]

    def test_names_the_first_virtual_node_without_a_candidate(self, toy_net):
        # vsd 4 in domain 1 leaves only node 5, whose ssd 1 exceeds vsl 0.
        vnr = make_vnr([(3, 10, 4, 0, (1,)), (0, 10, 0, 4, (0,)), (1, 10, 4, 0, (1,))], [],
                       vnr_id=7)
        with pytest.raises(EmbeddingInfeasible, match=r"^request 7: virtual node 1 has no "
                                                      r"candidate substrate node$"):
            request_candidates(vnr, toy_net)

    def test_a_search_filters_each_virtual_node_once(self, monkeypatch):
        """The priority mapping reuses the search's candidate lists: across
        both bindings, a search whose priority mapping runs calls
        ``candidate_nodes`` once per virtual node."""
        in_pso = count_calls(monkeypatch, pso, "candidate_nodes")
        in_mapping = count_calls(monkeypatch, node_mapping, "candidate_nodes")
        mapped = count_calls(monkeypatch, pso, "map_nodes")
        searches = 0
        for net, vnr in small_requests():
            in_pso.clear()
            in_mapping.clear()
            mapped.clear()
            try:
                swarm_search(vnr, net, PsoConfig(seed=vnr.id))
            except EmbeddingInfeasible:
                pass
            if not mapped:
                continue
            searches += 1
            assert len(in_pso) + len(in_mapping) == len(vnr.nodes)
        assert searches > 100


def small_requests():
    """(substrate, request) pairs from 40 seeded substrates of 8 to 16
    nodes, six requests each.  Every seed gives a fresh substrate, under
    whose bandwidth most requests have slack, and one with narrow links
    whose residuals are lowered at random, where bandwidth binds and the
    plan's bound rejects some requests.  Requests with a virtual node that has
    no candidate are kept."""
    for seed in range(20):
        for contended in (False, True):
            narrow = {"substrate_bw_range": (20, 60), "vnr_bw_range": (5, 30)}
            cfg = GeneratorConfig(seed=seed, node_count=8 + seed % 9, domain_count=2,
                                  intra_link_rate=0.25, security_range=(0, 2),
                                  vnr_node_range=(2, 4), cd_size_range=(1, 2),
                                  **(narrow if contended else {}))
            net = generate_substrate(cfg)
            if contended:
                rnd = random.Random(seed)
                for link in net.links.values():
                    write_bw_residual(net, link, rnd.randint(0, link.bw_capacity))
            for vnr in generate_vnr_stream(cfg, horizon=400)[:6]:
                yield net, vnr


def has_bw_slack(vnr, net):
    return vnr.bw_total <= min(l.bw_residual for l in net.links.values())


class TestReferenceSwarm:
    def test_search_matches_the_reference_swarm(self, monkeypatch):
        """The search returns the plain swarm's position, fitness and whole
        gbest history, and raises exactly when that swarm has no candidate,
        no injective assignment or no routable position.  The plain swarm
        draws r1 and r2 for every update; the search skips what it does not
        read.  The set holds searches stopped at the bound, particles held
        on their pbest, by entry 2 and by the widened test alone (entry 6 on
        an all-ones velocity, ``r1*c1 + 0.5 < 1``), all-ones velocities kept
        without an update, all-ones updates, and positions settled by a
        domain cut or by the pbest cutoff without routing."""
        # One _inertia call per iteration that runs, one velocity_update
        # call per particle update that is not skipped.
        iterations = count_calls(monkeypatch, pso, "_inertia")
        updates = count_calls(monkeypatch, pso, "velocity_update")
        moves = []
        plain_update = pso.position_update

        def position_update(p, v_new, *rest):
            moves.append(v_new)
            return plain_update(p, v_new, *rest)

        monkeypatch.setattr(pso, "position_update", position_update)
        # A velocity is set after construction by a held particle, an
        # all-ones update and a move, and by nothing else.
        velocity_sets = []

        class CountingParticle(pso.Particle):
            def __setattr__(self, name, value):
                if name == "velocity" and "pbest_fitness" in self.__dict__:
                    velocity_sets.append(value)
                super().__setattr__(name, value)

        monkeypatch.setattr(pso, "Particle", CountingParticle)
        # The r1 of each held particle: a skip of one output follows it.
        held_r1 = []

        class RecordingDraws(Draws):
            def random(self):
                self.last = super().random()
                return self.last

            def skip(self, k):
                if k == 1:
                    held_r1.append(self.last)
                super().skip(k)

        monkeypatch.setattr(pso, "draws_from",
                            lambda seed: RecordingDraws(rng_from(seed).bit_generator))
        proofs = count_proofs(monkeypatch)
        seen = {"slack": 0, "binding": 0, "bound": 0, "no host": 0}
        stopped = held = kept = all_ones = 0
        for net, vnr in small_requests():
            cfg = PsoConfig(seed=vnr.id)
            expected = swarm_reference(vnr, net, cfg)
            iterations.clear()
            updates.clear()
            moves.clear()
            velocity_sets.clear()
            try:
                result = swarm_search(vnr, net, cfg)
            except EmbeddingInfeasible:
                assert expected is None or expected[1] == math.inf
                seen["no host" if expected is None else "bound"] += 1
                continue
            assert (result.position, result.fitness, result.gbest_history) == expected
            seen["slack" if has_bw_slack(vnr, net) else "binding"] += 1
            stopped += len(iterations) < PsoConfig.iterations
            held += len(velocity_sets) - len(updates)
            kept += PsoConfig.particle_count * len(iterations) - len(velocity_sets)
            all_ones += len(updates) - len(moves)
            assert all(0 in v_new for v_new in moves)
            assert sum(0 not in v for v in velocity_sets) == len(velocity_sets) - len(moves)
        assert min(seen.values()) > 0, seen
        widened = sum(r1 * PsoConfig.c1 + 0.5 < 1.0 for r1 in held_r1)
        assert len(held_r1) == held
        assert stopped > 0 and 0 < widened < held and kept > 0 and all_ones > 0, (
            held, widened, kept, all_ones)
        assert min(proofs.values()) > 0, proofs

    def test_paper_scale_bandwidth_bound_run_matches_routed_fitness(self, monkeypatch):
        """At paper scale with binding bandwidth, a run places every request
        as the same run with every fitness call routed does, and both proofs
        fire in it."""
        cfg = GeneratorConfig(seed=0, substrate_bw_range=(20, 60))
        horizon = 600

        def simulate():
            plain = make_strategy("stec-iot", seed=0)
            placed = []

            def embed(vnr, net):
                emb = plain.embed(vnr, net)
                placed.append((vnr.id, emb.node_map, emb.link_map))
                return emb

            trace = run(generate_substrate(cfg), generate_vnr_stream(cfg, horizon),
                        Strategy(plain.name, embed), horizon)
            return trace.records, placed

        with monkeypatch.context() as m:
            proofs = count_proofs(m)
            fast = simulate()
        with monkeypatch.context() as m:
            m.setattr(pso, "fitness", routed_cost)
            routed = simulate()
        assert fast == routed
        assert fast[1]
        assert min(proofs.values()) > 0, proofs


class TestCostBound:
    def test_bound_is_at_most_the_optimum(self):
        """In both regimes no assignment costs less than the plan's bound,
        and on some requests the optimum meets it."""
        checked = {True: 0, False: 0}
        met = 0
        for net, vnr in small_requests():
            cands = [candidate_nodes(vnr.nodes[vid], net) for vid in sorted(vnr.nodes)]
            if not all(cands):
                continue
            bound = evaluation_plan(vnr, net, cands).bound
            best = best_fitness_brute(vnr, net)
            if best is None:
                continue
            assert bound <= best
            checked[has_bw_slack(vnr, net)] += 1
            met += bound == best
        assert min(checked.values()) > 10 and met > 10

    def test_link_free_request_is_bounded_by_its_cpu(self, toy_net):
        vnr = make_vnr([(0, 7, 0, 4, (0, 1)), (1, 5, 0, 4, (0, 1))], [])
        plan = evaluation_plan(vnr, toy_net, [[0, 1], [1, 2]])
        assert plan.bound == vnr.cpu_total == 12

    def test_bound_counts_hops_between_candidate_sets(self, toy_net):
        """One hop at least, since a link's hosts are distinct, even when the
        candidate sets meet; else the hop count between the sets."""
        vnr = make_vnr([(0, 1, 0, 4, (0, 1)), (1, 1, 0, 4, (0, 1))], [(0, 1, 5)])
        assert evaluation_plan(vnr, toy_net, [[0, 1], [1, 2]]).bound == 2 + 5 * 1
        assert evaluation_plan(vnr, toy_net, [[0, 1], [4, 5]]).bound == 2 + 5 * 3
        assert evaluation_plan(vnr, toy_net, [[0], [3]]).bound == 2 + 5 * 2

    def test_candidate_sets_the_topology_does_not_join_are_infeasible(self):
        net = scattered_net()
        vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (2,)), (2, 1, 0, 4, (1,))],
                       [(0, 2, 5), (0, 1, 5)])
        in_domain = [sorted(n for n in net.nodes if net.nodes[n].domain == d) for d in (0, 2, 1)]
        assert evaluation_plan(vnr, net, in_domain).bound == INFEASIBLE
        joined = make_vnr([(0, 1, 0, 4, (0,)), (2, 1, 0, 4, (1,))], [(0, 2, 5)])
        assert evaluation_plan(joined, net, [in_domain[0], in_domain[2]]).bound == 2 + 5

    def test_bound_counts_hops_over_the_links_that_carry_the_demand(self):
        # Hosts 0 and 3 are joined directly by a 9-unit link and over three
        # hops by 100-unit links; a 10-unit virtual link takes the long way.
        net = make_substrate(
            node_specs=[(0, 0, 50, 0, 0), (1, 0, 50, 0, 0), (2, 1, 50, 0, 0),
                        (3, 1, 50, 0, 0)],
            link_specs=[(0, 3, 9), (0, 1, 100), (1, 2, 100), (2, 3, 100)],
        )
        vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (1,))], [(0, 1, 10)])
        plan = evaluation_plan(vnr, net, [[0], [3]])
        assert not plan.bw_slack
        assert plan.bound == 2 + 10 * 3
        assert fitness([0, 3], plan) == plan.bound

    def test_infeasible_bound_is_sound_against_brute_force(self):
        """Every plan whose bound is INFEASIBLE has no routable assignment."""
        proved = 0
        for seed in range(12):
            cfg = GeneratorConfig(seed=seed, node_count=8, domain_count=2,
                                  intra_link_rate=0.4, substrate_bw_range=(20, 60),
                                  vnr_node_range=(3, 4), vnr_bw_range=(10, 45))
            net = generate_substrate(cfg)
            rnd = random.Random(seed)
            for link in net.links.values():
                write_bw_residual(net, link, rnd.randint(0, link.bw_capacity))
            for vnr in generate_vnr_stream(cfg, horizon=300)[:4]:
                cands = [candidate_nodes(vnr.nodes[vid], net) for vid in sorted(vnr.nodes)]
                if not all(cands) or evaluation_plan(vnr, net, cands).bound != INFEASIBLE:
                    continue
                proved += 1
                assert all(route_all_brute(vnr, a, net) is None
                           for a in enumerate_assignments(vnr, net))
        assert proved > 5

    def test_search_rejects_a_request_whose_link_cannot_cross_a_bridge(self):
        # Domain 0 (nodes 0-1) and domain 1 (nodes 2-3) are joined only by the
        # 9-unit link 1-2, so a 10-unit virtual link across them never routes.
        net = make_substrate(
            node_specs=[(0, 0, 50, 0, 0), (1, 0, 50, 0, 0), (2, 1, 50, 0, 0),
                        (3, 1, 50, 0, 0)],
            link_specs=[(0, 1, 100), (1, 2, 9), (2, 3, 100)],
        )
        vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (1,)), (2, 1, 0, 4, (1,))],
                       [(0, 1, 10), (1, 2, 5)])
        with pytest.raises(EmbeddingInfeasible, match=r"^request 0: no placement its candidate "
                                                      r"lists allow can carry"):
            swarm_search(vnr, net, PsoConfig(seed=0))
        # A residual written outside allocate would leave the mask store
        # stale; a copy starts with an empty store, so write on the copy.
        net = net.copy()
        write_bw_residual(net, net.links[(1, 2)], 10)
        assert swarm_search(vnr, net, PsoConfig(seed=0)).fitness == 3 + 10 * 1 + 5 * 1
