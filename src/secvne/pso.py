"""Discrete particle swarm search over node assignments.

A particle's position is one complete node assignment (one substrate node per
virtual node, injective, each drawn from that node's candidate set).  Its
velocity is a binary mask: 1 keeps a component through the next position
update, 0 re-draws it from the candidate set.

The operator algebra is the indicator form of the classic update rule:

    subtract(a, b)[k] = 1 if a[k] == b[k] else 0
    s[k] = omega * v[k] + r1*c1*subtract(pbest, x)[k] + r2*c2*subtract(gbest, x)[k]
    v'[k] = 1 if round-half-up(s[k]) >= 1 else 0       (clamped to {0, 1})

so agreement with the personal and global bests locks a component in place
while disagreement frees it to explore.  Fitness is the embedding cost
(total CPU demand plus bandwidth x path hops), with +inf as the sentinel for
positions whose links cannot be routed; pbest/gbest only move on strict
improvement, which makes the gbest series non-increasing by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmbeddingInfeasible, LengthMismatch, LinkMappingInfeasible, NodeMappingInfeasible
from .model import Embedding, SubstrateNetwork, VirtualNetworkRequest
from .node_mapping import DEFAULT_WEIGHTS, PriorityWeights, candidate_nodes, map_nodes
from .routing import build_embedding, route_all_links
from .seeding import rng_from

INFEASIBLE = math.inf
# Rejection-sampling passes of random_injective before it falls back to the
# deterministic matching.
RANDOM_INJECTIVE_TRIES = 100


@dataclass
class PsoConfig:
    particle_count: int = 10
    iterations: int = 50
    inertia_max: float = 0.9  # decreases linearly to inertia_min over the run
    inertia_min: float = 0.1
    c1: float = 1.5
    c2: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.particle_count <= 0 or self.iterations <= 0:
            raise ValueError("particle_count and iterations must be positive")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1 and c2 must be positive")
        if self.inertia_min > self.inertia_max:
            raise ValueError("inertia_min must not exceed inertia_max")


@dataclass
class Particle:
    position: list[int]
    velocity: list[int]
    pbest_position: list[int]
    pbest_fitness: float


@dataclass
class SwarmResult:
    """Best assignment found plus the per-iteration gbest fitness series."""

    vnode_order: list[int]
    position: list[int]
    fitness: float
    gbest_history: list[float]

    @property
    def assignment(self) -> dict[int, int]:
        return dict(zip(self.vnode_order, self.position))


def position_subtract(a: list[int], b: list[int]) -> list[int]:
    """Component-wise equality indicator: 1 where the assignments agree."""
    if len(a) != len(b):
        raise LengthMismatch(f"positions of length {len(a)} and {len(b)}")
    return [1 if x == y else 0 for x, y in zip(a, b)]


def velocity_update(p: Particle, gbest_position: list[int], omega: float,
                    r1: float, r2: float, c1: float = 1.5, c2: float = 1.5) -> list[int]:
    """New binary velocity from inertia plus pbest/gbest agreement pulls."""
    pb = position_subtract(p.pbest_position, p.position)
    gb = position_subtract(gbest_position, p.position)
    out = []
    for k in range(len(p.position)):
        s = omega * p.velocity[k] + r1 * c1 * pb[k] + r2 * c2 * gb[k]
        out.append(1 if math.floor(s + 0.5) >= 1 else 0)
    return out


def position_update(p: Particle, v_new: list[int], candidate_lists: list[list[int]],
                    rng) -> list[int]:
    """Keep components with velocity 1; re-draw the rest injectively.

    Re-draws run in ascending component order, each excluding every kept node
    and every earlier re-drawn node.  A component whose pool empties triggers
    a full re-randomization of the particle, so the update never fails.
    """
    if len(v_new) != len(p.position):
        raise LengthMismatch(f"velocity of length {len(v_new)} for position of "
                             f"length {len(p.position)}")
    used = {p.position[k] for k in range(len(v_new)) if v_new[k] == 1}
    out = list(p.position)
    for k in range(len(v_new)):
        if v_new[k] == 1:
            continue
        pool = [c for c in candidate_lists[k] if c not in used]
        if not pool:
            return random_injective(candidate_lists, rng)
        pick = pool[int(rng.integers(len(pool)))]
        out[k] = pick
        used.add(pick)
    return out


def sample_injective(candidate_lists: list[list[int]], rng) -> list[int] | None:
    """One pass of uniform draws, one pick per candidate list in order, each
    excluding the earlier picks; None as soon as some pool empties."""
    used: set[int] = set()
    out = []
    for cands in candidate_lists:
        pool = [c for c in cands if c not in used]
        if not pool:
            return None
        pick = pool[int(rng.integers(len(pool)))]
        out.append(pick)
        used.add(pick)
    return out


def random_injective(candidate_lists: list[list[int]], rng) -> list[int]:
    """Uniform injective sample, one pick per candidate list.

    Rejection-samples dead ends; after RANDOM_INJECTIVE_TRIES passes it falls
    back to the deterministic matching so the call stays total whenever any
    injective assignment exists at all.
    """
    for _ in range(RANDOM_INJECTIVE_TRIES):
        out = sample_injective(candidate_lists, rng)
        if out is not None:
            return out
    matched = injective_assignment(candidate_lists)
    if matched is None:
        raise EmbeddingInfeasible("candidate sets admit no injective assignment")
    return matched


def injective_assignment(candidate_lists: list[list[int]]) -> list[int] | None:
    """One injective assignment via augmenting paths, or None if impossible."""
    owner: dict[int, int] = {}

    def assign(k: int, seen: set[int]) -> bool:
        for c in candidate_lists[k]:
            if c in seen:
                continue
            seen.add(c)
            if c not in owner or assign(owner[c], seen):
                owner[c] = k
                return True
        return False

    for k in range(len(candidate_lists)):
        if not assign(k, set()):
            return None
    position = [0] * len(candidate_lists)
    for c, k in owner.items():
        position[k] = c
    return position


def fitness(position: list[int], vnr: VirtualNetworkRequest, net: SubstrateNetwork,
            vnode_order: list[int]) -> float:
    """Embedding cost of a position; +inf when its links cannot be routed."""
    assignment = dict(zip(vnode_order, position))
    try:
        routing = route_all_links(vnr, assignment, net)
    except LinkMappingInfeasible:
        return INFEASIBLE
    return float(vnr.cpu_total + routing.total_bw_cost)


def _inertia(cfg: PsoConfig, iteration: int) -> float:
    if cfg.iterations == 1:
        return cfg.inertia_max
    frac = iteration / (cfg.iterations - 1)
    return cfg.inertia_max - (cfg.inertia_max - cfg.inertia_min) * frac


def swarm_search(vnr: VirtualNetworkRequest, net: SubstrateNetwork,
                 cfg: PsoConfig,
                 weights: PriorityWeights = DEFAULT_WEIGHTS,
                 invert_hop: bool = True) -> SwarmResult:
    """Run the swarm and return the best assignment found.

    Particle 0 is seeded from the deterministic priority mapping when that is
    feasible; the rest start as uniform injective samples.  Raises
    EmbeddingInfeasible when some virtual node has no candidate at all or no
    injective assignment exists.
    """
    vnode_order = sorted(vnr.nodes)
    candidate_lists = []
    for vid in vnode_order:
        cands = candidate_nodes(vnr.nodes[vid], net)
        if not cands:
            raise EmbeddingInfeasible(f"virtual node {vid} has no candidate substrate node")
        candidate_lists.append(cands)
    if injective_assignment(candidate_lists) is None:
        raise EmbeddingInfeasible("candidate sets admit no injective assignment")

    rng = rng_from(cfg.seed)
    fitness_cache: dict[tuple[int, ...], float] = {}

    def evaluate(position: list[int]) -> float:
        key = tuple(position)
        val = fitness_cache.get(key)
        if val is None:
            val = fitness(position, vnr, net, vnode_order)
            fitness_cache[key] = val
        return val

    seeded: list[int] | None = None
    try:
        mapped = map_nodes(vnr, net, weights, invert_hop)
        seeded = [mapped.assignment[vid] for vid in vnode_order]
    except NodeMappingInfeasible:
        seeded = None

    particles: list[Particle] = []
    for i in range(cfg.particle_count):
        if i == 0 and seeded is not None:
            position = list(seeded)
        else:
            position = random_injective(candidate_lists, rng)
        velocity = [int(b) for b in rng.integers(0, 2, size=len(position))]
        f = evaluate(position)
        particles.append(Particle(position, velocity, list(position), f))

    gbest_position = list(particles[0].pbest_position)
    gbest_fitness = particles[0].pbest_fitness
    for p in particles[1:]:
        if gbest_fitness > p.pbest_fitness:
            gbest_fitness = p.pbest_fitness
            gbest_position = list(p.pbest_position)
    history = [gbest_fitness]

    for it in range(cfg.iterations):
        omega = _inertia(cfg, it)
        for p in particles:
            r1 = float(rng.random())
            r2 = float(rng.random())
            v_new = velocity_update(p, gbest_position, omega, r1, r2, cfg.c1, cfg.c2)
            x_new = position_update(p, v_new, candidate_lists, rng)
            f = evaluate(x_new)
            p.velocity = v_new
            p.position = x_new
            if p.pbest_fitness > f:
                p.pbest_fitness = f
                p.pbest_position = list(x_new)
            if gbest_fitness > p.pbest_fitness:
                gbest_fitness = p.pbest_fitness
                gbest_position = list(p.pbest_position)
        history.append(gbest_fitness)

    return SwarmResult(vnode_order, gbest_position, gbest_fitness, history)


def optimize(vnr: VirtualNetworkRequest, net: SubstrateNetwork, cfg: PsoConfig,
             weights: PriorityWeights = DEFAULT_WEIGHTS,
             invert_hop: bool = True) -> Embedding:
    """Swarm-search the request and return the best placement found, routed.

    A pure placement function: the embedding carries no prices, which
    ``metrics`` derives from it.  Raises EmbeddingInfeasible when no particle
    found a routable assignment.
    """
    result = swarm_search(vnr, net, cfg, weights, invert_hop)
    if result.fitness == INFEASIBLE:
        raise EmbeddingInfeasible(f"no particle found a routable embedding for "
                                  f"request {vnr.id}")
    return build_embedding(vnr, result.assignment, net)
