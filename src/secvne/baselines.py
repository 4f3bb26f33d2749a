"""Comparison strategies: greedy max-residual placement and a random floor.

Both enforce the full candidate constraints (domains, CPU, both security
directions) and route links exactly like the main algorithm; they differ only
in how they pick among candidates.  They are deliberately simple stand-ins,
not reimplementations of the TA-SVNE / MCS-VNE algorithms from the
security-aware embedding literature.
"""

from __future__ import annotations

from .errors import EmbeddingInfeasible
from .model import Embedding, SubstrateNetwork, VirtualNetworkRequest
from .node_mapping import candidate_nodes
from .pso import index_maps, request_candidates, sample_injective
from .routing import build_embedding
from .seeding import draws_from

RANDOM_EMBED_ATTEMPTS = 10


def greedy_embed(vnr: VirtualNetworkRequest, net: SubstrateNetwork) -> Embedding:
    """Largest CPU demand first, each onto its max-residual unused candidate."""
    order = sorted(vnr.nodes.values(), key=lambda v: (-v.cpu_demand, v.id))
    assignment: dict[int, int] = {}
    used: set[int] = set()
    nodes = net.nodes
    for v in order:
        # Candidates ascend by id and only a strictly larger residual
        # replaces the best so far, so equal residuals go to the lowest id.
        best, most = None, -1
        for sid in candidate_nodes(v, net):
            if sid not in used and nodes[sid].cpu_residual > most:
                best, most = sid, nodes[sid].cpu_residual
        if best is None:
            raise EmbeddingInfeasible(f"request {vnr.id}: greedy: no unused candidate for "
                                      f"virtual node {v.id}")
        assignment[v.id] = best
        used.add(best)
    try:
        return build_embedding(vnr, assignment, net)
    except EmbeddingInfeasible as exc:
        raise EmbeddingInfeasible(f"request {vnr.id}: greedy: {exc}") from exc


def random_embed(vnr: VirtualNetworkRequest, net: SubstrateNetwork, seed: int) -> Embedding:
    """Uniform injective draws; a few retries absorb routing dead ends."""
    vnode_order = sorted(vnr.nodes)
    candidate_lists = request_candidates(vnr, net)
    maps = index_maps(candidate_lists)
    draws = draws_from(seed)
    for _ in range(RANDOM_EMBED_ATTEMPTS):
        position = sample_injective(candidate_lists, maps, draws)
        if position is None:
            continue
        try:
            return build_embedding(vnr, dict(zip(vnode_order, position)), net)
        except EmbeddingInfeasible:
            continue
    raise EmbeddingInfeasible(f"request {vnr.id}: random: no routable assignment within "
                              f"{RANDOM_EMBED_ATTEMPTS} attempts")
