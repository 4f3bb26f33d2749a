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
from .pso import index_maps, rank_lists, request_candidates, sample_injective
from .routing import build_embedding
from .seeding import draws_from

RANDOM_EMBED_ATTEMPTS = 10


def greedy_embed(vnr: VirtualNetworkRequest, net: SubstrateNetwork) -> Embedding:
    """Largest CPU demand first, each onto its max-residual unused candidate."""
    order = sorted(vnr.nodes.values(), key=lambda v: (-v.cpu_demand, v.id))
    assignment: dict[int, int] = {}
    used: set[int] = set()
    for v in order:
        cands = [sid for sid in candidate_nodes(v, net) if sid not in used]
        if not cands:
            raise EmbeddingInfeasible(f"request {vnr.id}: greedy: no unused candidate for "
                                      f"virtual node {v.id}")
        # max keeps the first of equal residuals, the lowest id.
        best = max(cands, key=lambda sid: net.nodes[sid].cpu_residual)
        assignment[v.id] = best
        used.add(best)
    try:
        return build_embedding(vnr, assignment, net)
    except EmbeddingInfeasible as exc:
        raise EmbeddingInfeasible(f"request {vnr.id}: greedy: {exc}") from exc


def random_embed(vnr: VirtualNetworkRequest, net: SubstrateNetwork, seed: int) -> Embedding:
    """Uniform injective draws, over substrate bit ranks; a few retries
    absorb routing dead ends."""
    vnode_order = sorted(vnr.nodes)
    ranks = rank_lists(request_candidates(vnr, net), net)
    maps = index_maps(ranks)
    draws = draws_from(seed)
    node_ids = net.node_ids
    for _ in range(RANDOM_EMBED_ATTEMPTS):
        position = sample_injective(ranks, maps, draws)
        if position is None:
            continue
        assignment = {vid: node_ids[r] for vid, r in zip(vnode_order, position)}
        try:
            return build_embedding(vnr, assignment, net)
        except EmbeddingInfeasible:
            continue
    raise EmbeddingInfeasible(f"request {vnr.id}: random: no routable assignment within "
                              f"{RANDOM_EMBED_ATTEMPTS} attempts")
