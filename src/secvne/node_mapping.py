"""Priority-driven node mapping.

Virtual nodes are ranked by security demand times CPU demand and placed one
by one, hardest first.  Each one goes to its best-scoring unused candidate,
where a candidate must sit in an allowed domain, have enough residual CPU,
offer at least the demanded security level, and itself demand no more
security than the virtual node offers.  Only the CPU test reads state that
changes during a run, so ``candidate_nodes`` applies the other three once
per substrate and key ``(cd, vsd, vsl)``, in the substrate's candidate
index, and re-tests residual CPU alone on each call.

The candidate score blends three terms: security surplus, CPU slack, and
proximity to the domain boundary.  The raw attributes live on wildly
different scales (security 0-4, CPU up to ~100, hops 0-6), so each term is
min-max normalized over the candidate set being ranked before the paper's
fixed weights GAMMA/DELTA/THETA = 0.5/0.3/0.2 are applied; otherwise CPU
slack would drown out the security term the weighting is supposed to
prioritize.  The boundary term scores proximity, ``max_hop - hop_to_boundary``
over the candidate set, so boundary-proximal nodes score higher.
"""

from __future__ import annotations

from .errors import EmbeddingInfeasible
from .model import SubstrateNetwork, VirtualNetworkRequest, VirtualNode

# Weights of the security-surplus, CPU-slack and boundary terms.
GAMMA = 0.5
DELTA = 0.3
THETA = 0.2


def virtual_node_priority(v: VirtualNode) -> int:
    """Mapping urgency of a virtual node: security demand times CPU demand."""
    return v.vsd * v.cpu_demand


def candidate_nodes(v: VirtualNode, net: SubstrateNetwork) -> list[int]:
    """Substrate nodes that could host v right now, ascending by id.

    The domain and both security tests read only attributes fixed when the
    substrate is built, so the nodes that pass them are kept in
    ``net.candidate_index`` under ``(v.cd, v.vsd, v.vsl)``, filled on the
    key's first lookup; each call then tests residual CPU alone.
    """
    key = (v.cd, v.vsd, v.vsl)
    static = net.candidate_index.get(key)
    if static is None:
        static = net.candidate_index[key] = [
            s for s in (net.nodes[sid] for sid in range(len(net.nodes)))
            if s.domain in v.cd and s.ssl >= v.vsd and v.vsl >= s.ssd]
    demand = v.cpu_demand
    return [s.id for s in static if s.cpu_residual >= demand]


def _normalized(values: list[float]) -> list[float]:
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0.0] * len(values)
    span = hi - lo
    return [(val - lo) / span for val in values]


def candidate_scores(v: VirtualNode, candidates, net: SubstrateNetwork) -> dict[int, float]:
    """Score of each candidate for v, relative to the given (non-empty)
    candidate set."""
    nodes = [net.nodes[sid] for sid in candidates]
    sec = _normalized([float(s.ssl - v.vsd) for s in nodes])
    cpu = _normalized([float(s.cpu_residual - v.cpu_demand) for s in nodes])
    max_hop = max(s.hop_to_boundary for s in nodes)
    hop = _normalized([float(max_hop - s.hop_to_boundary) for s in nodes])
    return {sid: GAMMA * a + DELTA * b + THETA * c
            for sid, a, b, c in zip(candidates, sec, cpu, hop)}


def map_nodes(vnr: VirtualNetworkRequest, net: SubstrateNetwork,
              candidate_lists: list[list[int]]) -> dict[int, int]:
    """Greedy assignment, virtual node id -> substrate node id, with the
    virtual nodes placed, and keyed, in descending priority order.

    ``candidate_lists`` holds ``candidate_nodes`` of each virtual node in
    ascending id order (``pso.request_candidates``); each node picks from its
    list less the nodes already used.  Ties in virtual priority break by
    ascending virtual id; ties in candidate score break by ascending
    substrate id.  Fails atomically with EmbeddingInfeasible naming the
    first unmappable virtual node.
    """
    candidates = dict(zip(sorted(vnr.nodes), candidate_lists))
    order = sorted(vnr.nodes.values(), key=lambda v: (-virtual_node_priority(v), v.id))
    assignment: dict[int, int] = {}
    used: set[int] = set()
    for v in order:
        cands = [sid for sid in candidates[v.id] if sid not in used]
        if not cands:
            raise EmbeddingInfeasible(f"no unused candidate for virtual node {v.id}")
        scores = candidate_scores(v, cands, net)
        # max keeps the first of equal scores, and cands ascend.
        best = max(cands, key=scores.__getitem__)
        assignment[v.id] = best
        used.add(best)
    return assignment
