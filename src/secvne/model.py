"""Domain types for substrate and virtual networks plus residual bookkeeping.

The substrate is a multi-domain undirected graph.  Nodes carry CPU capacity
and two security attributes: the level they offer (``ssl``) and the minimum
level they demand from a tenant (``ssd``).  Virtual requests mirror this with
``vsl``/``vsd`` plus a candidate-domain set restricting where each virtual
node may be placed.  Capacities and residuals are tracked separately and kept
as integers so repeated allocate/release cycles restore state bit-exactly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import (
    AlreadyAllocated,
    DoubleRelease,
    InsufficientResources,
    InternalConsistencyError,
    NoBoundaryNode,
)

LinkKey = tuple[int, int]

INTRA_DOMAIN = "intra-domain"
INTER_DOMAIN = "inter-domain"


def link_key(u: int, v: int) -> LinkKey:
    """Canonical unordered key for the link between nodes u and v."""
    return (u, v) if u < v else (v, u)


def path_links(path: tuple[int, ...]) -> list[LinkKey]:
    """Link keys traversed by a node-sequence path."""
    return [link_key(path[i], path[i + 1]) for i in range(len(path) - 1)]


@dataclass(slots=True)
class SubstrateNode:
    id: int
    domain: int
    cpu_capacity: int
    cpu_residual: int
    ssl: int
    ssd: int
    hop_to_boundary: int = -1  # -1 until compute_boundary_hops has run


@dataclass(slots=True)
class SubstrateLink:
    u: int
    v: int
    bw_capacity: int
    bw_residual: int
    kind: str = INTRA_DOMAIN

    @property
    def key(self) -> LinkKey:
        return (self.u, self.v)


@dataclass(slots=True)
class VirtualNode:
    id: int
    cpu_demand: int
    vsd: int
    vsl: int
    cd: frozenset[int]


@dataclass(slots=True)
class VirtualLink:
    u: int
    v: int
    bw_demand: int

    @property
    def key(self) -> LinkKey:
        return (self.u, self.v)


class VirtualNetworkRequest:
    """One virtual network plus its arrival time and lifetime."""

    def __init__(self, id: int, nodes, links, arrival_time: float, lifetime: float):
        self.id = id
        self.nodes: dict[int, VirtualNode] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValueError(f"request {id}: duplicate virtual node id {n.id}")
            if n.cpu_demand < 0:
                raise ValueError(f"request {id}: virtual node {n.id} has negative cpu "
                                 f"demand {n.cpu_demand}")
            self.nodes[n.id] = n
        self.links: dict[LinkKey, VirtualLink] = {}
        for l in links:
            k = link_key(l.u, l.v)
            if k[0] == k[1]:
                raise ValueError(f"virtual link {k} is a self-loop")
            if k[0] not in self.nodes or k[1] not in self.nodes:
                raise ValueError(f"virtual link {k} names a node missing from request {id}")
            if l.bw_demand < 0:
                raise ValueError(f"request {id}: virtual link {k} has negative bw "
                                 f"demand {l.bw_demand}")
            self.links[k] = VirtualLink(k[0], k[1], l.bw_demand)
        if not (math.isfinite(arrival_time) and arrival_time >= 0):
            raise ValueError(f"request {id}: arrival_time {arrival_time} must be finite "
                             f"and non-negative")
        if not (math.isfinite(lifetime) and lifetime > 0):
            raise ValueError(f"request {id}: lifetime {lifetime} must be finite and positive")
        self.arrival_time = arrival_time
        self.lifetime = lifetime

    @property
    def cpu_total(self) -> int:
        return sum(n.cpu_demand for n in self.nodes.values())

    @property
    def bw_total(self) -> int:
        return sum(l.bw_demand for l in self.links.values())

    def is_connected(self) -> bool:
        if not self.nodes:
            return False
        adj: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for (u, v) in self.links:
            adj[u].append(v)
            adj[v].append(u)
        start = next(iter(self.nodes))
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nbr in adj[cur]:
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        return len(seen) == len(self.nodes)

    def __repr__(self):
        return (f"VirtualNetworkRequest(id={self.id}, nodes={len(self.nodes)}, "
                f"links={len(self.links)}, t={self.arrival_time:.3f})")


@dataclass
class Embedding:
    """A placed request: node assignment and one substrate path per virtual link.

    Pricing is not part of a placement: ``metrics.revenue``/``metrics.cost``
    derive revenue and cost from an embedding under any weights or cost mode.
    """

    vnr: VirtualNetworkRequest
    node_map: dict[int, int]
    link_map: dict[LinkKey, tuple[int, ...]]


class SubstrateNetwork:
    """Multi-domain substrate graph with residual-resource bookkeeping.

    Single-writer: all mutations (allocate/release) must come from one logical
    thread of control.  Read-only snapshots may be shared freely.
    """

    def __init__(self, domain_count: int, nodes, links):
        self.domain_count = domain_count
        self.nodes: dict[int, SubstrateNode] = {n.id: n for n in nodes}
        self.links: dict[LinkKey, SubstrateLink] = {}
        self.active: dict[int, Embedding] = {}
        for l in links:
            k = link_key(l.u, l.v)
            if k[0] == k[1]:
                raise ValueError(f"substrate link {k} is a self-loop")
            if k in self.links:
                raise ValueError(f"duplicate substrate link {k}")
            du = self.nodes[k[0]].domain
            dv = self.nodes[k[1]].domain
            kind = INTRA_DOMAIN if du == dv else INTER_DOMAIN
            self.links[k] = SubstrateLink(k[0], k[1], l.bw_capacity, l.bw_residual, kind)
        # neighbor lists sorted ascending so every traversal is deterministic
        self.adj: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for (u, v) in self.links:
            self.adj[u].append(v)
            self.adj[v].append(u)
        for nid in self.adj:
            self.adj[nid].sort()
        # Min-hop path table over the bare topology, filled lazily by
        # secvne.routing: hop distances to each destination, and the path of
        # each (src, dst) pair.  The topology is fixed from here on, so
        # residual changes never make an entry stale.
        self.hop_dist: dict[int, dict[int, int]] = {}
        self.min_hop_paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def link(self, u: int, v: int) -> SubstrateLink:
        return self.links[link_key(u, v)]

    def domain_nodes(self, domain: int) -> list[int]:
        return sorted(nid for nid, n in self.nodes.items() if n.domain == domain)

    def boundary_nodes(self) -> set[int]:
        out: set[int] = set()
        for l in self.links.values():
            if l.kind == INTER_DOMAIN:
                out.add(l.u)
                out.add(l.v)
        return out

    def domains_connected(self) -> bool:
        """True when the graph restricted to each domain is connected."""
        for d in range(self.domain_count):
            members = self.domain_nodes(d)
            if not members:
                continue
            seen = {members[0]}
            queue = deque([members[0]])
            while queue:
                cur = queue.popleft()
                for nbr in self.adj[cur]:
                    if nbr in seen or self.nodes[nbr].domain != d:
                        continue
                    if self.links[link_key(cur, nbr)].kind != INTRA_DOMAIN:
                        continue
                    seen.add(nbr)
                    queue.append(nbr)
            if len(seen) != len(members):
                return False
        return True

    def state_signature(self) -> tuple:
        """Hashable snapshot of all residuals, used by audits and tests."""
        nodes = tuple((nid, self.nodes[nid].cpu_residual) for nid in sorted(self.nodes))
        links = tuple((k, self.links[k].bw_residual) for k in sorted(self.links))
        return (nodes, links)

    def copy(self) -> "SubstrateNetwork":
        """Independent copy with current residuals and no active embeddings."""
        nodes = [SubstrateNode(n.id, n.domain, n.cpu_capacity, n.cpu_residual,
                               n.ssl, n.ssd, n.hop_to_boundary)
                 for n in self.nodes.values()]
        links = [SubstrateLink(l.u, l.v, l.bw_capacity, l.bw_residual, l.kind)
                 for l in self.links.values()]
        return SubstrateNetwork(self.domain_count, nodes, links)

    def __repr__(self):
        return (f"SubstrateNetwork(domains={self.domain_count}, "
                f"nodes={len(self.nodes)}, links={len(self.links)})")


def compute_boundary_hops(net: SubstrateNetwork) -> dict[int, int]:
    """Cache, for every substrate node, the intra-domain hop count to the
    nearest boundary node (0 for boundary nodes themselves).

    Inter-domain links define boundary membership but are never traversed.
    Raises NoBoundaryNode when a domain has no inter-domain attachment.
    """
    boundary = net.boundary_nodes()
    hops: dict[int, int] = {}
    for d in range(net.domain_count):
        members = net.domain_nodes(d)
        if not members:
            continue
        sources = [nid for nid in members if nid in boundary]
        if not sources:
            raise NoBoundaryNode(f"domain {d} has no boundary node")
        dist = {nid: 0 for nid in sources}
        queue = deque(sources)
        while queue:
            cur = queue.popleft()
            for nbr in net.adj[cur]:
                if nbr in dist or net.nodes[nbr].domain != d:
                    continue
                if net.links[link_key(cur, nbr)].kind != INTRA_DOMAIN:
                    continue
                dist[nbr] = dist[cur] + 1
                queue.append(nbr)
        if len(dist) != len(members):
            raise InternalConsistencyError(f"domain {d} is not intra-connected")
        hops.update(dist)
    for nid, h in hops.items():
        net.nodes[nid].hop_to_boundary = h
    return hops


def _embedding_deltas(emb: Embedding):
    """Per-node CPU and per-link bandwidth amounts an embedding consumes."""
    cpu: dict[int, int] = {}
    bw: dict[LinkKey, int] = {}
    for vid, sid in emb.node_map.items():
        cpu[sid] = cpu.get(sid, 0) + emb.vnr.nodes[vid].cpu_demand
    for vkey, path in emb.link_map.items():
        demand = emb.vnr.links[vkey].bw_demand
        for k in path_links(path):
            bw[k] = bw.get(k, 0) + demand
    return cpu, bw


def allocate(net: SubstrateNetwork, emb: Embedding) -> SubstrateNetwork:
    """Debit the embedding's demands from the substrate residuals.

    Callers are expected to have validated the embedding first; a residual
    that would go negative here means the validator and allocator disagree.
    """
    if emb.vnr.id in net.active:
        raise AlreadyAllocated(f"request {emb.vnr.id} is already embedded")
    cpu, bw = _embedding_deltas(emb)
    for sid, amount in cpu.items():
        if net.nodes[sid].cpu_residual - amount < 0:
            raise InsufficientResources(
                f"node {sid}: residual {net.nodes[sid].cpu_residual} < demand {amount}")
    for k, amount in bw.items():
        if net.links[k].bw_residual - amount < 0:
            raise InsufficientResources(
                f"link {k}: residual {net.links[k].bw_residual} < demand {amount}")
    for sid, amount in cpu.items():
        net.nodes[sid].cpu_residual -= amount
    for k, amount in bw.items():
        net.links[k].bw_residual -= amount
    net.active[emb.vnr.id] = emb
    return net


def release(net: SubstrateNetwork, emb: Embedding) -> SubstrateNetwork:
    """Exact inverse of allocate for a currently active embedding."""
    if net.active.get(emb.vnr.id) is not emb:
        raise DoubleRelease(f"request {emb.vnr.id} is not active")
    cpu, bw = _embedding_deltas(emb)
    for sid, amount in cpu.items():
        node = net.nodes[sid]
        if node.cpu_residual + amount > node.cpu_capacity:
            raise InternalConsistencyError(f"release would overfill node {sid}")
    for k, amount in bw.items():
        link = net.links[k]
        if link.bw_residual + amount > link.bw_capacity:
            raise InternalConsistencyError(f"release would overfill link {k}")
    for sid, amount in cpu.items():
        net.nodes[sid].cpu_residual += amount
    for k, amount in bw.items():
        net.links[k].bw_residual += amount
    del net.active[emb.vnr.id]
    return net
