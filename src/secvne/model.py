"""Domain types for substrate and virtual networks plus residual bookkeeping.

The substrate is a multi-domain undirected graph.  Nodes carry CPU capacity
and two security attributes: the level they offer (``ssl``) and the minimum
level they demand from a tenant (``ssd``).  Virtual requests mirror this with
``vsl``/``vsd`` plus a candidate-domain set restricting where each virtual
node may be placed.  Capacities and residuals are tracked separately and kept
as integers so repeated allocate/release cycles restore state bit-exactly.

A substrate's node ids are exactly 0..N-1, which the constructor checks.
Every breadth-first search and component split in the package is
``bfs_levels``, over node bitmasks: bit i stands for node i, and a search
reads one neighbour mask per node, indexed by id.  The substrate's hop table
is indexed the same way: ``SubstrateNetwork.hop_dist`` holds, per
destination, a row of hop counts by source, None where the topology does not
join the two, and ``hop_next`` a row of next hops toward the destination by
source; ``secvne.routing.hop_distances`` fills both on a destination's
first use, and ``domain_of`` gives each node's domain.  The topology is
fixed, so ``SubstrateNetwork.copy`` hands the clone the same
two tables, and a row one copy fills serves every copy.  ``components``
repeats ``bfs_levels`` from the lowest node not yet reached until every
node is reached; the generator's connectivity repair is its one user.  The
topology's only adjacency is ``SubstrateNetwork.adj_masks``, built from the
links.
A substrate is complete once constructed: the constructor ends with the
boundary pass, which checks that every declared domain holds a node, then
masks the adjacency down to one domain, in one pass per domain that checks
the domain is connected and has a boundary node and then sets each of its
nodes' ``hop_to_boundary``; ``secvne.routing.usable_masks``, the one mask
builder, masks it down to the links with enough residual.
``SubstrateNetwork.mask_store`` keeps those masks per demand, and
``allocate`` and ``release``, the only writers of a residual, flip the bits
of each link whose residual crosses a stored demand, so the store stays
equal to a fresh build.
``allocate`` derives an embedding's per-node CPU and per-link bandwidth
demand once and keeps it with the embedding in ``SubstrateNetwork.active``,
the one record of an active request; ``release`` credits exactly that
record, so it is the literal inverse of the debit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InternalConsistencyError

LinkKey = tuple[int, int]


def link_key(u: int, v: int) -> LinkKey:
    """Canonical unordered key for the link between nodes u and v."""
    return (u, v) if u < v else (v, u)


def path_links(path: tuple[int, ...]) -> list[LinkKey]:
    """Link keys traversed by a node-sequence path."""
    return [link_key(path[i], path[i + 1]) for i in range(len(path) - 1)]


def bfs_levels(start_mask: int, masks, near: int = 0) -> list[int]:
    """Level-synchronous breadth-first search over node bitmasks.

    ``masks[i]`` is the neighbour mask of node i.  Level 0 is ``start_mask``,
    and each later level is the OR of its predecessor's masks minus the
    nodes seen so far, so ``levels[k]`` holds exactly the nodes k hops from
    the start set, and the levels' sum is every node reached.  The
    search stops at the first level that meets ``near``, or when no new node
    is reached; with ``near`` 0 it returns every level.
    """
    frontier = visited = start_mask
    levels = [frontier]
    while not frontier & near:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~visited
        if not frontier:
            break
        visited |= frontier
        levels.append(frontier)
    return levels


def components(masks) -> list[int]:
    """The connected components of the graph whose node i has neighbour mask
    ``masks[i]``, as node masks ordered by their lowest bit: one
    ``bfs_levels`` from the lowest node not yet reached, repeated until every
    node is reached."""
    comps = []
    unreached = (1 << len(masks)) - 1
    while unreached:
        comp = sum(bfs_levels(unreached & -unreached, masks))
        unreached ^= comp
        comps.append(comp)
    return comps


@dataclass(slots=True)
class SubstrateNode:
    id: int
    domain: int
    cpu_capacity: int
    cpu_residual: int
    ssl: int
    ssd: int
    # The intra-domain hop count to the nearest boundary node, set by the
    # constructor of the SubstrateNetwork that holds the node.
    hop_to_boundary: int = field(init=False)


@dataclass(slots=True)
class SubstrateLink:
    u: int
    v: int
    bw_capacity: int
    bw_residual: int


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
        # The strategy streams key on the id as a 64-bit integer, so ids
        # outside [0, 2**64) would share a stream with one inside it.
        if not 0 <= id < 1 << 64:
            raise ValueError(f"request id {id} must lie in [0, 2**64)")
        self.id = id
        self.nodes: dict[int, VirtualNode] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValueError(f"request {id}: duplicate virtual node id {n.id}")
            if n.cpu_demand < 0:
                raise ValueError(f"request {id}: virtual node {n.id} has negative cpu "
                                 f"demand {n.cpu_demand}")
            if not n.cd:
                raise ValueError(f"request {id}: virtual node {n.id} has no candidate domain")
            self.nodes[n.id] = n
        if not self.nodes:
            raise ValueError(f"request {id}: a request needs at least one virtual node")
        self.links: dict[LinkKey, VirtualLink] = {}
        for l in links:
            k = link_key(l.u, l.v)
            if k[0] == k[1]:
                raise ValueError(f"request {id}: virtual link {k} is a self-loop")
            if k[0] not in self.nodes or k[1] not in self.nodes:
                raise ValueError(f"request {id}: virtual link {k} names a node missing "
                                 f"from request {id}")
            if k in self.links:
                raise ValueError(f"request {id}: duplicate virtual link {k}")
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

    @cached_property
    def routing_order(self) -> tuple[VirtualLink, ...]:
        """The links in the order ``routing.route_all_links`` routes them:
        descending demand, so the largest flows claim scarce capacity first,
        ties by key.  Sorted on first use, so a request rejected before any
        routing never pays for it."""
        return tuple(sorted(self.links.values(), key=lambda l: (-l.bw_demand, l.key)))

    def __repr__(self):
        return (f"VirtualNetworkRequest(id={self.id}, nodes={len(self.nodes)}, "
                f"links={len(self.links)}, t={self.arrival_time:.3f})")


@dataclass
class Embedding:
    """A placed request: node assignment and one substrate path per virtual link.

    Pricing is not part of a placement: ``simulation.run`` prices each
    acceptance once, with ``metrics.revenue``/``metrics.cost``.
    """

    vnr: VirtualNetworkRequest
    node_map: dict[int, int]
    link_map: dict[LinkKey, tuple[int, ...]]


class SubstrateNetwork:
    """Multi-domain substrate graph with residual-resource bookkeeping.

    Single-writer: all mutations (allocate/release) must come from one logical
    thread of control.  Read-only snapshots may be shared freely.

    Construction is the one step: the constructor rejects node ids other
    than 0..N-1 and a domain that is empty, not connected or without a
    boundary node, and sets every node's ``hop_to_boundary``.
    Only residuals change after construction: the node set, the links and
    each node's ``domain``, ``ssl`` and ``ssd`` are fixed, which
    ``adj_masks``, the min-hop table and ``candidate_index`` all rely on.
    The min-hop table depends on the topology alone, so every copy shares
    it; the rest of the state is per copy.
    Residuals change only in ``allocate`` and ``release``, which keep
    ``mask_store`` current and hold each active request's embedding and
    debit in ``active``.
    """

    def __init__(self, domain_count: int, nodes, links):
        self.domain_count = domain_count
        self.nodes: dict[int, SubstrateNode] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValueError(f"duplicate substrate node id {n.id}")
            if not 0 <= n.domain < domain_count:
                raise ValueError(f"substrate node {n.id} has domain {n.domain}, outside "
                                 f"[0, {domain_count})")
            self.nodes[n.id] = n
        # Node i is bit i of every node mask, so the ids are exactly 0..N-1.
        missing = next((i for i in range(len(self.nodes)) if i not in self.nodes), None)
        if missing is not None:
            raise ValueError(f"substrate node ids must be 0..{len(self.nodes) - 1}, "
                             f"but id {missing} is missing")
        self.links: dict[LinkKey, SubstrateLink] = {}
        # The inter-domain links, which alone join one domain to another.
        self.inter_links: list[SubstrateLink] = []
        for l in links:
            k = link_key(l.u, l.v)
            if k[0] == k[1]:
                raise ValueError(f"substrate link {k} is a self-loop")
            if k in self.links:
                raise ValueError(f"duplicate substrate link {k}")
            for end in k:
                if end not in self.nodes:
                    raise ValueError(f"substrate link {k} names unknown node {end}")
            link = self.links[k] = SubstrateLink(k[0], k[1], l.bw_capacity, l.bw_residual)
            if self.nodes[k[0]].domain != self.nodes[k[1]].domain:
                self.inter_links.append(link)
        # adj_masks holds each node's neighbours as a mask, by id, and is the
        # topology's only adjacency.  It is built here, not on first use: an
        # attribute stored later goes through the instance __dict__, which
        # CPython 3.11 then builds from the inline attribute values, and
        # every later attribute read of the network leaves the specialised
        # fast path.
        masks = [0] * len(self.nodes)
        for (u, v) in self.links:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.adj_masks: list[int] = masks
        # Each node's domain by id, for the swarm's per-position domain cut.
        self.domain_of: list[int] = [self.nodes[i].domain for i in range(len(masks))]
        # Min-hop table over the bare topology, filled lazily by
        # secvne.routing.hop_distances alone.  Per destination, None until
        # filled: in hop_dist, the hop count from each source; in hop_next,
        # each source's next node on its min-hop path (None at the
        # destination).  Both are None where the topology does not join the
        # two.  The topology is fixed from here on, so residual
        # changes never make an entry stale, and copy() shares both lists.
        self.hop_dist: list[list[int | None] | None] = [None] * len(masks)
        self.hop_next: list[list[int | None] | None] = [None] * len(masks)
        # Per (cd, vsd, vsl), the nodes in id order that pass the domain
        # and both security tests, filled lazily by
        # secvne.node_mapping.candidate_nodes.
        self.candidate_index: dict[tuple[frozenset[int], int, int], list[SubstrateNode]] = {}
        # Per demand d, every node's usable mask at d by id: its
        # neighbours over links with residual >= d.  Filled by
        # secvne.routing.stored_masks and kept current by allocate and
        # release, the only writers of a residual.
        self.mask_store: dict[int, list[int]] = {}
        # Per active request id, its embedding and the (cpu, bw) amounts
        # allocate debited, which release credits.  Written by allocate and
        # release alone.
        self.active: dict[int, tuple[Embedding, dict[int, int], dict[LinkKey, int]]] = {}
        _set_boundary_hops(self)

    def boundary_nodes(self) -> set[int]:
        out: set[int] = set()
        for l in self.inter_links:
            out.add(l.u)
            out.add(l.v)
        return out

    def copy(self) -> "SubstrateNetwork":
        """Copy with current residuals and no active embeddings.

        The clone shares the min-hop table (``hop_dist`` and ``hop_next``)
        by identity, since both networks have the same topology: a row
        either fills serves both.  Its residuals, ``mask_store``,
        ``active`` and ``candidate_index``, which holds the clone's own
        node objects, are its own.
        """
        nodes = [SubstrateNode(n.id, n.domain, n.cpu_capacity, n.cpu_residual, n.ssl, n.ssd)
                 for n in self.nodes.values()]
        links = [SubstrateLink(l.u, l.v, l.bw_capacity, l.bw_residual)
                 for l in self.links.values()]
        clone = SubstrateNetwork(self.domain_count, nodes, links)
        clone.hop_dist = self.hop_dist
        clone.hop_next = self.hop_next
        return clone

    def __repr__(self):
        return (f"SubstrateNetwork(domains={self.domain_count}, "
                f"nodes={len(self.nodes)}, links={len(self.links)})")


def _set_boundary_hops(net: SubstrateNetwork) -> None:
    """The boundary pass, the last step of the constructor: set every node's
    ``hop_to_boundary``, its intra-domain hop count to the nearest boundary
    node (0 for boundary nodes themselves).

    Inter-domain links define boundary membership but are never traversed:
    every search runs over masks restricted to the domain it starts in.
    Raises ValueError when a domain holds no node, has no inter-domain
    attachment, or is not connected in the graph restricted to it.  An
    empty domain is found before any per-domain state is allocated, so a
    huge ``domain_count`` fails at once.
    """
    present = set(net.domain_of)
    if len(present) < net.domain_count:
        # SubstrateNetwork keeps every domain in [0, domain_count), so some
        # domain up to len(present) is missing.
        empty = min(set(range(len(present) + 1)) - present)
        raise ValueError(f"domain {empty} has no node")
    boundary = sum(1 << nid for nid in net.boundary_nodes())
    members = [0] * net.domain_count
    for i, d in enumerate(net.domain_of):
        members[d] |= 1 << i
    intra = [mask & members[d] for d, mask in zip(net.domain_of, net.adj_masks)]
    for d, mask in enumerate(members):
        if not mask & boundary:
            raise ValueError(f"domain {d} has no boundary node")
        if sum(bfs_levels(mask & -mask, intra)) != mask:
            raise ValueError(f"some domain is not connected: domain {d}")
        # Level h of the search from the domain's boundary nodes holds the
        # nodes h hops from the nearest one.
        for h, level in enumerate(bfs_levels(mask & boundary, intra)):
            while level:
                low = level & -level
                net.nodes[low.bit_length() - 1].hop_to_boundary = h
                level ^= low


def _embedding_deltas(emb: Embedding):
    """Per-node CPU and per-link bandwidth amounts an embedding consumes."""
    cpu: dict[int, int] = {}
    bw: dict[LinkKey, int] = {}
    nodes, links = emb.vnr.nodes, emb.vnr.links
    for vid, sid in emb.node_map.items():
        cpu[sid] = cpu.get(sid, 0) + nodes[vid].cpu_demand
    for vkey, path in emb.link_map.items():
        demand = links[vkey].bw_demand
        for a, b in itertools.pairwise(path):
            k = (a, b) if a < b else (b, a)
            bw[k] = bw.get(k, 0) + demand
    return cpu, bw


def _flip_crossed(net: SubstrateNetwork, bw: dict[LinkKey, int]) -> None:
    """Keep the mask store current as each link k of ``bw`` moves between
    its debited residual and that plus ``bw[k]``: called by allocate after
    the debit and by release before the credit, so each link holds the low
    side.  In the masks of every stored demand d that the move crosses, one
    side >= d and the other below it, flip both end bits of the link."""
    store = net.mask_store
    links = net.links
    for k, amount in bw.items():
        low = links[k].bw_residual
        high = low + amount
        for d, masks in store.items():
            if high >= d > low:
                a, b = k
                masks[a] ^= 1 << b
                masks[b] ^= 1 << a


def allocate(net: SubstrateNetwork, emb: Embedding) -> SubstrateNetwork:
    """Debit the embedding's demands from the substrate residuals.

    Callers are expected to have validated the embedding first; a residual
    that would go negative here means the validator and allocator disagree.
    """
    if emb.vnr.id in net.active:
        raise InternalConsistencyError(f"request {emb.vnr.id} is already embedded")
    cpu, bw = _embedding_deltas(emb)
    nodes, links = net.nodes, net.links
    for sid, amount in cpu.items():
        if nodes[sid].cpu_residual - amount < 0:
            raise InternalConsistencyError(
                f"node {sid}: residual {nodes[sid].cpu_residual} < demand {amount}")
    for k, amount in bw.items():
        if links[k].bw_residual - amount < 0:
            raise InternalConsistencyError(
                f"link {k}: residual {links[k].bw_residual} < demand {amount}")
    for sid, amount in cpu.items():
        nodes[sid].cpu_residual -= amount
    for k, amount in bw.items():
        links[k].bw_residual -= amount
    if net.mask_store:
        _flip_crossed(net, bw)
    net.active[emb.vnr.id] = (emb, cpu, bw)
    return net


def release(net: SubstrateNetwork, emb: Embedding) -> SubstrateNetwork:
    """Exact inverse of allocate for a currently active embedding: credits
    the amounts allocate recorded with it in ``net.active``."""
    held, cpu, bw = net.active.get(emb.vnr.id, (None, None, None))
    if held is not emb:
        raise InternalConsistencyError(f"request {emb.vnr.id} is not active")
    nodes, links = net.nodes, net.links
    for sid, amount in cpu.items():
        node = nodes[sid]
        if node.cpu_residual + amount > node.cpu_capacity:
            raise InternalConsistencyError(f"release would overfill node {sid}")
    for k, amount in bw.items():
        link = links[k]
        if link.bw_residual + amount > link.bw_capacity:
            raise InternalConsistencyError(f"release would overfill link {k}")
    if net.mask_store:
        _flip_crossed(net, bw)
    for sid, amount in cpu.items():
        nodes[sid].cpu_residual += amount
    for k, amount in bw.items():
        links[k].bw_residual += amount
    del net.active[emb.vnr.id]
    return net
