"""Feasible-path computation for virtual links over residual bandwidth.

A virtual link maps to exactly one unsplittable substrate path.  The path
metric is hop count; among equal-hop feasible paths the lexicographically
smallest node sequence wins, so routing is fully deterministic.

``route_all_links`` routes a whole request against a private debit table, so
the combined paths respect every link's residual cumulatively without
mutating the network.  Each link first tries its path in the substrate's
min-hop table (``min_hop_path``): the path the same rule picks in the bare
topology, bandwidth ignored.  The table lives as long as the topology, every
copy of the substrate shares it, and it is filled lazily: one full search
per destination, whose hop distances and next hops, each a row by source
(``hop_distances``), it keeps under the destination.  The table path is
taken when every link on it still has the demand left after residuals and
debits; only otherwise does ``route_link`` search the feasible subgraph.

This is exact.  The feasible subgraph is a subgraph of the topology, so a
topology min-hop path that is feasible is min-hop in the feasible subgraph
too, and every neighbour the feasible descent could step to is also a
topology candidate.  Both descents therefore pick the same next node, and
``route_link`` would return the table path.  Residual changes never
invalidate the table, because the topology is fixed after construction.

There is one search and one descent.  The search, here and in every
component split, is ``model.bfs_levels``, a level-synchronous breadth-first
search over node bitmasks: bit i stands for substrate node i, and
``levels[k]`` holds exactly the nodes k hops from dst.  The table's search
reads the topology's masks (``SubstrateNetwork.adj_masks``) and runs to
the end.
``route_link`` reads the usable masks at its demand d, in which a node's
mask holds the neighbours joined to it by links with residual >= d.  It
clears from a copy the debited links that can no longer carry d, and stops
at the first level k that meets src's mask: src lies k + 1 hops from dst,
and the levels the descent reads are complete.  The descent (``_descend``)
from src steps, at each level, to the lowest set bit of its mask AND the
level below.  That bit is the neighbour with the smallest id among the
neighbours one hop closer to dst, so both paths are the lexicographically
smallest min-hop paths of their graphs.

The table stores no path.  ``hop_distances`` gives each node at level
h >= 1 of the full search the lowest-id neighbour at level h - 1, the
step the descent takes there.  That step depends only on the node and dst,
not on where the descent started, so the descent from src is src followed
by the descent from its next hop.  ``min_hop_path`` therefore walks the
next-hop row from src to dst and gets exactly the path ``_descend`` gives
over the topology's masks.

``usable_masks`` is the one mask builder: each demand's masks are the
topology's masks less every link whose residual is below that demand, in
one plain pass over the links per demand.  The substrate keeps them per
demand in its mask store (``SubstrateNetwork.mask_store``), which
``model.allocate`` and ``model.release`` keep current, so a demand's masks
are built once and then read until the store is emptied.
``stored_masks`` is the store's one accessor: it builds a request's
missing demands in one pass, after emptying the store when they would take
it past ``MASK_STORE_LIMIT`` lists, so the store stays bounded whatever
the demands.  ``route_all_links`` calls it the first time a table path
lacks bandwidth, and a search plan without slack calls it once.
"""

from __future__ import annotations

from .errors import EmbeddingInfeasible
from .model import (
    Embedding,
    SubstrateNetwork,
    VirtualNetworkRequest,
    bfs_levels,
    link_key,
)

# The most demands the mask store holds, unless one request has more.
MASK_STORE_LIMIT = 32


def _descend(cur: int, levels: list[int], masks) -> tuple[int, ...]:
    """The path from node ``cur`` one level below it per hop, down
    ``levels`` from the last to the first, through the lowest set bit of its
    mask AND each level: the smallest-id neighbour one hop closer."""
    path = [cur]
    for k in range(len(levels) - 1, -1, -1):
        step = masks[cur] & levels[k]
        cur = (step & -step).bit_length() - 1
        path.append(cur)
    return tuple(path)


def route_link(src: int, dst: int, bw: int, net: SubstrateNetwork,
               debits: dict | None, masks: list[int]) -> tuple[int, ...]:
    """Minimum-hop path from src to dst over links with enough residual.

    ``masks`` lists each node's usable mask at ``bw`` by id, as
    ``usable_masks`` builds it (see the module docstring); it is read, never
    changed.  ``debits`` holds extra bandwidth already claimed by earlier
    paths of the same request.  Raises EmbeddingInfeasible when src and
    dst are disconnected in the feasible subgraph.
    """
    if src == dst:
        raise ValueError("route_link endpoints must differ")
    if debits:
        masks = masks.copy()
        for k, debit in debits.items():
            if net.links[k].bw_residual - debit < bw:
                a, b = k
                masks[a] &= ~(1 << b)
                masks[b] &= ~(1 << a)
    # Search from dst until a level holds a usable neighbour of src, so src
    # lies one level further.
    near = masks[src]
    levels = bfs_levels(1 << dst, masks, near)
    if not levels[-1] & near:
        raise EmbeddingInfeasible(f"no path {src} -> {dst} with bandwidth {bw}")
    return _descend(src, levels, masks)


def hop_distances(dst: int, net: SubstrateNetwork) -> list[int | None]:
    """Hop count to dst from each node, by the node's id, bandwidth
    ignored; None where the topology does not join the node to dst.

    Read from, or added to, the substrate's min-hop table: one full
    breadth-first search per destination fills the hop row and, in the same
    pass, the next-hop row (see the module docstring).  The only writer of
    the table's rows.
    """
    row = net.hop_dist[dst]
    if row is not None:
        return row
    masks = net.adj_masks
    levels = bfs_levels(1 << dst, masks)
    row = [None] * len(masks)
    nxt = [None] * len(masks)
    row[dst] = 0
    for h in range(1, len(levels)):
        level, below = levels[h], levels[h - 1]
        while level:
            low = level & -level
            i = low.bit_length() - 1
            step = masks[i] & below
            row[i] = h
            nxt[i] = (step & -step).bit_length() - 1
            level ^= low
    net.hop_next[dst] = nxt
    net.hop_dist[dst] = row
    return row


def min_hop_path(src: int, dst: int, net: SubstrateNetwork) -> tuple[int, ...]:
    """The path ``route_link`` picks from src to dst in the bare topology:
    the walk down dst's next-hop row, filled on first use.

    Raises EmbeddingInfeasible when the topology does not join src and dst.
    """
    nxt = net.hop_next[dst]
    if nxt is None:
        hop_distances(dst, net)
        nxt = net.hop_next[dst]
    if nxt[src] is None and src != dst:
        raise EmbeddingInfeasible(f"no path {src} -> {dst}: the substrate does not join them")
    path = [src]
    cur = src
    while cur != dst:
        cur = nxt[cur]
        path.append(cur)
    return tuple(path)


def usable_masks(demands, net: SubstrateNetwork) -> dict[int, list[int]]:
    """For each demand d of ``demands``, in ascending order, every node's
    usable mask by id: its neighbours over links whose residual is at
    least d (see the module docstring).

    Each demand's masks are a copy of the topology's masks, less the links
    whose residual is below it: one plain pass over the links per demand.
    The builder runs only for demands the mask store lacks, and in the
    audit, so the plain pass costs little.
    """
    masks = {}
    for d in sorted(set(demands)):
        mask = masks[d] = net.adj_masks.copy()
        for (a, b), link in net.links.items():
            if link.bw_residual < d:
                mask[a] &= ~(1 << b)
                mask[b] &= ~(1 << a)
    return masks


def stored_masks(demands, net: SubstrateNetwork) -> dict[int, list[int]]:
    """The substrate's mask store, holding the usable masks at every demand
    of ``demands``.

    The missing demands are built in one ``usable_masks`` pass.  When they
    would take the store past ``MASK_STORE_LIMIT`` lists, the store is
    emptied first and every demand of ``demands`` is built.
    """
    store = net.mask_store
    missing = set(demands).difference(store)
    if missing:
        if len(store) + len(missing) > MASK_STORE_LIMIT:
            store.clear()
            missing = set(demands)
        store.update(usable_masks(missing, net))
    return store


def _path_feasible(path: tuple[int, ...], bw: int, net: SubstrateNetwork,
                   debits: dict) -> bool:
    links = net.links
    for i in range(len(path) - 1):
        a, b = path[i], path[i + 1]
        k = (a, b) if a < b else (b, a)
        if links[k].bw_residual - debits.get(k, 0) < bw:
            return False
    return True


def route_all_links(vnr: VirtualNetworkRequest, assignment: dict[int, int],
                    net: SubstrateNetwork) -> tuple[dict, int]:
    """Route every virtual link, debiting residuals cumulatively: the path
    of each virtual link by key, and the total bandwidth-hop cost.

    Links are processed in the request's ``routing_order``: descending demand
    (ties by link key), so the largest flows claim scarce capacity first.
    Each takes its table path if that is still feasible, else a breadth-first
    search over the usable masks of its demand, read from the mask store;
    a demand the store lacks calls ``stored_masks`` for all of the
    request's demands.  Fails atomically: no partial result escapes.
    """
    debits: dict = {}
    paths: dict = {}
    total = 0
    store = net.mask_store
    for vlink in vnr.routing_order:
        src = assignment[vlink.u]
        dst = assignment[vlink.v]
        bw = vlink.bw_demand
        if src == dst:
            raise EmbeddingInfeasible(f"virtual link {vlink.key} endpoints share node {src}")
        path = min_hop_path(src, dst, net)
        if not _path_feasible(path, bw, net, debits):
            masks = store.get(bw) or stored_masks([l.bw_demand for l in vnr.routing_order],
                                                  net)[bw]
            path = route_link(src, dst, bw, net, debits, masks)
        for i in range(len(path) - 1):
            k = link_key(path[i], path[i + 1])
            debits[k] = debits.get(k, 0) + bw
        paths[vlink.key] = path
        total += bw * (len(path) - 1)
    return paths, total


def build_embedding(vnr: VirtualNetworkRequest, assignment: dict[int, int],
                    net: SubstrateNetwork) -> Embedding:
    """Route a node assignment with ``route_all_links`` and wrap it into an
    Embedding."""
    paths, _ = route_all_links(vnr, assignment, net)
    return Embedding(vnr, dict(assignment), paths)
