"""Feasible-path computation for virtual links over residual bandwidth.

A virtual link maps to exactly one unsplittable substrate path.  The path
metric is hop count; among equal-hop feasible paths the lexicographically
smallest node sequence wins, so routing is fully deterministic.

``route_all_links`` routes a whole request against a private debit table, so
the combined paths respect every link's residual cumulatively without
mutating the network.  Each link first tries its entry in the substrate's
min-hop path table (``min_hop_path``): the path the same rule picks in the
bare topology, bandwidth ignored.  The table lives as long as the substrate
and is filled lazily, one full breadth-first search per destination plus a
greedy descent per (src, dst) pair.  The table path is taken when every link
on it still has the demand left after residuals and debits; only otherwise
does ``route_link`` search the feasible subgraph.

This is exact.  The feasible subgraph is a subgraph of the topology, so a
topology min-hop path that is feasible is min-hop in the feasible subgraph
too, and every neighbour the feasible descent could step to is also a
topology candidate.  Both descents therefore pick the same next node, and
``route_link`` would return the table path.  Residual changes never
invalidate the table, because the topology is fixed after construction.

``route_link`` searches over bitmasks.  Bit i stands for the substrate node
of bit rank i, the i-th smallest node id (``SubstrateNetwork.rank``), and a
node's usable mask at demand d holds the neighbours joined to it by links
with residual >= d.  A search takes these masks from the caller
(``usable_subgraphs`` builds them for every demand of a request in one sweep)
or computes each on its node's first visit, then clears from a copy the
debited links that can no longer carry d.  Breadth-first search from dst is
level-synchronous: a level is the OR of its predecessor's masks minus the
nodes seen so far, so level k holds exactly the nodes k hops from dst in the
feasible subgraph.  It stops at the first level k that meets src's mask:
src lies k + 1 hops from dst, and the levels the descent reads are complete.
The descent from src steps, at each level, to the lowest set bit of its
mask AND the level below.  That bit is the neighbour with the smallest id
among the feasible neighbours one hop closer to dst, the node a descent over
ascending adjacency lists would pick, so the bitset search returns the
lexicographically smallest min-hop path.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

from .errors import LinkMappingInfeasible, NoFeasiblePath
from .model import Embedding, SubstrateNetwork, VirtualNetworkRequest, link_key


class RoutingResult:
    """Paths for every virtual link plus the total bandwidth-hop cost."""

    __slots__ = ("paths", "total_bw_cost")

    def __init__(self, paths: dict, total_bw_cost: int):
        self.paths = paths
        self.total_bw_cost = total_bw_cost


class _UsableMasks(dict):
    """Bit rank -> usable mask at one demand, each computed from the
    residuals on first access: the masks of a search without the caller's."""

    __slots__ = ("net", "bw")

    def __init__(self, net: SubstrateNetwork, bw: int):
        super().__init__()
        self.net = net
        self.bw = bw

    def __missing__(self, r: int) -> int:
        net = self.net
        links = net.links
        rank = net.rank
        a = net.node_ids[r]
        mask = 0
        for b in net.adj[a]:
            if links[(a, b) if a < b else (b, a)].bw_residual >= self.bw:
                mask |= 1 << rank[b]
        self[r] = mask
        return mask


def route_link(src: int, dst: int, bw: int, net: SubstrateNetwork,
               debits: dict | None = None, masks: list[int] | None = None) -> tuple[int, ...]:
    """Minimum-hop path from src to dst over links with enough residual.

    ``masks`` lists each node's usable mask at ``bw`` by bit rank (see the
    module docstring); None computes each mask on its node's first visit.
    ``debits`` holds extra bandwidth already claimed by earlier paths of the
    same request.  Raises NoFeasiblePath when src and dst are disconnected in
    the feasible subgraph.
    """
    if src == dst:
        raise ValueError("route_link endpoints must differ")
    rank = net.rank
    if masks is None:
        masks = _UsableMasks(net, bw)
    elif debits:
        masks = masks.copy()
    if debits:
        links = net.links
        for k, debit in debits.items():
            residual = links[k].bw_residual
            if residual >= bw > residual - debit:
                a, b = rank[k[0]], rank[k[1]]
                masks[a] &= ~(1 << b)
                masks[b] &= ~(1 << a)

    # Level-synchronous breadth-first search from dst: levels[k] is the set
    # of nodes k hops from dst.  It stops at the first level that holds a
    # usable neighbour of src, so src lies one level further.
    cur = rank[src]
    near = masks[cur]
    frontier = visited = 1 << rank[dst]
    levels = [frontier]
    while not frontier & near:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~visited
        if not frontier:
            raise NoFeasiblePath(f"no path {src} -> {dst} with bandwidth {bw}")
        visited |= frontier
        levels.append(frontier)

    # Descend one level per hop to the smallest-id usable neighbour there.
    node_ids = net.node_ids
    path = [src]
    for k in range(len(levels) - 1, -1, -1):
        step = masks[cur] & levels[k]
        cur = (step & -step).bit_length() - 1
        path.append(node_ids[cur])
    return tuple(path)


def hop_distances(dst: int, net: SubstrateNetwork) -> dict[int, int]:
    """Hop count to dst from every node that reaches it, bandwidth ignored.

    Read from, or added to, the substrate's distance table: one full
    breadth-first search per destination.
    """
    dist = net.hop_dist.get(dst)
    if dist is not None:
        return dist
    adj = net.adj
    dist = net.hop_dist[dst] = {dst: 0}
    queue = deque([dst])
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for nbr in adj[cur]:
            if nbr not in dist:
                dist[nbr] = d
                queue.append(nbr)
    return dist


def _descend(src: int, dst: int, dist: dict[int, int],
             adj: dict[int, list[int]]) -> tuple[int, ...]:
    """Greedy descent from src down ``dist`` (hop counts to dst): always step
    to the smallest-id neighbour one hop closer."""
    path = [src]
    cur = src
    while cur != dst:
        want = dist[cur] - 1
        for nbr in adj[cur]:
            if dist.get(nbr) == want:
                break
        else:  # pragma: no cover - contradicts the breadth-first labelling
            raise NoFeasiblePath(f"walk from {src} toward {dst} lost the gradient")
        path.append(nbr)
        cur = nbr
    return tuple(path)


def min_hop_path(src: int, dst: int, net: SubstrateNetwork) -> tuple[int, ...]:
    """The path ``route_link`` picks from src to dst in the bare topology.

    Read from, or added to, the substrate's path table.  Raises
    NoFeasiblePath when the topology does not join src and dst.
    """
    path = net.min_hop_paths.get((src, dst))
    if path is not None:
        return path
    dist = hop_distances(dst, net)
    if src not in dist:
        raise NoFeasiblePath(f"no path {src} -> {dst}: the substrate does not join them")
    path = net.min_hop_paths[(src, dst)] = _descend(src, dst, dist, net.adj)
    return path


def usable_subgraphs(demands, net: SubstrateNetwork
                     ) -> tuple[dict[int, dict[int, int]], dict[int, list[int]]]:
    """For each demand d of ``demands``, the subgraph of links whose residual
    is at least d, twice: every substrate node's component label, and every
    node's usable mask by bit rank (see the module docstring).

    One bucketing pass files each link under the largest demand it carries,
    or under none.  The masks are then built in ascending demand order, from
    the topology's masks less the links each demand drops, so only the links
    short of the largest demand are touched.  The labels come from a
    union-find sweep that merges the buckets in descending demand order.  A
    merge relabels the smaller component, so the sweep relabels each node
    O(log n) times.  Two nodes share a label at d exactly when links with
    residual >= d join them.
    """
    thresholds = sorted(set(demands), reverse=True)
    # ascending negated thresholds: bisect_left finds the largest demand <= r
    keys = [-d for d in thresholds]
    # buckets[i] holds the links whose largest demand is thresholds[i], and
    # the last bucket those that carry no demand at all
    buckets: list[list] = [[] for _ in range(len(thresholds) + 1)]
    for k, link in net.links.items():
        buckets[bisect_left(keys, -link.bw_residual)].append(k)
    rank = net.rank
    masks = {}
    mask = list(net.adj_masks)
    for d, bucket in zip(reversed(thresholds), reversed(buckets)):
        for a, b in bucket:
            ra, rb = rank[a], rank[b]
            mask[ra] &= ~(1 << rb)
            mask[rb] &= ~(1 << ra)
        masks[d] = mask.copy()
    label = {n: n for n in net.nodes}
    members = {n: [n] for n in net.nodes}
    labels = {}
    for d, bucket in zip(thresholds, buckets):
        for a, b in bucket:
            keep, gone = label[a], label[b]
            if keep == gone:
                continue
            if len(members[keep]) < len(members[gone]):
                keep, gone = gone, keep
            moved = members.pop(gone)
            for n in moved:
                label[n] = keep
            members[keep].extend(moved)
        labels[d] = label.copy()
    return labels, masks


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
                    net: SubstrateNetwork,
                    masks: dict[int, list[int]] | None = None) -> RoutingResult:
    """Route every virtual link, debiting residuals cumulatively.

    Links are processed in the request's ``routing_order``: descending demand
    (ties by link key), so the largest flows claim scarce capacity first.
    Each takes its table path if that is still feasible, else a breadth-first
    search over the feasible subgraph, given the usable masks of its demand
    when ``masks`` (from ``usable_subgraphs``) holds them.  Fails atomically:
    no partial result escapes.
    """
    debits: dict = {}
    paths: dict = {}
    total = 0
    for vlink in vnr.routing_order:
        src = assignment[vlink.u]
        dst = assignment[vlink.v]
        bw = vlink.bw_demand
        if src == dst:
            raise LinkMappingInfeasible(f"virtual link {vlink.key} endpoints share node {src}")
        try:
            path = min_hop_path(src, dst, net)
            if not _path_feasible(path, bw, net, debits):
                path = route_link(src, dst, bw, net, debits,
                                  None if masks is None else masks[bw])
        except NoFeasiblePath as exc:
            raise LinkMappingInfeasible(str(exc)) from exc
        for i in range(len(path) - 1):
            k = link_key(path[i], path[i + 1])
            debits[k] = debits.get(k, 0) + bw
        paths[vlink.key] = path
        total += bw * (len(path) - 1)
    return RoutingResult(paths, total)


def build_embedding(vnr: VirtualNetworkRequest, assignment: dict[int, int],
                    net: SubstrateNetwork) -> Embedding:
    """Route a node assignment and wrap it into an Embedding."""
    routing = route_all_links(vnr, assignment, net)
    return Embedding(vnr, dict(assignment), routing.paths)
