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


def _descend(src: int, dst: int, dist: dict[int, int], adj: dict[int, list[int]],
             usable=None) -> tuple[int, ...]:
    """Greedy descent from src down ``dist`` (hop counts to dst): always step
    to the smallest-id neighbour one hop closer over a link ``usable`` accepts
    (every link when it is None)."""
    path = [src]
    cur = src
    while cur != dst:
        want = dist[cur] - 1
        for nbr in adj[cur]:
            if dist.get(nbr) == want and (usable is None or usable(cur, nbr)):
                break
        else:  # pragma: no cover - contradicts the breadth-first labelling
            raise NoFeasiblePath(f"walk from {src} toward {dst} lost the gradient")
        path.append(nbr)
        cur = nbr
    return tuple(path)


def route_link(src: int, dst: int, bw: int, net: SubstrateNetwork,
               debits: dict | None = None) -> tuple[int, ...]:
    """Minimum-hop path from src to dst over links with enough residual.

    ``debits`` holds extra bandwidth already claimed by earlier paths of the
    same request.  Raises NoFeasiblePath when src and dst are disconnected in
    the feasible subgraph.
    """
    if src == dst:
        raise ValueError("route_link endpoints must differ")
    links = net.links
    adj = net.adj
    if debits is None:
        debits = {}

    # Breadth-first from dst, one level at a time, so dist[n] is the hop count
    # down to dst.  Stop as soon as src is discovered: every node nearer to
    # dst, all the descent below reads, is settled by then.
    dist = {dst: 0}
    frontier = [dst]
    d = 0
    while frontier and src not in dist:
        d += 1
        level = []
        for cur in frontier:
            for nbr in adj[cur]:
                if nbr in dist:
                    continue
                k = (cur, nbr) if cur < nbr else (nbr, cur)
                if links[k].bw_residual - debits.get(k, 0) >= bw:
                    dist[nbr] = d
                    level.append(nbr)
            if src in dist:
                break
        frontier = level
    if src not in dist:
        raise NoFeasiblePath(f"no path {src} -> {dst} with bandwidth {bw}")

    def usable(a: int, b: int) -> bool:
        k = (a, b) if a < b else (b, a)
        return links[k].bw_residual - debits.get(k, 0) >= bw

    return _descend(src, dst, dist, adj, usable)


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


def component_labels(demands, net: SubstrateNetwork) -> dict[int, dict[int, int]]:
    """For each demand d, every substrate node's component label in the
    subgraph of links whose residual is at least d.

    One union-find sweep: the links are bucketed by the largest demand they
    carry and merged in descending demand order, and each demand's labels
    are a copy of the running labels after its bucket.  A merge relabels the
    smaller component, so the sweep relabels each node O(log n) times.  Two
    nodes share a label at d exactly when links with residual >= d join them.
    """
    thresholds = sorted(set(demands), reverse=True)
    # ascending negated thresholds: bisect_left finds the largest demand <= r
    keys = [-d for d in thresholds]
    last = len(keys)
    buckets: list[list] = [[] for _ in thresholds]
    for k, link in net.links.items():
        i = bisect_left(keys, -link.bw_residual)
        if i < last:
            buckets[i].append(k)
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
    return labels


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
                    net: SubstrateNetwork) -> RoutingResult:
    """Route every virtual link, debiting residuals cumulatively.

    Links are processed in the request's ``routing_order``: descending demand
    (ties by link key), so the largest flows claim scarce capacity first.
    Each takes its table path if that is still feasible, else a breadth-first
    search over the feasible subgraph.  Fails atomically: no partial result
    escapes.
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
                path = route_link(src, dst, bw, net, debits)
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
