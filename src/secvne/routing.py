"""Feasible-path computation for virtual links over residual bandwidth.

A virtual link maps to exactly one unsplittable substrate path.  The path
metric is hop count; among equal-hop feasible paths the lexicographically
smallest node sequence wins, so routing is fully deterministic.

``route_all_links`` routes a whole request against a private debit table, so
the combined paths respect every link's residual cumulatively without
mutating the network.  The optional ``route_cache`` memoizes clean-state
routes per (src, dst, bw) triple; it is sound to share one cache across many
calls as long as the substrate residuals do not change in between (debits
only shrink the feasible edge set, so a cached path that survives the current
debit table is still the unique best path).
"""

from __future__ import annotations

from collections import deque

from .errors import LinkMappingInfeasible, NoFeasiblePath
from .model import Embedding, SubstrateNetwork, VirtualNetworkRequest, link_key


class RoutingResult:
    """Paths for every virtual link plus the total bandwidth-hop cost."""

    __slots__ = ("paths", "total_bw_cost")

    def __init__(self, paths: dict, total_bw_cost: int):
        self.paths = paths
        self.total_bw_cost = total_bw_cost


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

    def usable(a: int, b: int) -> bool:
        k = (a, b) if a < b else (b, a)
        return links[k].bw_residual - debits.get(k, 0) >= bw

    # Breadth-first from dst so dist[n] is the hop count down to dst; stop once
    # src is settled (everything nearer is settled by then).
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        cur = queue.popleft()
        if cur == src:
            break
        d = dist[cur] + 1
        for nbr in adj[cur]:
            if nbr not in dist and usable(cur, nbr):
                dist[nbr] = d
                queue.append(nbr)
    if src not in dist:
        raise NoFeasiblePath(f"no path {src} -> {dst} with bandwidth {bw}")

    # Greedy descent: always step to the smallest-id neighbor one hop closer.
    path = [src]
    cur = src
    while cur != dst:
        want = dist[cur] - 1
        for nbr in adj[cur]:
            if dist.get(nbr) == want and usable(cur, nbr):
                path.append(nbr)
                cur = nbr
                break
        else:  # pragma: no cover - contradicts the BFS labeling
            raise NoFeasiblePath(f"walk from {src} toward {dst} lost the gradient")
    return tuple(path)


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
                    route_cache: dict | None = None) -> RoutingResult:
    """Route every virtual link, debiting residuals cumulatively.

    Links are processed in descending demand order (ties by link key) so the
    largest flows claim scarce capacity first.  Fails atomically: no partial
    result escapes.
    """
    order = sorted(vnr.links.values(), key=lambda l: (-l.bw_demand, l.key))
    debits: dict = {}
    paths: dict = {}
    total = 0
    for vlink in order:
        src = assignment[vlink.u]
        dst = assignment[vlink.v]
        if src == dst:
            raise LinkMappingInfeasible(vlink.key,
                                        f"virtual link {vlink.key} endpoints share node {src}")
        path = None
        if route_cache is not None:
            cached = route_cache.get((src, dst, vlink.bw_demand))
            if cached is not None and _path_feasible(cached, vlink.bw_demand, net, debits):
                path = cached
        if path is None:
            try:
                path = route_link(src, dst, vlink.bw_demand, net, debits)
            except NoFeasiblePath as exc:
                raise LinkMappingInfeasible(vlink.key, str(exc)) from exc
            if route_cache is not None and not debits:
                route_cache[(src, dst, vlink.bw_demand)] = path
        for i in range(len(path) - 1):
            k = link_key(path[i], path[i + 1])
            debits[k] = debits.get(k, 0) + vlink.bw_demand
        paths[vlink.key] = path
        total += vlink.bw_demand * (len(path) - 1)
    return RoutingResult(paths, total)


def build_embedding(vnr: VirtualNetworkRequest, assignment: dict[int, int],
                    net: SubstrateNetwork) -> Embedding:
    """Route a node assignment and wrap it into an Embedding."""
    routing = route_all_links(vnr, assignment, net)
    return Embedding(vnr, dict(assignment), routing.paths)
