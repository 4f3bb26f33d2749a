"""Independent re-checker for complete embeddings.

Re-derives every placement constraint from scratch against the current
residuals, so it can be run in shadow mode next to the fast bookkeeping path.
Violations are data, not exceptions: each record names one failed constraint
class out of

    cpu                CPU demand exceeds the host's residual
    injectivity        a substrate node hosts more than one virtual node
                       (or a virtual node has no host at all)
    candidate-domain   host lies outside the virtual node's candidate domains
    bandwidth          cumulative path demand exceeds a link's residual
    loop               both endpoints of a virtual link share one host
    single-path        a virtual link lacks exactly one well-formed simple path
    security-forward   virtual security demand exceeds the host's level
    security-backward  host's security demand exceeds the virtual node's level
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import Embedding, LinkKey, SubstrateNetwork, VirtualNetworkRequest

CPU = "cpu"
INJECTIVITY = "injectivity"
CANDIDATE_DOMAIN = "candidate-domain"
BANDWIDTH = "bandwidth"
LOOP = "loop"
SINGLE_PATH = "single-path"
SECURITY_FORWARD = "security-forward"
SECURITY_BACKWARD = "security-backward"


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


def validate_embedding(net: SubstrateNetwork, vnr: VirtualNetworkRequest,
                       emb: Embedding) -> list[Violation]:
    """Return one Violation per failed constraint; empty iff fully feasible."""
    out: list[Violation] = []

    hosts_seen: dict[int, list[int]] = {}
    for vid in sorted(vnr.nodes):
        if vid not in emb.node_map:
            out.append(Violation(INJECTIVITY, f"virtual node {vid} has no host"))
            continue
        hosts_seen.setdefault(emb.node_map[vid], []).append(vid)
    for vid in sorted(emb.node_map):
        if vid not in vnr.nodes:
            out.append(Violation(INJECTIVITY, f"assignment for unknown virtual node {vid}"))
    for sid, vids in sorted(hosts_seen.items()):
        if len(vids) > 1:
            out.append(Violation(INJECTIVITY, f"substrate node {sid} hosts {vids}"))

    for vid in sorted(vnr.nodes):
        sid = emb.node_map.get(vid)
        if sid is None:
            continue
        v = vnr.nodes[vid]
        host = net.nodes.get(sid)
        if host is None:
            out.append(Violation(CANDIDATE_DOMAIN,
                                 f"virtual node {vid} mapped to unknown substrate node {sid}"))
            continue
        if host.domain not in v.cd:
            out.append(Violation(CANDIDATE_DOMAIN,
                                 f"virtual node {vid} on node {sid} in domain {host.domain}, "
                                 f"candidates {sorted(v.cd)}"))
        if v.cpu_demand > host.cpu_residual:
            out.append(Violation(CPU,
                                 f"virtual node {vid} demands {v.cpu_demand} cpu, "
                                 f"node {sid} has {host.cpu_residual}"))
        if v.vsd > host.ssl:
            out.append(Violation(SECURITY_FORWARD,
                                 f"virtual node {vid} demands level {v.vsd}, "
                                 f"node {sid} offers {host.ssl}"))
        if host.ssd > v.vsl:
            out.append(Violation(SECURITY_BACKWARD,
                                 f"node {sid} demands level {host.ssd}, "
                                 f"virtual node {vid} offers {v.vsl}"))

    # Link-level checks.  Paths that fail structurally are excluded from the
    # cumulative bandwidth accounting below.
    load: dict[LinkKey, int] = {}
    for vkey in sorted(vnr.links):
        u, v = vkey
        su, sv = emb.node_map.get(u), emb.node_map.get(v)
        if su is not None and su == sv:
            out.append(Violation(LOOP,
                                 f"virtual link {vkey} endpoints both on substrate node {su}"))
            continue
        path = emb.link_map.get(vkey)
        if path is None:
            out.append(Violation(SINGLE_PATH, f"virtual link {vkey} has no path"))
            continue
        problem = _path_problem(net, path, su, sv, vnr.links[vkey].bw_demand, load)
        if problem:
            out.append(Violation(SINGLE_PATH, f"virtual link {vkey}: {problem}"))
    for vkey in sorted(emb.link_map):
        if vkey not in vnr.links:
            out.append(Violation(SINGLE_PATH, f"path for unknown virtual link {vkey}"))

    for k in sorted(load):
        if load[k] > net.links[k].bw_residual:
            out.append(Violation(BANDWIDTH,
                                 f"link {k} carries {load[k]}, residual {net.links[k].bw_residual}"))

    return out


def _path_problem(net: SubstrateNetwork, path: tuple[int, ...], expect_src, expect_dst,
                  demand: int, load: dict[LinkKey, int]) -> str | None:
    """What is wrong with ``path`` as the one path of a virtual link whose
    hosts are ``expect_src`` and ``expect_dst``, or None after adding
    ``demand`` to ``load`` on each of its links.  One walk over the hops
    finds their link keys."""
    if len(path) < 2:
        return f"path {path} has fewer than two nodes"
    visited = set(path)
    if len(visited) != len(path):
        return f"path {path} repeats a node"
    if not visited <= net.nodes.keys():
        unknown = next(nid for nid in path if nid not in net.nodes)
        return f"path {path} visits unknown node {unknown}"
    links = net.links
    keys = []
    for a, b in itertools.pairwise(path):
        k = (a, b) if a < b else (b, a)
        if k not in links:
            return f"path {path} uses missing link ({a}, {b})"
        keys.append(k)
    ends = {path[0], path[-1]}
    if expect_src is None or expect_dst is None or ends != {expect_src, expect_dst}:
        return (f"path {path} connects {tuple(sorted(ends))}, "
                f"expected ({expect_src}, {expect_dst})")
    for k in keys:
        load[k] = load.get(k, 0) + demand
    return None
