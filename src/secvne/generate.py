"""Seeded random generation of substrate topologies and request streams.

Defaults follow the standard benchmark setup for this problem family:
a 120-node substrate split over 4 domains, intra-domain links drawn per node
pair with probability 0.6, link bandwidth U[1000, 3000], security attributes
U[0, 4] on both sides, requests of 2-10 nodes with link bandwidth U[1, 10].

The published CPU ranges (substrate U[0, 50], virtual U[50, 100]) would make
every request unhostable, so the defaults swap them (substrate U[50, 100],
virtual U[1, 50]).  To restore the published values, e.g. to demonstrate the
problem, set ``substrate_cpu_range=(0, 50)`` and ``vnr_cpu_range=(50, 100)``,
as the config file ``configs/table1.json`` does.

Arrivals form a Poisson process and lifetimes are exponential, a lifetime of
0 or one that overflows to infinity being drawn again; the source material
never pins these, so rate and mean lifetime are config knobs with
defaults chosen to load the default substrate into a contended steady state.
All draws come from two PCG64 streams split from one root seed, read through
``seeding.Draws``: the substrate from (seed, 0) and the request stream from
(seed, 1).  ``Draws`` gives the values numpy's ``Generator`` would for the
same calls, so identical configs reproduce identical networks on any
platform.  A range bound may be at most numpy's int64 limit, 2**63 - 1.

One builder, ``_random_connected_links``, draws every domain's graph and
every request graph, in one draw order: each node pair, in ascending order,
draws ``random()`` and a joined pair draws its bandwidth at once; the
components (``model.components`` over node bitmasks) are then joined, in
order of their smallest member, by links between random endpoints, all the
joins' endpoints being drawn before any join's bandwidth.  The domains are
then joined by one inter-domain link per domain pair, between a random node
of each, whose endpoints and then bandwidth are drawn pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

from .errors import InvalidConfig
from .model import (
    SubstrateLink,
    SubstrateNetwork,
    SubstrateNode,
    VirtualLink,
    VirtualNetworkRequest,
    VirtualNode,
    components,
    compute_boundary_hops,
)
from .seeding import SUBSTRATE_STREAM, WORKLOAD_STREAM, Draws, check_seed, draws_from

# Link probability inside generated request graphs (before connectivity repair).
VNR_LINK_RATE = 0.5
# The largest range bound a config may give: numpy's int64 limit, which the
# draws follow.
MAX_RANGE_BOUND = (1 << 63) - 1
# Size limits, so that no config makes generation run for hours: at most
# MAX_NODE_COUNT substrate nodes (2 domains of 1,000 nodes take about 5 s on a
# 2-core x86-64 VM), and a stream whose expected arrival count times
# n * (n + 1) / 2, for requests of up to n nodes, is at most MAX_STREAM_DRAWS
# (each request draws its n nodes and a link for each of its node pairs).
MAX_NODE_COUNT = 2_000
MAX_STREAM_DRAWS = 10**6
# The config fields holding a (min, max) pair; only cd_size_range may be None.
RANGE_FIELDS = ("substrate_cpu_range", "substrate_bw_range", "security_range",
                "vnr_node_range", "vnr_cpu_range", "vnr_bw_range", "cd_size_range")


@dataclass
class GeneratorConfig:
    seed: int = 0
    domain_count: int = 4
    node_count: int = 120
    intra_link_rate: float = 0.6
    substrate_cpu_range: tuple[int, int] = (50, 100)
    substrate_bw_range: tuple[int, int] = (1000, 3000)
    security_range: tuple[int, int] = (0, 4)
    vnr_node_range: tuple[int, int] = (2, 10)
    vnr_cpu_range: tuple[int, int] = (1, 50)
    vnr_bw_range: tuple[int, int] = (1, 10)
    vnr_arrival_rate: float = 0.05
    vnr_mean_lifetime: float = 1000.0
    cd_size_range: tuple[int, int] | None = None  # None -> (1, domain_count)

    def effective_cd_size_range(self) -> tuple[int, int]:
        return self.cd_size_range if self.cd_size_range is not None else (1, self.domain_count)

    def validate(self) -> None:
        self._check_types()
        check_seed(self.seed, "seed")
        if self.domain_count < 2:
            raise InvalidConfig(f"domain_count must be at least 2 (boundary distances "
                                f"need inter-domain links), got {self.domain_count}")
        if self.node_count < self.domain_count:
            raise InvalidConfig(f"node_count must be at least domain_count "
                                f"({self.domain_count}), got {self.node_count}")
        if self.node_count > MAX_NODE_COUNT:
            raise InvalidConfig(f"node_count must be at most {MAX_NODE_COUNT}, "
                                f"got {self.node_count}")
        if not 0.0 <= self.intra_link_rate <= 1.0:
            raise InvalidConfig("intra_link_rate must lie in [0, 1]")
        if self.vnr_arrival_rate <= 0:
            raise InvalidConfig("vnr_arrival_rate must be positive")
        if self.vnr_mean_lifetime <= 0:
            raise InvalidConfig("vnr_mean_lifetime must be positive")
        for name in RANGE_FIELDS:
            if name == "cd_size_range":
                continue  # bounded by domain_count below
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidConfig(f"{name} has min {lo} > max {hi}")
            if lo < 0:
                raise InvalidConfig(f"{name} has negative min {lo}")
            if hi > MAX_RANGE_BOUND:
                raise InvalidConfig(f"{name} has max {hi} above 2**63 - 1")
        if self.vnr_node_range[0] < 1:
            raise InvalidConfig("vnr_node_range min must be at least 1")
        if self.vnr_cpu_range[0] < 1:
            raise InvalidConfig("vnr_cpu_range min must be at least 1")
        cd_lo, cd_hi = self.effective_cd_size_range()
        if cd_lo < 1 or cd_hi > self.domain_count or cd_lo > cd_hi:
            raise InvalidConfig(f"cd_size_range ({cd_lo}, {cd_hi}) must lie within "
                                f"[1, {self.domain_count}]")

    def _check_types(self) -> None:
        """InvalidConfig unless the seed, the counts and every range bound
        are integers (never booleans) and the rates are finite numbers."""
        def integer(value) -> bool:
            return isinstance(value, Integral) and not isinstance(value, bool)

        for name in ("seed", "domain_count", "node_count"):
            value = getattr(self, name)
            if not integer(value):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        for name in ("intra_link_rate", "vnr_arrival_rate", "vnr_mean_lifetime"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and not isinstance(value, bool)
                    and math.isfinite(value)):
                raise InvalidConfig(f"{name} must be a finite number, got {value!r}")
        for name in RANGE_FIELDS:
            value = getattr(self, name)
            if name == "cd_size_range" and value is None:
                continue
            if not (isinstance(value, (tuple, list)) and len(value) == 2
                    and all(integer(bound) for bound in value)):
                raise InvalidConfig(f"{name} must be a (min, max) pair of integers, "
                                    f"got {value!r}")


def _draw(draws: Draws, lo: int, hi: int) -> int:
    """Uniform int in [lo, hi], as ``Generator.integers(lo, hi + 1)``."""
    return int(lo) + draws.integers(int(hi) - int(lo) + 1)


def _domain_sizes(node_count: int, domain_count: int) -> list[int]:
    base, rem = divmod(node_count, domain_count)
    return [base + (1 if d < rem else 0) for d in range(domain_count)]


def _random_connected_links(members: list[int], rate: float, bw_lo: int, bw_hi: int,
                            draws: Draws) -> list[tuple[int, int, int]]:
    """(u, v, bw) for the links of a connected random graph over the
    ascending ``members``: each pair, in ascending order, is joined with
    probability ``rate`` and draws its bandwidth at once; then the
    components are joined, in order of their smallest member, each by a link
    from a random node of those joined so far to a random node of its own,
    every join's endpoints drawn before any join's bandwidth."""
    n = len(members)
    masks = [0] * n
    links = []
    for i, u in enumerate(members):
        for j in range(i + 1, n):
            if draws.random() < rate:
                links.append((u, members[j], _draw(draws, bw_lo, bw_hi)))
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    # The components come out ordered by their smallest member, each one
    # ascending.
    comps = [[m for i, m in enumerate(members) if comp >> i & 1]
             for comp in components(masks)]
    joins = []
    merged = comps[0]
    for comp in comps[1:]:
        joins.append((merged[draws.integers(len(merged))], comp[draws.integers(len(comp))]))
        merged = sorted(merged + comp)
    return links + [(u, v, _draw(draws, bw_lo, bw_hi)) for u, v in joins]


def generate_substrate(cfg: GeneratorConfig) -> SubstrateNetwork:
    """Multi-domain substrate: per-domain random graphs repaired to be
    connected, plus one inter-domain link per domain pair, between a random
    node of each domain."""
    cfg.validate()
    draws = draws_from(cfg.seed, SUBSTRATE_STREAM)
    cpu_lo, cpu_hi = cfg.substrate_cpu_range
    bw_lo, bw_hi = cfg.substrate_bw_range
    sec_lo, sec_hi = cfg.security_range

    nodes: list[SubstrateNode] = []
    domain_members: list[list[int]] = []
    next_id = 0
    for d, size in enumerate(_domain_sizes(cfg.node_count, cfg.domain_count)):
        members = list(range(next_id, next_id + size))
        next_id += size
        domain_members.append(members)
        for nid in members:
            cpu = _draw(draws, cpu_lo, cpu_hi)
            nodes.append(SubstrateNode(nid, d, cpu, cpu,
                                       _draw(draws, sec_lo, sec_hi),
                                       _draw(draws, sec_lo, sec_hi)))

    links = [SubstrateLink(u, v, bw, bw) for members in domain_members
             for u, v, bw in _random_connected_links(members, cfg.intra_link_rate,
                                                     bw_lo, bw_hi, draws)]
    for d1 in range(cfg.domain_count):
        for d2 in range(d1 + 1, cfg.domain_count):
            u = domain_members[d1][draws.integers(len(domain_members[d1]))]
            v = domain_members[d2][draws.integers(len(domain_members[d2]))]
            bw = _draw(draws, bw_lo, bw_hi)
            links.append(SubstrateLink(u, v, bw, bw))

    net = SubstrateNetwork(cfg.domain_count, nodes, links)
    compute_boundary_hops(net)
    return net


def generate_vnr_stream(cfg: GeneratorConfig, horizon: float) -> list[VirtualNetworkRequest]:
    """Poisson arrivals over [0, horizon) with exponential lifetimes; each
    request is a connected random graph with attributes from the config."""
    cfg.validate()
    if not (math.isfinite(horizon) and horizon >= 0):
        raise InvalidConfig(f"horizon must be finite and non-negative, got {horizon}")
    n_lo, n_hi = cfg.vnr_node_range
    expected = cfg.vnr_arrival_rate * horizon * (n_hi * (n_hi + 1) // 2)
    if not expected <= MAX_STREAM_DRAWS:
        raise InvalidConfig(f"vnr_arrival_rate x horizon x n(n+1)/2, for requests of up to "
                            f"{n_hi} nodes, is {expected:.4g}, above {MAX_STREAM_DRAWS}")
    draws = draws_from(cfg.seed, WORKLOAD_STREAM)
    cpu_lo, cpu_hi = cfg.vnr_cpu_range
    bw_lo, bw_hi = cfg.vnr_bw_range
    sec_lo, sec_hi = cfg.security_range
    cd_lo, cd_hi = cfg.effective_cd_size_range()

    arrivals: list[float] = []
    t = 0.0
    while True:
        t += draws.exponential(1.0 / cfg.vnr_arrival_rate)
        if t >= horizon:
            break
        arrivals.append(t)

    out: list[VirtualNetworkRequest] = []
    for vnr_id, arrival in enumerate(arrivals):
        lifetime = 0.0
        while not 0.0 < lifetime < math.inf:
            lifetime = draws.exponential(cfg.vnr_mean_lifetime)
        n = _draw(draws, n_lo, n_hi)
        vnodes = []
        for vid in range(n):
            cpu = _draw(draws, cpu_lo, cpu_hi)
            vsd = _draw(draws, sec_lo, sec_hi)
            vsl = _draw(draws, sec_lo, sec_hi)
            cd_size = _draw(draws, cd_lo, cd_hi)
            cd = frozenset(draws.choice(cfg.domain_count, cd_size))
            vnodes.append(VirtualNode(vid, cpu, vsd, vsl, cd))
        vlinks = [VirtualLink(u, v, bw) for u, v, bw in
                  _random_connected_links(list(range(n)), VNR_LINK_RATE, bw_lo, bw_hi, draws)]
        out.append(VirtualNetworkRequest(vnr_id, vnodes, vlinks, arrival, lifetime))
    return out
