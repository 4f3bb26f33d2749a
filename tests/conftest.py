"""Shared toy instances used across the test suite."""

import random

import pytest

from secvne import routing
from secvne.generate import GeneratorConfig, generate_substrate
from secvne.model import (
    SubstrateLink,
    SubstrateNetwork,
    SubstrateNode,
    VirtualLink,
    VirtualNetworkRequest,
    VirtualNode,
)


# A substrate file whose domain 0 falls into two components, {0} and {1}, each
# with its own link to domain 1, so every node has a boundary distance.
SPLIT_DOMAIN_SUBSTRATE = {
    "domain_count": 2,
    "nodes": [{"id": nid, "domain": d, "cpu": 100, "ssl": 2, "ssd": 2}
              for nid, d in ((0, 0), (1, 0), (2, 1), (3, 1))],
    "links": [{"u": 0, "v": 2, "bw": 100}, {"u": 1, "v": 3, "bw": 100},
              {"u": 2, "v": 3, "bw": 100}],
}

# A substrate file that is valid but for its node ids, 0, 1 and 5: a
# substrate's ids must be exactly 0..N-1.
SPARSE_ID_SUBSTRATE = {
    "domain_count": 2,
    "nodes": [{"id": nid, "domain": d, "cpu": 100, "ssl": 2, "ssd": 2}
              for nid, d in ((0, 0), (1, 0), (5, 1))],
    "links": [{"u": 0, "v": 1, "bw": 100}, {"u": 1, "v": 5, "bw": 100}],
}


def make_substrate(node_specs, link_specs, domain_count=2):
    """node_specs: (id, domain, cpu, ssl, ssd); link_specs: (u, v, bw)."""
    nodes = [SubstrateNode(i, d, c, c, ssl, ssd) for (i, d, c, ssl, ssd) in node_specs]
    links = [SubstrateLink(u, v, bw, bw) for (u, v, bw) in link_specs]
    return SubstrateNetwork(domain_count, nodes, links)


def scattered_net():
    """Four domains whose nodes, and links, are given out of id order, the
    links with either endpoint first.  Domains 0 and 1 join each other and
    so do domains 2 and 3, but no link joins the two pairs; domain 0 is a
    4-cycle, so equal-hop paths tie across it."""
    return make_substrate(
        node_specs=[(9, 0, 10, 0, 0), (0, 1, 10, 0, 0), (5, 0, 10, 0, 0),
                    (8, 2, 10, 0, 0), (3, 1, 10, 0, 0), (1, 0, 10, 0, 0),
                    (10, 3, 10, 0, 0), (7, 1, 10, 0, 0), (4, 0, 10, 0, 0),
                    (6, 2, 10, 0, 0), (2, 3, 10, 0, 0)],
        link_specs=[(9, 4, 10), (7, 9, 10), (1, 5, 10), (0, 7, 10),
                    (6, 8, 10), (4, 1, 10), (3, 0, 10), (5, 9, 10),
                    (10, 2, 10), (2, 6, 10)],
        domain_count=4,
    )


def state_signature(net):
    """Hashable snapshot of every node's and link's residual."""
    nodes = tuple((nid, net.nodes[nid].cpu_residual) for nid in range(len(net.nodes)))
    links = tuple((k, net.links[k].bw_residual) for k in sorted(net.links))
    return (nodes, links)


def write_bw_residual(net, link, residual):
    """Set ``link``'s residual on ``net`` directly, for a state no run of
    ``allocate`` reaches.  The one writer of a bandwidth residual in the
    tests: it fails once ``net``'s mask store holds masks, which a direct
    write would leave stale without error."""
    assert not net.mask_store, "a direct bw_residual write would leave the mask store stale"
    link.bw_residual = residual


def make_vnr(node_specs, link_specs, vnr_id=0, arrival=0.0, lifetime=100.0):
    """node_specs: (id, cpu, vsd, vsl, cd); link_specs: (u, v, bw)."""
    nodes = [VirtualNode(i, c, vsd, vsl, frozenset(cd)) for (i, c, vsd, vsl, cd) in node_specs]
    links = [VirtualLink(u, v, bw) for (u, v, bw) in link_specs]
    return VirtualNetworkRequest(vnr_id, nodes, links, arrival, lifetime)


def contended_net(seed, node_count=8):
    """A two-domain random graph of 8 nodes, or ``node_count``, with bandwidth
    U[20, 60], every link's residual then lowered to a random value in
    [0, capacity]."""
    cfg = GeneratorConfig(seed=seed, node_count=node_count, domain_count=2,
                          intra_link_rate=0.5, substrate_bw_range=(20, 60))
    net = generate_substrate(cfg)
    rnd = random.Random(seed)
    for link in net.links.values():
        write_bw_residual(net, link, rnd.randint(0, link.bw_capacity))
    return net


def count_mask_builds(monkeypatch):
    """Wrap ``routing.usable_masks`` to record the demands of each build,
    asserting that the substrate's mask store lacks every one of them."""
    builds = []
    plain = routing.usable_masks

    def usable_masks(demands, net):
        demands = set(demands)
        assert not demands & net.mask_store.keys()
        builds.append(demands)
        return plain(demands, net)

    monkeypatch.setattr(routing, "usable_masks", usable_masks)
    return builds


@pytest.fixture
def toy_net():
    """Two domains of three nodes each, one inter-domain link (2-3).

    Domain 0: 0-1-2 path plus 0-2; domain 1: 3-4-5 path plus 3-5.
    Generous bandwidth everywhere, assorted security levels.
    """
    return make_substrate(
        node_specs=[
            (0, 0, 100, 3, 1),
            (1, 0, 80, 4, 0),
            (2, 0, 60, 2, 0),
            (3, 1, 100, 1, 0),
            (4, 1, 90, 3, 2),
            (5, 1, 70, 4, 1),
        ],
        link_specs=[
            (0, 1, 1000), (1, 2, 1000), (0, 2, 1000),
            (3, 4, 1000), (4, 5, 1000), (3, 5, 1000),
            (2, 3, 1000),
        ],
    )


@pytest.fixture
def toy_vnr():
    """Three virtual nodes in a path, embeddable on toy_net."""
    return make_vnr(
        node_specs=[
            (0, 20, 1, 2, (0, 1)),
            (1, 30, 2, 1, (0, 1)),
            (2, 10, 0, 3, (0, 1)),
        ],
        link_specs=[(0, 1, 5), (1, 2, 5)],
    )
