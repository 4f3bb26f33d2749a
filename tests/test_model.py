"""Substrate model: residual bookkeeping, boundary hops, embedding validator."""

import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

import secvne
from secvne.errors import InternalConsistencyError
from secvne.model import (
    Embedding,
    SubstrateLink,
    SubstrateNetwork,
    SubstrateNode,
    VirtualLink,
    VirtualNetworkRequest,
    VirtualNode,
    _embedding_deltas,
    allocate,
    components,
    link_key,
    release,
)
from secvne.routing import stored_masks, usable_masks
from secvne.seeding import SWARM_STREAM, derive_seed
from secvne.validation import validate_embedding

from conftest import make_substrate, make_vnr, scattered_net, state_signature, write_bw_residual
from oracles import (boundary_hops_brute, components_brute, neighbours,
                     shortest_feasible_path_brute)


def embed_on_toy(net, vnr, node_map, link_map):
    return Embedding(vnr, node_map, link_map)


@pytest.fixture
def simple_case(toy_net):
    vnr = make_vnr(
        node_specs=[(0, 20, 1, 2, (0, 1)), (1, 30, 2, 2, (0, 1))],
        link_specs=[(0, 1, 5)],
    )
    emb = embed_on_toy(toy_net, vnr, {0: 0, 1: 1}, {(0, 1): (0, 1)})
    return toy_net, vnr, emb


def test_allocate_debits_cpu_and_bandwidth(simple_case):
    net, vnr, emb = simple_case
    allocate(net, emb)
    assert net.nodes[0].cpu_residual == 80
    assert net.nodes[1].cpu_residual == 50
    assert net.links[link_key(0, 1)].bw_residual == 995


def test_allocate_release_roundtrip_is_identity(simple_case):
    net, vnr, emb = simple_case
    before = state_signature(net)
    allocate(net, emb)
    release(net, emb)
    assert state_signature(net) == before


def residual_writes(source: str, attrs=("bw_residual", "cpu_residual")) -> list[tuple[str, int]]:
    """(enclosing top-level function, or "" at module level, line) of each
    assignment or augmented assignment to an attribute named in ``attrs``
    in ``source``."""
    writes = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and t.attr in attrs:
                        writes.append((name, t.lineno))
    return writes


# The methods of a dict or a list that change it.
MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__",
            "append", "extend", "insert", "remove", "sort", "reverse"}


def record_writes(source: str, attr: str = "active", items: bool = False) -> list[tuple[str, int]]:
    """(enclosing function, as ``Class.method`` inside a class, or "" at
    module level, line) of each write to an attribute named ``attr`` or to
    the dict or list it holds in ``source``: an assignment, augmented
    assignment or ``del`` of the attribute or of an item of it, or a call
    of one of its ``MUTATORS``.  With ``items``, binding the attribute
    itself is not a write: only the writes to what it holds are."""
    def held(node):
        return isinstance(node, ast.Attribute) and node.attr == attr

    def written(node):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            f = node.func
            return isinstance(f, ast.Attribute) and f.attr in MUTATORS and held(f.value)
        else:
            return False
        return any((held(t) and not items) or held(getattr(t, "value", None))
                   for target in targets for t in ast.walk(target))

    scopes = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            scopes += [(f"{top.name}.{f.name}", f) for f in top.body
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((top.name, top))
        else:
            scopes.append(("", top))
    return [(name, node.lineno) for name, scope in scopes
            for node in ast.walk(scope) if written(node)]


def test_only_allocate_and_release_write_residuals():
    """The mask store and the record of each active request are kept
    current by allocate and release alone, so no other code of the library
    may write a residual: every assignment to a ``bw_residual`` or
    ``cpu_residual`` attribute in ``src/secvne`` lies in ``model.allocate``
    or ``model.release``, and both write.  Nor may it write the records
    (``SubstrateNetwork.active``): ``SubstrateNetwork.__init__`` creates
    them empty, and only allocate and release change them."""
    package = Path(secvne.__file__).parent
    writers = set()
    record = set()
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for function, line in residual_writes(source):
            writers.add((path.name, function))
            assert (path.name, function) in {("model.py", "allocate"), ("model.py", "release")}, (
                f"{path.name}:{line} writes a residual outside allocate and release")
        for function, line in record_writes(source):
            record.add((path.name, function))
    assert writers == {("model.py", "allocate"), ("model.py", "release")}
    assert record == {("model.py", "SubstrateNetwork.__init__"), ("model.py", "allocate"),
                      ("model.py", "release")}
    # The scans see each form of write.
    assert [w for w, _ in residual_writes("def f(n, l):\n    n.cpu_residual = 1\n"
                                          "    l.bw_residual += 2\n    a, l.bw_residual = 1, 2\n"
                                          "n.cpu_residual: int = 3\n")] == ["f", "f", "f", ""]
    assert [w for w, _ in record_writes(
        "class C:\n    def m(self):\n        self.active = {}\n"
        "def f(n):\n    n.active[1] = 2\n    del n.active[1]\n    n.active.pop(1)\n"
        "    n.active.update({})\n    n.active[1][1][2] += 1\n    x = n.active[1]\n"
        "    n.active.get(1)\n"
        "n.active: dict = {}\n")] == ["C.m", "f", "f", "f", "f", "f", ""]


def test_only_hop_distances_writes_the_shared_min_hop_table():
    """Every copy of a substrate shares its min-hop table, so a row written
    anywhere but where it is derived from the topology would reach every
    copy.  ``SubstrateNetwork.__init__`` binds ``hop_dist`` and ``hop_next``
    to empty tables and ``SubstrateNetwork.copy`` binds the clone's to the
    original's; ``routing.hop_distances`` alone writes their rows."""
    package = Path(secvne.__file__).parent
    for attr in ("hop_dist", "hop_next"):
        bound, rows = set(), set()
        for path in sorted(package.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            bound |= {(path.name, function) for function, _ in record_writes(source, attr)}
            rows |= {(path.name, function)
                     for function, _ in record_writes(source, attr, items=True)}
        assert bound == {("model.py", "SubstrateNetwork.__init__"),
                         ("model.py", "SubstrateNetwork.copy"), ("routing.py", "hop_distances")}
        assert rows == {("routing.py", "hop_distances")}
    # The scan tells a write to a row from a binding of the table.
    assert [w for w, _ in record_writes(
        "class C:\n    def m(self):\n        self.hop_next: list = []\n"
        "def f(n):\n    n.hop_next = []\n    n.hop_next[0] = [1]\n    n.hop_next[0][1] = 2\n"
        "    n.hop_next.append([])\n    del n.hop_next[0]\n    x = n.hop_next[0]\n",
        "hop_next", items=True)] == ["f", "f", "f", "f"]


def test_tests_write_bandwidth_residuals_through_one_helper():
    """A test's bandwidth residual written after the mask store is filled
    would leave the store stale without error, so every ``bw_residual``
    write in the tests lies in ``conftest.write_bw_residual``, which
    refuses a filled store.  Tests that corrupt a CPU residual on purpose
    write it directly."""
    writers = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for function, line in residual_writes(path.read_text(encoding="utf-8"), ("bw_residual",)):
            writers.add((path.name, function))
            assert (path.name, function) == ("conftest.py", "write_bw_residual"), (
                f"{path.name}:{line} writes a bw_residual outside conftest.write_bw_residual")
    assert writers == {("conftest.py", "write_bw_residual")}


def test_write_bw_residual_refuses_a_filled_mask_store(toy_net):
    link = toy_net.links[(0, 1)]
    write_bw_residual(toy_net, link, 7)
    assert link.bw_residual == 7
    stored_masks([5], toy_net)
    with pytest.raises(AssertionError, match="mask store stale"):
        write_bw_residual(toy_net, link, 8)
    assert link.bw_residual == 7


def test_release_twice_raises(simple_case):
    net, vnr, emb = simple_case
    allocate(net, emb)
    release(net, emb)
    with pytest.raises(InternalConsistencyError, match="request 0 is not active"):
        release(net, emb)


def test_allocate_of_an_active_request_raises_and_debits_nothing(simple_case):
    net, vnr, emb = simple_case
    allocate(net, emb)
    before = state_signature(net)
    with pytest.raises(InternalConsistencyError, match="request 0 is already embedded"):
        allocate(net, Embedding(vnr, dict(emb.node_map), dict(emb.link_map)))
    assert state_signature(net) == before
    assert net.active == {vnr.id: (emb, *_embedding_deltas(emb))} and net.active[vnr.id][0] is emb


def test_allocate_insufficient_cpu_raises(toy_net):
    vnr = make_vnr([(0, 1000, 0, 4, (0,))], [])
    emb = embed_on_toy(toy_net, vnr, {0: 0}, {})
    with pytest.raises(InternalConsistencyError, match="node 0: residual 100 < demand 1000"):
        allocate(toy_net, emb)
    assert toy_net.nodes[0].cpu_residual == 100


def test_allocate_overdrawn_link_raises_and_debits_nothing(toy_net):
    vnr = make_vnr([(0, 5, 0, 4, (0,)), (1, 5, 0, 4, (0,))], [(0, 1, 1001)])
    emb = embed_on_toy(toy_net, vnr, {0: 0, 1: 1}, {(0, 1): (0, 1)})
    before = state_signature(toy_net)
    with pytest.raises(InternalConsistencyError, match=r"link \(0, 1\): residual"):
        allocate(toy_net, emb)
    assert state_signature(toy_net) == before


def test_request_link_to_a_missing_lower_endpoint_raises():
    with pytest.raises(ValueError, match=r"virtual link \(0, 1\) names a node missing"):
        VirtualNetworkRequest(0, [VirtualNode(1, 5, 0, 4, frozenset({0}))],
                              [VirtualLink(0, 1, 2)], 0.0, 100.0)


def test_request_with_a_virtual_self_loop_raises():
    nodes = [VirtualNode(0, 5, 0, 4, frozenset({0})), VirtualNode(1, 5, 0, 4, frozenset({0}))]
    with pytest.raises(ValueError, match=r"^request 3: virtual link \(1, 1\) is a self-loop$"):
        VirtualNetworkRequest(3, nodes, [VirtualLink(0, 1, 2), VirtualLink(1, 1, 2)],
                              0.0, 100.0)


def test_request_listing_a_virtual_link_twice_raises():
    # Either direction names the same link; keeping the last entry would
    # silently drop the first entry's demand.
    nodes = [VirtualNode(0, 5, 0, 4, frozenset({0})), VirtualNode(1, 5, 0, 4, frozenset({0}))]
    with pytest.raises(ValueError, match=r"request 4: duplicate virtual link \(0, 1\)"):
        VirtualNetworkRequest(4, nodes, [VirtualLink(0, 1, 7), VirtualLink(1, 0, 107)],
                              0.0, 100.0)


@pytest.mark.parametrize("vnr_id", [-1, -(2**64) + 5, 2**64])
def test_request_id_outside_64_bits_raises(vnr_id):
    # derive_seed masks its keys to 64 bits, so such an id would share its
    # strategy streams with an id inside [0, 2**64).
    assert derive_seed(0, SWARM_STREAM, vnr_id) == derive_seed(0, SWARM_STREAM, vnr_id % 2**64)
    with pytest.raises(ValueError, match=rf"^request id {vnr_id} must lie in \[0, 2\*\*64\)$"):
        make_vnr([(0, 5, 0, 4, (0,))], [], vnr_id=vnr_id)
    assert make_vnr([(0, 5, 0, 4, (0,))], [], vnr_id=2**64 - 1).id == 2**64 - 1


@pytest.mark.parametrize("nodes, message", [
    ([], "request 0: a request needs at least one virtual node"),
    ([VirtualNode(0, 5, 0, 4, frozenset({0})), VirtualNode(1, 5, 0, 4, frozenset())],
     "request 0: virtual node 1 has no candidate domain"),
], ids=["no-nodes", "empty-cd"])
def test_request_without_a_node_or_a_candidate_domain_raises(nodes, message):
    # Such a request could only be placed as an empty embedding priced 0.
    with pytest.raises(ValueError, match=message):
        VirtualNetworkRequest(0, nodes, [], 0.0, 100.0)


@pytest.mark.parametrize("cpu, bw, message", [
    (-1, 2, "request 0: virtual node 1 has negative cpu demand -1"),
    (5, -2, r"request 0: virtual link \(0, 1\) has negative bw demand -2"),
], ids=["negative-cpu", "negative-bw"])
def test_request_with_a_negative_demand_raises(cpu, bw, message):
    # A file reader rejects such a value first; a request built directly
    # meets this check.
    nodes = [VirtualNode(0, 5, 0, 4, frozenset({0})), VirtualNode(1, cpu, 0, 4, frozenset({0}))]
    with pytest.raises(ValueError, match=f"^{message}$"):
        VirtualNetworkRequest(0, nodes, [VirtualLink(0, 1, bw)], 0.0, 100.0)


def test_request_repr_names_its_id_size_and_arrival():
    vnr = make_vnr([(0, 1, 0, 4, (0,)), (1, 1, 0, 4, (0,)), (2, 1, 0, 4, (1,))],
                   [(0, 1, 5)], vnr_id=7, arrival=12.34567)
    assert repr(vnr) == "VirtualNetworkRequest(id=7, nodes=3, links=1, t=12.346)"


def test_release_order_independence(toy_net):
    """allocate A, allocate B, release A leaves exactly B's footprint."""
    vnr_a = make_vnr([(0, 20, 0, 4, (0,)), (1, 10, 0, 4, (0,))], [(0, 1, 7)], vnr_id=1)
    vnr_b = make_vnr([(0, 15, 0, 4, (1,)), (1, 25, 0, 4, (1,))], [(0, 1, 3)], vnr_id=2)
    emb_a = embed_on_toy(toy_net, vnr_a, {0: 0, 1: 2}, {(0, 1): (0, 2)})
    emb_b = embed_on_toy(toy_net, vnr_b, {0: 3, 1: 4}, {(0, 1): (3, 4)})

    allocate(toy_net, emb_a)
    allocate(toy_net, emb_b)
    release(toy_net, emb_a)
    after_mixed = state_signature(toy_net)
    release(toy_net, emb_b)

    only_b = toy_net.copy()
    allocate(only_b, Embedding(vnr_b, emb_b.node_map, emb_b.link_map))
    assert after_mixed == state_signature(only_b)


def test_conservation_over_random_sequences(toy_net):
    """Any interleaving of allocates and matching releases restores residuals."""
    rng = np.random.default_rng(42)
    base = state_signature(toy_net)
    for _ in range(50):
        active = []
        for step in range(12):
            if active and rng.random() < 0.5:
                idx = int(rng.integers(len(active)))
                release(toy_net, active.pop(idx))
            else:
                vid = 100 + step + 1000 * int(rng.integers(1000))
                host = int(rng.integers(6))
                demand = int(rng.integers(1, 5))
                vnr = make_vnr([(0, demand, 0, 4, (0, 1))], [], vnr_id=vid)
                emb = embed_on_toy(toy_net, vnr, {0: host}, {})
                if toy_net.nodes[host].cpu_residual >= demand:
                    allocate(toy_net, emb)
                    active.append(emb)
        for emb in active:
            release(toy_net, emb)
        assert state_signature(toy_net) == base


def test_debit_record_follows_random_sequences(toy_net):
    """Over shuffled allocates and releases of routed embeddings, the
    records hold exactly the active embeddings, each with its
    ``_embedding_deltas``, and the releases restore every residual."""
    rng = random.Random(7)
    base = state_signature(toy_net)
    ids = itertools.count()
    active = []
    routed = 0  # allocations with a path of two hops or more
    for _ in range(300):
        if active and rng.random() < 0.45:
            release(toy_net, active.pop(rng.randrange(len(active))))
        else:
            hosts = rng.sample(sorted(toy_net.nodes), rng.randint(1, 4))
            specs = [(i, rng.randint(0, 6), 0, 4, (0, 1)) for i in range(len(hosts))]
            links = [(i, j, rng.randint(0, 9)) for i, j in itertools.combinations(
                range(len(hosts)), 2) if rng.random() < 0.6]
            vnr = make_vnr(specs, links, vnr_id=next(ids))
            paths = {(i, j): shortest_feasible_path_brute(toy_net, hosts[i], hosts[j], 0)
                     for i, j, _ in links}
            emb = Embedding(vnr, dict(enumerate(hosts)), paths)
            if validate_embedding(toy_net, vnr, emb) == []:
                allocate(toy_net, emb)
                active.append(emb)
                routed += any(len(p) > 2 for p in paths.values())
        assert toy_net.active == {emb.vnr.id: (emb, *_embedding_deltas(emb)) for emb in active}
        assert all(toy_net.active[emb.vnr.id][0] is emb for emb in active)
    assert routed > 20
    while active:
        release(toy_net, active.pop())
    assert toy_net.active == {} and state_signature(toy_net) == base


def test_copy_starts_with_an_empty_debit_record(simple_case):
    net, vnr, emb = simple_case
    allocate(net, emb)
    assert net.active == {0: (emb, {0: 20, 1: 30}, {(0, 1): 5})}
    clone = net.copy()
    assert clone.active == {}
    assert state_signature(clone) == state_signature(net)


def test_release_credits_the_record_though_the_paths_changed(toy_net):
    """Release credits what allocate debited, so an embedding whose paths
    were changed while it was active still restores every residual."""
    vnr = make_vnr([(0, 20, 0, 4, (0, 1)), (1, 30, 0, 4, (0, 1))], [(0, 1, 7)])
    emb = Embedding(vnr, {0: 0, 1: 4}, {(0, 1): (0, 2, 3, 4)})
    stored_masks([994, 1000], toy_net)
    before = state_signature(toy_net)
    allocate(toy_net, emb)
    emb.link_map[(0, 1)] = (0, 1, 2, 3, 5, 4)
    emb.node_map[1] = 5
    release(toy_net, emb)
    assert state_signature(toy_net) == before and toy_net.active == {}
    assert toy_net.mask_store == usable_masks(toy_net.mask_store, toy_net)


@pytest.mark.parametrize("kind", ["node", "link"])
def test_release_that_would_overfill_raises_and_moves_nothing(toy_net, kind):
    """A residual raised behind allocate's back makes release's overfill
    guard raise before anything moves: the residuals, the records and the
    mask store stay as they were.  The node case runs with a filled store,
    whose masks allocate flipped, so a flip ahead of the guards shows; the
    link case with an empty one, since its residual is written through
    ``write_bw_residual``."""
    vnr = make_vnr([(0, 20, 0, 4, (0, 1)), (1, 30, 0, 4, (0, 1))], [(0, 1, 7)])
    emb = Embedding(vnr, {0: 0, 1: 1}, {(0, 1): (0, 1)})
    if kind == "node":
        stored_masks([994, 1000], toy_net)
    allocate(toy_net, emb)
    if kind == "node":
        toy_net.nodes[1].cpu_residual += 1
        message = r"^release would overfill node 1$"
    else:
        link = toy_net.links[(0, 1)]
        write_bw_residual(toy_net, link, link.bw_residual + 1)
        message = r"^release would overfill link \(0, 1\)$"
    before = state_signature(toy_net)
    record = dict(toy_net.active)
    store = {d: list(masks) for d, masks in toy_net.mask_store.items()}
    with pytest.raises(InternalConsistencyError, match=message):
        release(toy_net, emb)
    assert state_signature(toy_net) == before and toy_net.active == record
    assert toy_net.mask_store == store == usable_masks(toy_net.mask_store, toy_net)
    assert len(store) == (2 if kind == "node" else 0)


def test_residuals_stay_within_bounds(toy_net):
    vnr = make_vnr([(0, 60, 0, 4, (0,))], [], vnr_id=9)
    emb = embed_on_toy(toy_net, vnr, {0: 2}, {})
    allocate(toy_net, emb)
    for node in toy_net.nodes.values():
        assert 0 <= node.cpu_residual <= node.cpu_capacity
    release(toy_net, emb)
    for node in toy_net.nodes.values():
        assert node.cpu_residual == node.cpu_capacity


def test_routing_order_is_descending_demand_then_link_key():
    vnr = make_vnr([(i, 1, 0, 4, (0,)) for i in range(4)],
                   [(2, 1, 5), (0, 1, 9), (2, 0, 5), (3, 1, 9), (2, 3, 0)])
    assert [l.key for l in vnr.routing_order] == [(0, 1), (1, 3), (0, 2), (1, 2), (2, 3)]
    assert all(l is vnr.links[l.key] for l in vnr.routing_order)


@pytest.mark.parametrize("ids, missing", [((3, 1, 2), 0), ((2, 0, 3, 4), 1),
                                            ((0, 1, 5), 2), ((-1, 0, 1), 2)],
                         ids=["no-zero", "gap", "id-past-the-count", "negative-id"])
def test_substrate_ids_other_than_0_to_n_minus_1_raise(ids, missing):
    """Node i is bit i of every node mask, so the ids must be exactly
    0..N-1, in any order; the message names the first missing one."""
    message = rf"^substrate node ids must be 0\.\.{len(ids) - 1}, but id {missing} is missing$"
    with pytest.raises(ValueError, match=message):
        make_substrate([(i, 0, 10, 0, 0) for i in ids], [], domain_count=1)


def test_adj_masks_are_the_link_neighbours():
    from secvne.generate import GeneratorConfig, generate_substrate

    for net in (scattered_net(), generate_substrate(GeneratorConfig(seed=2, node_count=40))):
        nbrs = neighbours(net)
        assert net.adj_masks == [sum(1 << m for m in nbrs[nid])
                                 for nid in range(len(net.nodes))]


def test_components_are_the_brute_force_partition():
    rnd = random.Random(0)
    graphs = [[], [0], [0, 0, 0]]
    for _ in range(80):
        n = rnd.randint(1, 14)
        rate = rnd.random() * 0.4
        masks = [0] * n
        for a, b in itertools.combinations(range(n), 2):
            if rnd.random() < rate:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
        graphs.append(masks)
    isolated = split = 0
    for masks in graphs:
        comps = components(masks)
        assert comps == components_brute(masks)
        isolated += sum(1 for c in comps if c & (c - 1) == 0)
        split += len(comps) > 1
    assert isolated > 50 and split > 40


class TestBoundaryHops:
    def test_boundary_node_has_zero(self, toy_net):
        assert toy_net.nodes[2].hop_to_boundary == 0
        assert toy_net.nodes[3].hop_to_boundary == 0

    def test_three_node_path(self):
        # a-b-c chain in domain 0, only a touches the inter-domain link
        net = make_substrate(
            node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 0, 10, 0, 0),
                        (3, 1, 10, 0, 0)],
            link_specs=[(0, 1, 10), (1, 2, 10), (0, 3, 10)],
        )
        assert [net.nodes[i].hop_to_boundary for i in (0, 1, 2)] == [0, 1, 2]
        assert net.nodes[3].hop_to_boundary == 0

    def test_no_boundary_node_raises(self):
        nodes = [SubstrateNode(0, 0, 10, 10, 0, 0), SubstrateNode(1, 0, 10, 10, 0, 0),
                 SubstrateNode(2, 1, 10, 10, 0, 0)]
        links = [SubstrateLink(0, 1, 5, 5)]  # domain 1 node is isolated
        with pytest.raises(ValueError, match="has no boundary node"):
            SubstrateNetwork(2, nodes, links)

    def test_domain_in_two_components_is_not_connected(self):
        # Each component of domain 0 holds a boundary node, so the boundary
        # distances alone cannot tell the split.
        with pytest.raises(ValueError, match="some domain is not connected: domain 0"):
            make_substrate(
                node_specs=[(0, 0, 10, 0, 0), (1, 0, 10, 0, 0), (2, 1, 10, 0, 0),
                            (3, 1, 10, 0, 0)],
                link_specs=[(0, 2, 10), (1, 3, 10), (2, 3, 10)],
            )

    @pytest.mark.parametrize("domain_count", [4, 10**12])
    def test_empty_domain_raises_before_any_per_domain_state(self, domain_count):
        """A declared domain with no node is found from the nodes alone, so
        a huge ``domain_count`` fails at once, naming the lowest empty one."""
        with pytest.raises(ValueError, match="^domain 2 has no node$"):
            make_substrate(node_specs=[(0, 0, 10, 0, 0), (1, 1, 10, 0, 0), (2, 3, 10, 0, 0)],
                           link_specs=[(0, 1, 10)], domain_count=domain_count)

    def test_matches_brute_force_on_random_networks(self, tmp_path):
        """Right after construction every node's boundary distance is the
        brute-force one: on generated substrates, on each loaded back from
        its file, on copies, and on the same nodes and links handed to the
        constructor with ids relabelled, i to N - 1 - i, and in reverse
        order."""
        from secvne.fileio import load_substrate, save_substrate
        from secvne.generate import GeneratorConfig, generate_substrate

        generated = [generate_substrate(GeneratorConfig(seed=seed, node_count=40,
                                                        domain_count=3, intra_link_rate=0.2))
                     for seed in range(5)]
        nets = [scattered_net()]
        for i, net in enumerate(generated):
            save_substrate(net, tmp_path / f"{i}.json")
            top = len(net.nodes) - 1
            nodes = [SubstrateNode(top - n.id, n.domain, n.cpu_capacity, n.cpu_residual,
                                   n.ssl, n.ssd) for n in reversed(net.nodes.values())]
            links = [SubstrateLink(top - l.u, top - l.v, l.bw_capacity, l.bw_residual)
                     for l in net.links.values()]
            nets += [net, load_substrate(tmp_path / f"{i}.json"), net.copy(),
                     SubstrateNetwork(net.domain_count, nodes, links)]
        far = 0
        for net in nets:
            got = {nid: node.hop_to_boundary for nid, node in net.nodes.items()}
            assert got == boundary_hops_brute(net)
            far += max(got.values()) >= 2
        assert far > 10


class TestValidator:
    def test_feasible_embedding_has_no_violations(self, simple_case):
        net, vnr, emb = simple_case
        assert validate_embedding(net, vnr, emb) == []

    def test_missing_link_message_names_the_hop(self, toy_net):
        vnr = make_vnr([(0, 5, 0, 4, (0,)), (1, 5, 0, 4, (0,))], [(0, 1, 2)])
        emb = Embedding(vnr, {0: 0, 1: 1}, {(0, 1): (0, 4, 1)})
        assert [str(v) for v in validate_embedding(toy_net, vnr, emb)] == [
            "[single-path] virtual link (0, 1): path (0, 4, 1) uses missing link (0, 4)"]

    def test_two_virtual_nodes_on_one_substrate_node(self, toy_net):
        vnr = make_vnr([(0, 5, 0, 4, (0,)), (1, 5, 0, 4, (0,))], [(0, 1, 2)])
        emb = Embedding(vnr, {0: 0, 1: 0}, {(0, 1): (0, 1)})
        kinds = {v.kind for v in validate_embedding(toy_net, vnr, emb)}
        assert "injectivity" in kinds

    def test_security_demand_above_host_level(self, toy_net):
        vnr = make_vnr([(0, 5, 4, 4, (0,))], [])
        emb = Embedding(vnr, {0: 2}, {})  # node 2 has ssl=2
        violations = validate_embedding(toy_net, vnr, emb)
        assert [v.kind for v in violations] == ["security-forward"]

    def test_mutations_yield_exactly_the_expected_class(self, toy_net):
        vnr = make_vnr(
            node_specs=[(0, 20, 1, 2, (0, 1)), (1, 30, 2, 2, (0, 1))],
            link_specs=[(0, 1, 5)],
        )
        valid = Embedding(vnr, {0: 0, 1: 1}, {(0, 1): (0, 1)})
        assert validate_embedding(toy_net, vnr, valid) == []

        def kinds_after(mutate):
            v2 = make_vnr(
                node_specs=[(0, 20, 1, 2, (0, 1)), (1, 30, 2, 2, (0, 1))],
                link_specs=[(0, 1, 5)],
            )
            emb = Embedding(v2, {0: 0, 1: 1}, {(0, 1): (0, 1)})
            net = toy_net.copy()
            mutate(net, v2, emb)
            return [v.kind for v in validate_embedding(net, v2, emb)]

        # cpu: inflate the demand beyond node 0's residual
        def mut_cpu(net, v2, emb):
            v2.nodes[0].cpu_demand = 1000
        assert kinds_after(mut_cpu) == ["cpu"]

        # candidate-domain: remap node 1 to domain-1 node 4 (security-compatible)
        def mut_domain(net, v2, emb):
            v2.nodes[1].cd = frozenset({0})
            emb.node_map[1] = 4
            emb.link_map[(0, 1)] = (0, 2, 3, 4)
        assert kinds_after(mut_domain) == ["candidate-domain"]

        # security-forward: demand more than the host offers
        def mut_sec_fwd(net, v2, emb):
            v2.nodes[1].vsd = 4  # host 1 has ssl=4 -> move to host 2 (ssl=2)? keep host 1
            net.nodes[1].ssl = 2
        assert kinds_after(mut_sec_fwd) == ["security-forward"]

        # security-backward: host demands more than the tenant offers
        def mut_sec_bwd(net, v2, emb):
            net.nodes[0].ssd = 4
        assert kinds_after(mut_sec_bwd) == ["security-backward"]

        # bandwidth: demand above the path link's residual
        def mut_bw(net, v2, emb):
            v2.links[(0, 1)].bw_demand = 5000
        assert kinds_after(mut_bw) == ["bandwidth"]

        # loop: both endpoints on one node (degenerate stored path ignored)
        def mut_loop(net, v2, emb):
            emb.node_map[1] = 0
            emb.link_map[(0, 1)] = (0,)
        assert set(kinds_after(mut_loop)) == {"injectivity", "loop"}

        # single-path: break the stored path (non-adjacent jump)
        def mut_path(net, v2, emb):
            emb.link_map[(0, 1)] = (0, 4, 1)
        assert kinds_after(mut_path) == ["single-path"]

        # single-path: path missing entirely
        def mut_missing(net, v2, emb):
            del emb.link_map[(0, 1)]
        assert kinds_after(mut_missing) == ["single-path"]

    # One broken embedding on toy_net per message form: (virtual nodes, virtual
    # links, node map, link map, every violation in the validator's order).
    # A node spec is (id, cpu, vsd, vsl, cd), a link spec (u, v, bw).
    ANY = (0, 1)
    ONE_NODE = [(0, 5, 0, 4, ANY)]
    TWO_NODES = [(0, 5, 0, 4, ANY), (1, 5, 0, 4, ANY)]
    LINKED = (TWO_NODES, [(0, 1, 2)])
    MESSAGE_FORMS = {
        "no-host": (TWO_NODES, [], {0: 0}, {},
                    ["[injectivity] virtual node 1 has no host"]),
        "unknown-virtual-node": (ONE_NODE, [], {0: 0, 7: 1}, {},
                                 ["[injectivity] assignment for unknown virtual node 7"]),
        "hosts": (TWO_NODES, [], {0: 1, 1: 1}, {},
                  ["[injectivity] substrate node 1 hosts [0, 1]"]),
        "unknown-substrate-node": (ONE_NODE, [], {0: 9}, {},
                                   ["[candidate-domain] virtual node 0 mapped to unknown "
                                    "substrate node 9"]),
        "candidate-domain": ([(0, 5, 0, 4, (1,))], [], {0: 0}, {},
                             ["[candidate-domain] virtual node 0 on node 0 in domain 0, "
                              "candidates [1]"]),
        "cpu": ([(0, 500, 0, 4, ANY)], [], {0: 0}, {},
                ["[cpu] virtual node 0 demands 500 cpu, node 0 has 100"]),
        "security-both": ([(0, 5, 4, 0, ANY)], [], {0: 0}, {},
                          ["[security-forward] virtual node 0 demands level 4, node 0 offers 3",
                           "[security-backward] node 0 demands level 1, virtual node 0 "
                           "offers 0"]),
        "loop": (*LINKED, {0: 0, 1: 0}, {(0, 1): (0,)},
                 ["[injectivity] substrate node 0 hosts [0, 1]",
                  "[loop] virtual link (0, 1) endpoints both on substrate node 0"]),
        "no-path": (*LINKED, {0: 0, 1: 1}, {},
                    ["[single-path] virtual link (0, 1) has no path"]),
        "fewer-than-two-nodes": (*LINKED, {0: 0, 1: 1}, {(0, 1): (0,)},
                                 ["[single-path] virtual link (0, 1): path (0,) has fewer "
                                  "than two nodes"]),
        "repeats-a-node": (*LINKED, {0: 0, 1: 1}, {(0, 1): (0, 2, 0, 1)},
                           ["[single-path] virtual link (0, 1): path (0, 2, 0, 1) repeats "
                            "a node"]),
        "unknown-node-on-path": (*LINKED, {0: 0, 1: 1}, {(0, 1): (0, 9, 1)},
                                 ["[single-path] virtual link (0, 1): path (0, 9, 1) visits "
                                  "unknown node 9"]),
        # The unknown node is named although a missing hop comes first.
        "unknown-node-after-a-missing-link": (
            *LINKED, {0: 0, 1: 1}, {(0, 1): (0, 4, 9, 1)},
            ["[single-path] virtual link (0, 1): path (0, 4, 9, 1) visits unknown node 9"]),
        "missing-link": (*LINKED, {0: 0, 1: 1}, {(0, 1): (0, 4, 1)},
                         ["[single-path] virtual link (0, 1): path (0, 4, 1) uses missing "
                          "link (0, 4)"]),
        # The hop is named in path order, not as a link key.
        "missing-link-descending-hop": (*LINKED, {0: 4, 1: 0}, {(0, 1): (4, 0)},
                                        ["[single-path] virtual link (0, 1): path (4, 0) uses "
                                         "missing link (4, 0)"]),
        "wrong-endpoints": (*LINKED, {0: 0, 1: 1}, {(0, 1): (0, 2)},
                            ["[single-path] virtual link (0, 1): path (0, 2) connects (0, 2), "
                             "expected (0, 1)"]),
        "unhosted-endpoint": (TWO_NODES, [(0, 1, 2)], {0: 0}, {(0, 1): (0, 1)},
                              ["[injectivity] virtual node 1 has no host",
                               "[single-path] virtual link (0, 1): path (0, 1) connects "
                               "(0, 1), expected (0, None)"]),
        "path-for-unknown-virtual-link": (*LINKED, {0: 0, 1: 1},
                                          {(0, 1): (0, 1), (0, 5): (0, 1)},
                                          ["[single-path] path for unknown virtual link "
                                           "(0, 5)"]),
        "bandwidth": ([(0, 5, 0, 4, ANY), (1, 5, 0, 4, ANY), (2, 5, 0, 4, ANY)],
                      [(0, 1, 600), (1, 2, 600)], {0: 0, 1: 1, 2: 2},
                      {(0, 1): (0, 1), (1, 2): (1, 0, 2)},
                      ["[bandwidth] link (0, 1) carries 1200, residual 1000"]),
    }

    @pytest.mark.parametrize("form", MESSAGE_FORMS)
    def test_every_message_form_is_pinned(self, toy_net, form):
        nodes, links, node_map, link_map, expected = self.MESSAGE_FORMS[form]
        vnr = make_vnr(nodes, links)
        emb = Embedding(vnr, node_map, link_map)
        assert [str(v) for v in validate_embedding(toy_net, vnr, emb)] == expected

    def test_several_violations_keep_their_order(self, toy_net):
        vnr = make_vnr([(0, 500, 0, 4, (0,)), (1, 5, 4, 0, self.ANY), (2, 5, 0, 4, (1,)),
                        (3, 5, 0, 4, self.ANY)],
                       [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 2, 1500)])
        emb = Embedding(vnr, {0: 0, 1: 0, 2: 1, 9: 5},
                        {(0, 1): (0, 1), (1, 2): (0, 4, 1), (2, 3): (1, 2),
                         (0, 2): (0, 1), (0, 3): (0, 2)})
        assert [str(v) for v in validate_embedding(toy_net, vnr, emb)] == [
            "[injectivity] virtual node 3 has no host",
            "[injectivity] assignment for unknown virtual node 9",
            "[injectivity] substrate node 0 hosts [0, 1]",
            "[cpu] virtual node 0 demands 500 cpu, node 0 has 100",
            "[security-forward] virtual node 1 demands level 4, node 0 offers 3",
            "[security-backward] node 0 demands level 1, virtual node 1 offers 0",
            "[candidate-domain] virtual node 2 on node 1 in domain 0, candidates [1]",
            "[loop] virtual link (0, 1) endpoints both on substrate node 0",
            "[single-path] virtual link (1, 2): path (0, 4, 1) uses missing link (0, 4)",
            "[single-path] virtual link (2, 3): path (1, 2) connects (1, 2), "
            "expected (1, None)",
            "[single-path] path for unknown virtual link (0, 3)",
            "[bandwidth] link (0, 1) carries 1500, residual 1000",
        ]
