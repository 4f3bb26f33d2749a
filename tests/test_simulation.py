"""Discrete-event loop: ordering, conservation, determinism, shadow checks."""

import json
import re

import pytest

from secvne import simulation
from secvne.errors import EmbeddingInfeasible, InternalConsistencyError, InvalidConfig
from secvne.fileio import write_trace
from secvne.generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from secvne.metrics import cost, revenue, steady_state_means, windowed_series
from secvne.model import (Embedding, SubstrateLink, SubstrateNetwork, SubstrateNode,
                          compute_boundary_hops)
from secvne.routing import MASK_STORE_LIMIT, stored_masks
from secvne.seeding import RANDOM_BASELINE_STREAM, SWARM_STREAM, derive_seed
from secvne.simulation import (STRATEGY_NAMES, Strategy, audit_residuals, compare,
                               make_strategy, run)

from conftest import make_vnr, state_signature, write_bw_residual


def mini_instance(seed=0, horizon=600.0):
    cfg = GeneratorConfig(seed=seed, node_count=24, domain_count=2,
                          cd_size_range=(1, 2), vnr_node_range=(2, 5),
                          vnr_mean_lifetime=200.0)
    net = generate_substrate(cfg)
    vnrs = generate_vnr_stream(cfg, horizon)
    return net, vnrs


@pytest.mark.parametrize("strategy,overrides", [
    ("stec-iot", {"substrate_bw_range": (20, 60)}), ("greedy", {})],
    ids=["stec-iot-bw-bound", "greedy"])
def test_a_run_adds_no_substrate_attribute(strategy, overrides):
    # Every SubstrateNetwork attribute is set in __init__.  One stored later
    # (by a cached_property, say) goes through the instance __dict__, which
    # CPython 3.11 then builds out of the inline attribute values; from then
    # on every attribute read of that network misses the specialised fast
    # path, whether or not it reads the late attribute.
    cfg = GeneratorConfig(seed=0, **overrides)
    net = generate_substrate(cfg)
    before = set(vars(net))
    trace = run(net, generate_vnr_stream(cfg, 300.0), make_strategy(strategy), 300.0)
    assert trace.accepted
    assert set(vars(net)) == before


def test_two_requests_with_one_id_are_rejected(toy_net):
    vnrs = [make_vnr([(0, 10, 0, 4, (0,))], [], vnr_id=3, arrival=t) for t in (1.0, 2.0)]
    before = state_signature(toy_net)
    with pytest.raises(ValueError, match=r"^duplicate request id 3$"):
        run(toy_net, vnrs, make_strategy("greedy"), horizon=10.0)
    assert state_signature(toy_net) == before


def test_empty_stream_leaves_network_untouched(toy_net):
    before = state_signature(toy_net)
    trace = run(toy_net, [], make_strategy("greedy"), horizon=100.0)
    assert trace.records == []
    assert trace.arrived == 0
    assert state_signature(toy_net) == before


def test_single_vnr_accept_then_release(toy_net):
    vnr = make_vnr([(0, 10, 0, 4, (0,)), (1, 10, 0, 4, (0,))], [(0, 1, 5)],
                   vnr_id=0, arrival=1.0, lifetime=10.0)
    before = state_signature(toy_net)
    trace = run(toy_net, [vnr], make_strategy("greedy"), horizon=100.0)
    assert [r.kind for r in trace.records] == ["arrival", "departure"]
    assert trace.records[0].outcome == "accepted"
    assert trace.records[1].time == pytest.approx(11.0)
    assert state_signature(toy_net) == before


def test_identical_runs_produce_identical_traces(tmp_path):
    for strategy_name in ("greedy", "random", "stec-iot"):
        net_a, vnrs = mini_instance(seed=3)
        net_b = net_a.copy()
        tr_a = run(net_a, vnrs, make_strategy(strategy_name, seed=3), 600.0)
        tr_b = run(net_b, vnrs, make_strategy(strategy_name, seed=3), 600.0)
        write_trace(tr_a, tmp_path / "a.jsonl")
        write_trace(tr_b, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_residuals_drain_back_to_capacity():
    net, vnrs = mini_instance(seed=4)
    trace = run(net, vnrs, make_strategy("greedy"), 600.0)
    assert not net.active
    for node in net.nodes.values():
        assert node.cpu_residual == node.cpu_capacity
    for link in net.links.values():
        assert link.bw_residual == link.bw_capacity
    audit_residuals(net)
    assert trace.accepted <= trace.arrived


def test_rejection_does_not_mutate_state(toy_net):
    def reject(vnr, net):
        raise EmbeddingInfeasible("always")

    RejectingStrategy = Strategy("rejector", reject)
    vnr = make_vnr([(0, 10, 0, 4, (0,))], [], vnr_id=0, arrival=1.0, lifetime=5.0)
    before = state_signature(toy_net)
    trace = run(toy_net, [vnr], RejectingStrategy, horizon=10.0)
    assert trace.records[0].outcome == "rejected"
    assert state_signature(toy_net) == before


def test_real_strategy_rejections_leave_state_untouched():
    """Hash the substrate around every rejected attempt of the real strategies."""
    def HashChecking(inner, rejections_checked):
        def embed(vnr, net):
            before = state_signature(net)
            try:
                return inner.embed(vnr, net)
            except EmbeddingInfeasible:
                assert state_signature(net) == before
                rejections_checked.append(vnr.id)
                raise

        return Strategy(inner.name, embed)

    for name in ("greedy", "stec-iot", "random"):
        cfg = GeneratorConfig(seed=8, node_count=24, domain_count=2,
                              cd_size_range=(1, 1), vnr_node_range=(4, 8),
                              vnr_arrival_rate=0.2, vnr_mean_lifetime=400.0)
        net = generate_substrate(cfg)
        vnrs = generate_vnr_stream(cfg, 600.0)
        rejections_checked = []
        checker = HashChecking(make_strategy(name, seed=8), rejections_checked)
        run(net, vnrs, checker, 600.0)
        assert len(rejections_checked) > 0, f"{name}: no rejections exercised"


def test_departure_processed_before_simultaneous_arrival(toy_net):
    # B arrives exactly when A departs and needs A's only viable host
    a = make_vnr([(0, 100, 0, 4, (0,))], [], vnr_id=0, arrival=0.0, lifetime=5.0)
    b = make_vnr([(0, 100, 0, 4, (0,))], [], vnr_id=1, arrival=5.0, lifetime=5.0)
    trace = run(toy_net, [a, b], make_strategy("greedy"), horizon=20.0)
    outcomes = [(r.kind, r.vnr_id, r.outcome) for r in trace.records]
    assert outcomes == [
        ("arrival", 0, "accepted"),
        ("departure", 0, "released"),
        ("arrival", 1, "accepted"),
        ("departure", 1, "released"),
    ]


def test_arrivals_at_or_past_horizon_ignored(toy_net):
    vnr = make_vnr([(0, 10, 0, 4, (0,))], [], vnr_id=0, arrival=50.0, lifetime=5.0)
    trace = run(toy_net, [vnr], make_strategy("greedy"), horizon=50.0)
    assert trace.arrived == 0
    assert trace.records == []


def test_shadow_validator_catches_broken_strategy(toy_net):
    def broken(vnr, net):
        # claims two virtual nodes fit on one substrate node
        return Embedding(vnr, {0: 0, 1: 0}, {(0, 1): (0, 1)})

    BrokenStrategy = Strategy("broken", broken)
    vnr = make_vnr([(0, 10, 0, 4, (0,)), (1, 10, 0, 4, (0,))], [(0, 1, 5)],
                   vnr_id=0, arrival=1.0, lifetime=5.0)
    with pytest.raises(InternalConsistencyError, match="produced an invalid embedding"):
        run(toy_net, [vnr], BrokenStrategy, horizon=10.0)


def test_audit_detects_tampering(toy_net):
    """A node or a link residual moved behind the allocator's back fails the
    audit at the end of the run."""
    def lower_node(net):
        net.nodes[5].cpu_residual -= 1

    def lower_link(net):
        link = net.links[(3, 4)]
        write_bw_residual(net, link, link.bw_residual - 1)

    vnr = make_vnr([(0, 10, 0, 4, (0,))], [], vnr_id=0, arrival=1.0, lifetime=5.0)
    for mutate, message in [(lower_node, r"^node 5 residual \d+, expected \d+$"),
                            (lower_link, r"^link \(3, 4\) residual \d+, expected \d+$")]:
        def tamper(vnr, net):
            mutate(net)
            raise EmbeddingInfeasible("reject after tampering")

        with pytest.raises(InternalConsistencyError, match=message):
            run(toy_net.copy(), [vnr], Strategy("tamper", tamper), horizon=10.0)


def test_audit_detects_a_flipped_mask_store_bit(toy_net):
    """The audit rebuilds the stored masks from the residuals: one bit
    flipped behind allocate and release makes it raise."""
    stored_masks([5, 100], toy_net)
    audit_residuals(toy_net)
    toy_net.mask_store[5][0] ^= 1 << 1
    with pytest.raises(InternalConsistencyError, match="mask store"):
        audit_residuals(toy_net)


@pytest.mark.parametrize("corrupt, message", [
    (lambda net: net.active[4][2].__setitem__((0, 1), 3),
     r"^request 4: the debit record differs from its embedding's demand$"),
    (lambda net: net.active[4][1].pop(0),
     r"^request 4: the debit record differs from its embedding's demand$"),
    (lambda net: net.active.pop(4),
     r"^node 0 residual 90, expected 100$"),
], ids=["link-amount", "node-dropped", "record-dropped"])
def test_audit_detects_a_debit_record_that_differs(toy_net, corrupt, message):
    """The audit derives each active request's demand afresh from its
    embedding and raises, naming the request, where the debit its record
    holds differs, though every residual is right.  A record dropped takes
    its embedding with it, so the residual audit catches that."""
    vnr = make_vnr([(0, 10, 0, 4, (0,)), (1, 10, 0, 4, (0,))], [(0, 1, 5)], vnr_id=4)
    simulation.allocate(toy_net, Embedding(vnr, {0: 0, 1: 1}, {(0, 1): (0, 2, 1)}))
    audit_residuals(toy_net)
    corrupt(toy_net)
    with pytest.raises(InternalConsistencyError, match=message):
        audit_residuals(toy_net)


def test_mask_store_stays_bounded_under_many_distinct_demands():
    """With demands drawn from 1 to 100,000, nearly every request brings
    demands the store lacks, yet after every arrival the store holds at
    most ``MASK_STORE_LIMIT`` lists, or the request's distinct demands if
    they are more; only ``stored_masks``, which arrivals reach, adds lists.
    The run's audits find the store equal to a fresh build."""
    cfg = GeneratorConfig(seed=3, substrate_bw_range=(200_000, 600_000),
                          vnr_bw_range=(1, 100_000))
    inner = make_strategy("stec-iot", seed=0)
    sizes = []

    def embed(vnr, net):
        try:
            return inner.embed(vnr, net)
        finally:
            demands = {l.bw_demand for l in vnr.links.values()}
            assert len(net.mask_store) <= max(MASK_STORE_LIMIT, len(demands))
            sizes.append(len(net.mask_store))

    run(generate_substrate(cfg), generate_vnr_stream(cfg, 1500.0), Strategy("stec-iot", embed),
        1500.0)
    assert max(sizes) > MASK_STORE_LIMIT // 2


@pytest.mark.parametrize("strategy,kind", [
    ("stec-iot", "no particle found a routable embedding"),
    ("greedy", "greedy: no path"),
    ("random", "random: no routable assignment"),
])
def test_every_rejection_names_its_request(strategy, kind):
    """On a bandwidth-bound run every strategy's rejection message starts
    with its request's id, routing failures included."""
    cfg = GeneratorConfig(seed=0, node_count=10, domain_count=2, substrate_bw_range=(20, 60),
                          security_range=(0, 2), vnr_node_range=(2, 6), vnr_cpu_range=(1, 10),
                          vnr_bw_range=(5, 20), vnr_mean_lifetime=300.0)
    inner = make_strategy(strategy, seed=0)
    messages = []

    def embed(vnr, net):
        try:
            return inner.embed(vnr, net)
        except EmbeddingInfeasible as error:
            messages.append((vnr.id, str(error)))
            raise

    run(generate_substrate(cfg), generate_vnr_stream(cfg, 1000.0), Strategy(strategy, embed),
        1000.0)
    assert messages
    for vnr_id, message in messages:
        assert re.match(rf"request {vnr_id}: ", message), message
    assert any(message.startswith(f"request {vnr_id}: {kind}") for vnr_id, message in messages)


def test_audit_fires_every_audit_every_events(toy_net):
    """Residuals corrupted on the first embed call, with every request
    rejected, are caught by the audit after event AUDIT_EVERY, before the
    rest of the stream runs."""
    calls = []

    def tamper_once(vnr, net):
        if not calls:
            net.nodes[5].cpu_residual -= 1
        calls.append(vnr.id)
        raise EmbeddingInfeasible("reject every request")

    count = simulation.AUDIT_EVERY + 5
    vnrs = [make_vnr([(0, 10, 0, 4, (0,))], [], vnr_id=i, arrival=float(i), lifetime=1.0)
            for i in range(count)]
    with pytest.raises(InternalConsistencyError, match=r"^node 5 residual \d+, expected \d+$"):
        run(toy_net, vnrs, Strategy("tamper-once", tamper_once), horizon=float(count))
    assert len(calls) == simulation.AUDIT_EVERY


def test_trace_export_fields(tmp_path):
    net, vnrs = mini_instance(seed=5, horizon=300.0)
    trace = run(net, vnrs, make_strategy("greedy"), 300.0)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace.records)
    for line in lines:
        doc = json.loads(line)
        assert set(doc) == {"time", "kind", "vnr_id", "outcome", "revenue", "cost"}
    accepted = [json.loads(l) for l in lines
                if json.loads(l)["outcome"] == "accepted"]
    assert all(doc["revenue"] is not None and doc["cost"] is not None
               for doc in accepted)


@pytest.mark.parametrize("name", simulation.STRATEGY_NAMES)
def test_each_acceptance_is_priced_on_its_record(name):
    """An accepted record carries the revenue and cost of the embedding its
    strategy returned; every other record carries None for both."""
    net, vnrs = mini_instance(seed=3, horizon=400.0)
    strategy = make_strategy(name, seed=3)
    returned = {}

    def keep(vnr, net):
        emb = returned[vnr.id] = strategy.embed(vnr, net)
        return emb

    trace = run(net, vnrs, Strategy(name, keep), 400.0)
    outcomes = {r.outcome for r in trace.records}
    assert outcomes == {"accepted", "rejected", "released"}
    for rec in trace.records:
        if rec.outcome == "accepted":
            emb = returned[rec.vnr_id]
            assert (rec.revenue, rec.cost) == (revenue(emb.vnr), cost(emb))
        else:
            assert rec.revenue is None and rec.cost is None


def test_unknown_strategy_name_rejected():
    with pytest.raises(ValueError):
        make_strategy("simulated-annealing")


@pytest.mark.parametrize("name", ["greedy", "random"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_strategy_seed_outside_64_bits_is_rejected(name, seed):
    # normalize_seed masks to 64 bits, so -1 would run seed 2**64 - 1's stream.
    with pytest.raises(InvalidConfig, match=r"must lie in \[0, 2\*\*64\)"):
        make_strategy(name, seed=seed)


def test_compare_runs_each_seeded_strategy_on_each_seeds_instance_in_order():
    instances = {seed: mini_instance(seed, horizon=300.0) for seed in (4, 2)}
    runs = list(compare(instances.__getitem__, ("random", "greedy"), (4, 2), 300.0, 100.0,
                        100.0))
    assert [(name, seed) for name, seed, _, _ in runs] == [
        ("random", 4), ("greedy", 4), ("random", 2), ("greedy", 2)]
    for name, seed, trace, means in runs:
        fresh_net = mini_instance(seed, horizon=300.0)[0]
        expected = run(fresh_net, instances[seed][1], make_strategy(name, seed=seed), 300.0)
        assert trace.records == expected.records
        assert means == steady_state_means(windowed_series(expected, 100.0), 100.0)


@pytest.mark.parametrize("name, target", [
    ("stec-iot", "optimize"), ("greedy", "greedy_embed"), ("random", "random_embed")])
def test_embed_calls_the_function_bound_when_it_runs(toy_net, monkeypatch, name, target):
    """A strategy looks its library function up in `secvne.simulation` at each
    call, so a function patched there after `make_strategy` (as the traced
    benchmark does) is the one that runs, with the per-request seed."""
    strategy = make_strategy(name, seed=5)
    assert strategy.name == name
    calls = []
    placed = object()

    def patched(*args):
        calls.append(args)
        return placed

    monkeypatch.setattr(simulation, target, patched)
    vnr = make_vnr([(0, 10, 0, 4, (0,))], [], vnr_id=3)
    assert strategy.embed(vnr, toy_net) is placed
    assert len(calls) == 1 and calls[0][:2] == (vnr, toy_net)
    if name == "stec-iot":
        assert len(calls[0]) == 3
        assert calls[0][2].seed == derive_seed(5, SWARM_STREAM, 3)
    elif name == "random":
        assert calls[0][2] == derive_seed(5, RANDOM_BASELINE_STREAM, 3)
    else:
        assert len(calls[0]) == 2


def placing(name, seed, placed):
    """Strategy ``name`` with ``seed``, which appends each placement it
    returns to ``placed`` as ``(request id, node map, link map)``."""
    plain = make_strategy(name, seed=seed)

    def embed(vnr, net):
        emb = plain.embed(vnr, net)
        placed.append((vnr.id, emb.node_map, emb.link_map))
        return emb

    return Strategy(name, embed)


def relabelled(net, relabel):
    """``net`` with every node id ``nid`` replaced by ``relabel(nid)``."""
    nodes = [SubstrateNode(relabel(n.id), n.domain, n.cpu_capacity, n.cpu_residual, n.ssl,
                           n.ssd) for n in net.nodes.values()]
    links = [SubstrateLink(relabel(l.u), relabel(l.v), l.bw_capacity, l.bw_residual)
             for l in net.links.values()]
    out = SubstrateNetwork(net.domain_count, nodes, links)
    compute_boundary_hops(out)
    return out


@pytest.mark.parametrize("bw_range", [None, (20, 60)], ids=["default-bw", "bw-bound"])
def test_whole_runs_are_the_same_on_relabelled_ids(bw_range):
    """Every generated substrate has ids 0..N-1, so a node's bit rank equals
    its id there, and no pinned digest would see a rank used as an id or an
    id as a rank.  On the same substrates with each id moved to 3*id + 5,
    which keeps the id order, every strategy writes the same trace records
    and places the same embeddings, under the relabel.  A run releases
    every request by its end, so each embedding is read when it is placed,
    while it is active."""
    def relabel(nid):
        return 3 * nid + 5

    horizon = 300
    for seed in range(3):
        overrides = {} if bw_range is None else {"substrate_bw_range": bw_range}
        cfg = GeneratorConfig(seed=seed, **overrides)
        net = generate_substrate(cfg)
        assert net.node_ids == list(range(len(net.nodes)))
        moved = relabelled(net, relabel)
        vnrs = generate_vnr_stream(cfg, horizon)
        for name in STRATEGY_NAMES:
            placed, placed_moved = [], []
            expected = run(net.copy(), vnrs, placing(name, seed, placed), horizon)
            trace = run(moved.copy(), vnrs, placing(name, seed, placed_moved), horizon)
            assert trace.records == expected.records
            assert placed and len(placed) == expected.accepted
            assert placed_moved == [
                (vid, {k: relabel(sid) for k, sid in node_map.items()},
                 {k: tuple(map(relabel, path)) for k, path in link_map.items()})
                for vid, node_map, link_map in placed]


@pytest.mark.parametrize("bw_range", [None, (20, 60)], ids=["default-bw", "bw-bound"])
def test_whole_runs_are_the_same_on_a_copy_with_a_warm_shared_table(bw_range):
    """Every copy of a substrate shares its min-hop table, so a run on a
    copy reads rows that runs of other strategies on other copies filled.
    Each strategy's run there writes the same trace records and places the
    same embeddings as its run on a freshly built substrate, whose table
    starts empty."""
    horizon = 300
    for seed in range(3):
        overrides = {} if bw_range is None else {"substrate_bw_range": bw_range}
        cfg = GeneratorConfig(seed=seed, **overrides)
        net = generate_substrate(cfg)
        vnrs = generate_vnr_stream(cfg, horizon)
        # Warm the table with the strategy that runs last, so that every
        # strategy's run follows another strategy's.
        run(net.copy(), vnrs, make_strategy(STRATEGY_NAMES[-1], seed=seed), horizon)
        for name in STRATEGY_NAMES:
            assert any(row is not None for row in net.hop_dist)
            placed, placed_fresh = [], []
            warm = net.copy()
            assert warm.hop_dist is net.hop_dist
            trace = run(warm, vnrs, placing(name, seed, placed), horizon)
            fresh = generate_substrate(cfg)
            assert fresh.hop_dist == [None] * len(fresh.nodes)
            expected = run(fresh, vnrs, placing(name, seed, placed_fresh), horizon)
            assert trace.records == expected.records
            assert placed and len(placed) == expected.accepted
            assert placed == placed_fresh
