"""Deterministic discrete-event loop over a request stream.

Arrivals hand the request to a strategy: a ``Strategy(name, embed)`` record
whose ``embed`` is a pure placement function returning an unpriced
embedding.  ``make_strategy`` builds the three named strategies with their
seeds bound.  A successful embedding is allocated and its departure
scheduled, a failure is recorded as a rejection (no queueing, no retry).
Departures release resources.  At equal timestamps departures process before
arrivals, then ties break by request id, so a run is fully reproducible.
An accepted record is priced once, when it is made: it carries
``metrics.revenue`` and ``metrics.cost`` of its request and embedding, which
the windowed series and the trace writer read; every other record carries
None for both.

The independent validator shadows every acceptance - any violation it
finds means the fast path and the re-checker disagree, which aborts the run
as an internal error.  The audit recomputes all residuals, and the debit
each active request's record holds, from the active embeddings, and the
substrate's mask store from the residuals, every ``AUDIT_EVERY`` events and
once at the end, and likewise aborts on drift.

``compare`` is the steady-state experiment: every strategy, seeded with each
seed, on its own copy of that seed's instance.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

from .baselines import greedy_embed, random_embed
from .errors import EmbeddingInfeasible, InternalConsistencyError
from .metrics import cost, revenue, steady_state_means, windowed_series
from .model import (
    Embedding,
    SubstrateNetwork,
    VirtualNetworkRequest,
    allocate,
    path_links,
    release,
)
from .pso import PsoConfig, optimize
from .routing import usable_masks
from .seeding import RANDOM_BASELINE_STREAM, SWARM_STREAM, check_seed, derive_seed
from .validation import validate_embedding

STRATEGY_NAMES = ("stec-iot", "greedy", "random")

AUDIT_EVERY = 1000  # events between residual audits

_DEPARTURE = 0  # sorts before arrivals at equal timestamps
_ARRIVAL = 1


@dataclass(slots=True)
class EventRecord:
    time: float
    kind: str                      # "arrival" | "departure"
    vnr_id: int
    outcome: str                   # "accepted" | "rejected" | "released"
    revenue: float | None = None   # priced at acceptance, None otherwise
    cost: float | None = None


@dataclass
class SimulationTrace:
    horizon: float
    records: list[EventRecord] = field(default_factory=list)
    arrived: int = 0
    accepted: int = 0

    @property
    def acceptance(self) -> float | None:
        return self.accepted / self.arrived if self.arrived else None


@dataclass(frozen=True)
class Strategy:
    """A named placement function: ``embed(vnr, net)`` returns an unpriced
    Embedding against the current substrate state or raises
    EmbeddingInfeasible."""

    name: str
    embed: Callable[[VirtualNetworkRequest, SubstrateNetwork], Embedding]


def make_strategy(name: str, seed: int = 0) -> Strategy:
    """Strategy `name` with `seed` bound.

    ``embed`` looks ``optimize``, ``greedy_embed`` or ``random_embed`` up in
    this module at each call, so rebinding one reaches strategies built before.
    A seed outside [0, 2**64) raises InvalidConfig: ``derive_seed`` would map
    it onto the stream of a seed inside.
    """
    check_seed(seed, "strategy seed")
    if name == "stec-iot":
        def embed(vnr, net):
            cfg = PsoConfig(seed=derive_seed(seed, SWARM_STREAM, vnr.id))
            return optimize(vnr, net, cfg)
    elif name == "greedy":
        def embed(vnr, net):
            return greedy_embed(vnr, net)
    elif name == "random":
        def embed(vnr, net):
            return random_embed(vnr, net, derive_seed(seed, RANDOM_BASELINE_STREAM, vnr.id))
    else:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
    return Strategy(name, embed)


def run(net: SubstrateNetwork, vnr_stream, strategy: Strategy,
        horizon: float) -> SimulationTrace:
    """Process the stream against `net` (mutated in place) and return the trace.

    Every acceptance is shadow-validated before it is allocated, and the
    residuals are audited every ``AUDIT_EVERY`` events and at the end.
    """
    by_id: dict[int, VirtualNetworkRequest] = {}
    heap: list[tuple[float, int, int]] = []
    for vnr in vnr_stream:
        if vnr.arrival_time >= horizon:
            continue
        if vnr.id in by_id:
            raise ValueError(f"duplicate request id {vnr.id}")
        by_id[vnr.id] = vnr
        heap.append((vnr.arrival_time, _ARRIVAL, vnr.id))
    heapq.heapify(heap)

    trace = SimulationTrace(horizon=horizon)
    processed = 0
    while heap:
        time, prio, vnr_id = heapq.heappop(heap)
        if prio == _DEPARTURE:
            release(net, net.active[vnr_id][0])
            trace.records.append(EventRecord(time, "departure", vnr_id, "released"))
        else:
            vnr = by_id[vnr_id]
            trace.arrived += 1
            try:
                emb = strategy.embed(vnr, net)
            except EmbeddingInfeasible:
                trace.records.append(EventRecord(time, "arrival", vnr_id, "rejected"))
            else:
                violations = validate_embedding(net, vnr, emb)
                if violations:
                    detail = "; ".join(str(v) for v in violations)
                    raise InternalConsistencyError(
                        f"strategy {strategy.name} produced an invalid embedding "
                        f"for request {vnr_id} at t={time}: {detail}")
                allocate(net, emb)
                trace.accepted += 1
                heapq.heappush(heap, (time + vnr.lifetime, _DEPARTURE, vnr_id))
                trace.records.append(EventRecord(time, "arrival", vnr_id, "accepted",
                                                 revenue(vnr), cost(emb)))
        processed += 1
        if processed % AUDIT_EVERY == 0:
            audit_residuals(net)
    audit_residuals(net)
    return trace


def compare(instance_of: Callable[[int], tuple[SubstrateNetwork, list[VirtualNetworkRequest]]],
            strategies: Sequence[str], seeds: Sequence[int], horizon: float,
            window: float, warmup: float,
            ) -> Iterator[tuple[str, int, SimulationTrace, dict[str, float | None]]]:
    """Yield ``(name, seed, trace, means)`` for each seed in order and, within
    it, each strategy in order.

    ``instance_of(seed)`` gives the seed's ``(net, vnrs)``, once per seed.
    Strategy `name` is built with `seed` and runs to `horizon` on its own
    copy of ``net``, with the residuals ``net`` has and no active request;
    the copies share ``net``'s min-hop table and candidate index, which
    depend on the topology alone, so a later strategy reads the rows and
    candidate lists an earlier one filled.
    ``means`` are the steady-state means of its `window`-wide windows that
    start at or after `warmup`.  Runs happen as the caller iterates, so a
    caller that drops each trace keeps none.
    """
    for seed in seeds:
        net, vnrs = instance_of(seed)
        for name in strategies:
            trace = run(net.copy(), vnrs, make_strategy(name, seed=seed), horizon)
            means = steady_state_means(windowed_series(trace, window), warmup)
            yield name, seed, trace, means


def audit_residuals(net: SubstrateNetwork) -> None:
    """Recompute residuals from the active embeddings, the debit each
    active request's record (``net.active``) holds from its embedding, and
    the mask store from the residuals; abort on any drift."""
    cpu_used: dict[int, int] = {}
    bw_used: dict[tuple[int, int], int] = {}
    for rid, (emb, debited_cpu, debited_bw) in net.active.items():
        # Derived here, not by model._embedding_deltas, so that the audit
        # re-checks the derivation allocate recorded.
        cpu: dict[int, int] = {}
        bw: dict[tuple[int, int], int] = {}
        for vid, sid in emb.node_map.items():
            cpu[sid] = cpu.get(sid, 0) + emb.vnr.nodes[vid].cpu_demand
        for vkey, path in emb.link_map.items():
            demand = emb.vnr.links[vkey].bw_demand
            for k in path_links(path):
                bw[k] = bw.get(k, 0) + demand
        if (debited_cpu, debited_bw) != (cpu, bw):
            raise InternalConsistencyError(
                f"request {rid}: the debit record differs from its embedding's demand")
        for sid, amount in cpu.items():
            cpu_used[sid] = cpu_used.get(sid, 0) + amount
        for k, amount in bw.items():
            bw_used[k] = bw_used.get(k, 0) + amount
    for nid, node in net.nodes.items():
        expect = node.cpu_capacity - cpu_used.get(nid, 0)
        if node.cpu_residual != expect:
            raise InternalConsistencyError(
                f"node {nid} residual {node.cpu_residual}, expected {expect}")
    for k, link in net.links.items():
        expect = link.bw_capacity - bw_used.get(k, 0)
        if link.bw_residual != expect:
            raise InternalConsistencyError(
                f"link {k} residual {link.bw_residual}, expected {expect}")
    if net.mask_store != usable_masks(net.mask_store, net):
        raise InternalConsistencyError("the mask store differs from the residuals' masks")
