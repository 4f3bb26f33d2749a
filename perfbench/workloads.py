"""The benchmark's workloads.

A workload is a strategy plus changes to the default `GeneratorConfig`.  A
run of it builds `instances` instances, each up to `horizon`: instance `i`
pairs a substrate drawn from the benchmark seed with the workload's request
stream `i`, which every seed shares, so that the timings move with the
substrates and not with the request mix (see README.md).  The instance
count and horizon size one pass over the instances to about the
benchmark's 30 s of measuring on a 2-core x86 host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Window width of the metric series, as the CLI's default.
WINDOW = 500.0


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    horizon: float
    instances: int
    overrides: dict = field(default_factory=dict)
    # SHA-256 over the outputs of all instances, by benchmark seed.
    pinned: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    # The paper's algorithm at paper scale: time goes to routing BFS and the
    # swarm operators, so routing and swarm changes show here.
    Workload("stec-default", "stec-iot", horizon=1000.0, instances=6, pinned={
        0: "4ee96f19c539c3c39473f236ac940c403453534793729f534ee58f4f1c2c474e"}),
    # Same offered load with 10x the events and no swarm: the per-event
    # layers (candidates, validation, allocate/release, audit, event loop,
    # metrics, fileio, set-up) carry a real share; a swarm change should not
    # move it.
    Workload("greedy-churn", "greedy", horizon=2000.0, instances=6,
             overrides={"vnr_arrival_rate": 0.5, "vnr_mean_lifetime": 100.0}, pinned={
                 0: "a55c7eba52e43109e4300d49320c6d5268abf54753988e9ebf80b9156b2133e6"}),
    # Bandwidth binds: routes fail, cached paths go short, infeasible
    # particles and the BFS fallback are exercised.
    Workload("stec-bwbound", "stec-iot", horizon=1000.0, instances=8,
             overrides={"substrate_bw_range": (20, 60)}, pinned={
                 0: "5131f7e74798a1125c55006aea5cbb6da8e4788ed61cf8ad76fd71bf3f7f622c"}),
)}
