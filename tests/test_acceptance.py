"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Criteria 5 and 6 are implemented exactly as stated and are currently
expected to fail: under the pinned mechanics (cost-minimizing swarm
placement vs. residual-maximizing greedy) and the published resource ranges
(bandwidth three orders of magnitude above demand, so it never binds),
the greedy baseline's load balancing wins the acceptance ordering, and the
swarm's placement quality at the pinned 10x50 evaluation budget caps the
revenue/cost gap near 0.06.  The experiments behind that conclusion are
summarized in the repository notes; nothing here is loosened to force green.
"""

import math
import statistics
import subprocess
import sys
import time

import pytest

from secvne import simulation
from secvne.generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from secvne.metrics import cumulative_series, windowed_series
from secvne.node_mapping import candidate_nodes
from secvne.pso import PsoConfig, injective_assignment, swarm_search
from secvne.simulation import compare, make_strategy, run

from oracles import best_fitness_brute, windowed_metrics_brute

HORIZON = 8000.0
WARMUP = 2400.0
WINDOW = 500.0
SEEDS = (0, 1, 2, 3, 4)
STRATEGIES = ("stec-iot", "greedy", "random")


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def battery():
    """Five seeded default instances, each run under all three strategies:
    (strategy, seed) -> (trace, steady-state means)."""
    def instance_of(seed):
        cfg = GeneratorConfig(seed=seed)
        return generate_substrate(cfg), generate_vnr_stream(cfg, HORIZON)

    return {(name, seed): (trace, means) for name, seed, trace, means
            in compare(instance_of, STRATEGIES, SEEDS, HORIZON, WINDOW, WARMUP)}


def test_criterion_1_constraint_soundness(monkeypatch):
    """Full default-scale run, >= 2000 arrivals, every acceptance re-validated."""
    validate = simulation.validate_embedding
    validated = []

    def counted(net, vnr, emb):
        validated.append(vnr.id)
        return validate(net, vnr, emb)

    monkeypatch.setattr(simulation, "validate_embedding", counted)
    cfg = GeneratorConfig(seed=101)
    net = generate_substrate(cfg)
    horizon = 44000.0
    vnrs = generate_vnr_stream(cfg, horizon)
    assert len(vnrs) >= 2000, "workload too small for the soundness criterion"
    t0 = time.perf_counter()
    # run shadow-validates every acceptance and raises InternalConsistencyError
    # on any violation
    trace = run(net, vnrs, make_strategy("stec-iot", seed=101), horizon)
    elapsed = time.perf_counter() - t0
    accepted = [r.vnr_id for r in trace.records if r.outcome == "accepted"]
    ok = (validated == accepted and trace.arrived >= 2000
          and elapsed < 180.0)
    assert report("1 constraint-soundness",
                  ok,
                  f"{trace.arrived} arrivals, {trace.accepted} accepted, "
                  f"{len(validated)} validated clean, {elapsed:.0f}s (< 180s)")


def test_criterion_2_conservation():
    """After the horizon plus all departures, residuals equal capacities."""
    clean = True
    for seed in SEEDS:
        cfg = GeneratorConfig(seed=seed)
        net = generate_substrate(cfg)
        vnrs = generate_vnr_stream(cfg, 2500.0)
        trace = run(net, vnrs, make_strategy("stec-iot", seed=seed), 2500.0)
        assert not net.active
        for node in net.nodes.values():
            clean &= node.cpu_residual == node.cpu_capacity
        for link in net.links.values():
            clean &= link.bw_residual == link.bw_capacity
    assert report("2 conservation", clean,
                  f"bit-exact residual restoration on {len(SEEDS)} seeds")


def _toy_instances(count=50):
    """Random instances with 3-4 virtual nodes and at most 8 candidates each."""
    instances = []
    seed = 0
    while len(instances) < count:
        seed += 1
        cfg = GeneratorConfig(seed=1000 + seed, node_count=12, domain_count=2,
                              vnr_node_range=(3, 4), cd_size_range=(1, 1),
                              security_range=(0, 3), vnr_cpu_range=(1, 30),
                              vnr_arrival_rate=0.05)
        net = generate_substrate(cfg)
        for vnr in generate_vnr_stream(cfg, 400.0):
            if not 3 <= len(vnr.nodes) <= 4:
                continue
            cands = [candidate_nodes(vnr.nodes[v], net) for v in sorted(vnr.nodes)]
            if any(not c or len(c) > 8 for c in cands):
                continue
            if injective_assignment(cands) is None:
                continue
            optimum = best_fitness_brute(vnr, net)
            if optimum is None:
                continue
            instances.append((net, vnr, optimum))
            if len(instances) == count:
                break
    return instances


def test_criterion_3_pso_matches_brute_force():
    """Best of 20 seeds hits the enumerated optimum on >= 90% of 50 toys;
    every gbest series is non-increasing; whole check under 2 minutes."""
    t0 = time.perf_counter()
    instances = _toy_instances(50)
    hits = 0
    monotone = True
    ratios = []
    for net, vnr, optimum in instances:
        best = math.inf
        for s in range(20):
            result = swarm_search(vnr, net, PsoConfig(seed=s))
            hist = result.gbest_history
            monotone &= all(a >= b for a, b in zip(hist, hist[1:]))
            best = min(best, result.fitness)
            ratios.append(result.fitness / optimum)
        hits += best == optimum
    elapsed = time.perf_counter() - t0
    median_ratio = statistics.median(ratios)
    ok = hits >= 45 and monotone and elapsed < 120.0
    assert report("3 pso-oracle", ok,
                  f"optimum hit on {hits}/50 instances, monotone={monotone}, "
                  f"median gbest/optimum={median_ratio:.3f}, {elapsed:.0f}s (< 120s)")
    # sanity band from the module invariants, not a headline criterion
    assert median_ratio <= 1.10


def test_criterion_4_metric_oracle_equivalence(battery):
    """Streaming windowed metrics equal an independent from-trace recompute."""
    checked = 0
    for trace, _ in battery.values():
        rows = windowed_series(trace, WINDOW)
        expected = windowed_metrics_brute(trace, WINDOW)
        assert len(rows) == len(expected)
        for row, exp in zip(rows, expected):
            assert (row.window.t_start, row.window.t_end,
                    row.window.arrived, row.window.accepted,
                    row.acceptance, row.avg_revenue, row.avg_cost,
                    row.rc_ratio) == exp
            checked += 1
    assert report("4 metric-oracle", True, f"{checked} windows matched exactly")


def test_criterion_5_acceptance_ordering(battery):
    """Steady-state acceptance: swarm strategy >= greedy on >= 4 of 5 seeds,
    with the conditional floor (greedy > 0.45 implies stec-iot > 0.6)."""
    stec = [battery[("stec-iot", s)][1]["acceptance"] for s in SEEDS]
    greedy = [battery[("greedy", s)][1]["acceptance"] for s in SEEDS]
    rand = [battery[("random", s)][1]["acceptance"] for s in SEEDS]
    g_mean = statistics.fmean(greedy)
    s_mean = statistics.fmean(stec)
    premise = 0.4 <= g_mean <= 0.7
    wins = sum(1 for a, b in zip(stec, greedy) if a >= b)
    conditional = all(s > 0.6 for s, g in zip(stec, greedy) if g > 0.45)
    floor_ok = statistics.fmean(rand) <= s_mean
    detail = (f"greedy mean {g_mean:.3f} in [0.4,0.7]={premise}, "
              f"stec mean {s_mean:.3f}, ordering holds {wins}/5 seeds, "
              f"conditional(>0.45 -> >0.6)={conditional}, "
              f"random<=stec={floor_ok}")
    ok = premise and wins >= 4 and s_mean >= g_mean and conditional
    report("5 acceptance-ordering", ok, detail)
    assert premise, "calibration premise violated: " + detail
    assert wins >= 4 and s_mean >= g_mean and conditional, detail


def test_criterion_6_rc_ratio_gap(battery):
    """Steady-state revenue/cost: swarm strategy over greedy by >= 0.1."""
    stec = statistics.fmean(battery[("stec-iot", s)][1]["rc_ratio"] for s in SEEDS)
    greedy = statistics.fmean(battery[("greedy", s)][1]["rc_ratio"] for s in SEEDS)
    gap = stec - greedy
    detail = f"stec {stec:.3f} vs greedy {greedy:.3f}, gap {gap:+.3f} (need >= +0.1)"
    ok = gap >= 0.1
    report("6 rc-ratio-gap", ok, detail)
    assert ok, detail


def test_cost_ratio_ordering_without_margin(battery):
    """The direction of the revenue/cost comparison (swarm over greedy) holds
    on every seed even though the 0.1-margin criterion does not."""
    for seed in SEEDS:
        stec = battery[("stec-iot", seed)][1]["rc_ratio"]
        greedy = battery[("greedy", seed)][1]["rc_ratio"]
        assert stec > greedy


def test_criterion_7_monotone_cumulative_series(battery):
    """Cumulative revenue and cost never decrease, for every strategy and seed."""
    ok = True
    for trace, _ in battery.values():
        rows = cumulative_series(trace, WINDOW)
        revs = [r.revenue for r in rows]
        costs = [r.cost for r in rows]
        ok &= all(a <= b for a, b in zip(revs, revs[1:]))
        ok &= all(a <= b for a, b in zip(costs, costs[1:]))
    assert report("7 monotone-cumulative", ok,
                  f"{len(battery)} strategy x seed series non-decreasing")


def test_criterion_8_cli_determinism(tmp_path):
    """Repeated CLI invocations with identical inputs emit identical bytes."""
    config = tmp_path / "config.json"
    config.write_text('{"seed": 11, "domain_count": 2, "node_count": 12, '
                      '"cd_size_range": [1, 2], "vnr_node_range": [2, 4]}')

    def invoke(args):
        proc = subprocess.run([sys.executable, "-m", "secvne"] + args,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    digests = []
    for tag in ("a", "b"):
        gen = tmp_path / f"gen_{tag}"
        runo = tmp_path / f"run_{tag}"
        cmpo = tmp_path / f"cmp_{tag}"
        invoke(["generate", "--config", str(config), "--horizon", "1500",
                "--out", str(gen)])
        invoke(["run", "--substrate", str(gen / "substrate.json"),
                "--workload", str(gen / "workload.jsonl"),
                "--strategy", "stec-iot", "--window", "300", "--out", str(runo)])
        invoke(["compare", "--config", str(config), "--strategies",
                "stec-iot,greedy", "--seeds", "1,2", "--horizon", "1200",
                "--window", "300", "--out", str(cmpo)])
        blob = b"".join(sorted(p.read_bytes() for p in
                               list(gen.iterdir()) + list(runo.iterdir())
                               + list(cmpo.iterdir())))
        digests.append(blob)
    ok = digests[0] == digests[1]
    assert report("8 determinism", ok,
                  "fresh-process generate+run+compare pipelines byte-identical")
