"""Compare the three strategies over a few seeds on one compact scenario.

The same comparison at full scale is available from the command line:

    secvne compare --strategies stec-iot,greedy,random --seeds 0,1,2,3,4 \
        --horizon 8000 --out results/
"""

import statistics

from secvne import GeneratorConfig, compare, generate_substrate, generate_vnr_stream

HORIZON, WARMUP, WINDOW = 3000.0, 1000.0, 300.0
SEEDS = (0, 1, 2)


def instance_of(seed):
    cfg = GeneratorConfig(seed=seed, node_count=48, domain_count=2,
                          cd_size_range=(1, 2), vnr_arrival_rate=0.08,
                          vnr_mean_lifetime=400.0)
    return generate_substrate(cfg), generate_vnr_stream(cfg, HORIZON)


results = {}
for name, _, _, means in compare(instance_of, ("stec-iot", "greedy", "random"), SEEDS,
                                 HORIZON, WINDOW, WARMUP):
    results.setdefault(name, []).append(means)

print(f"steady-state means over seeds {SEEDS} "
      f"(horizon {HORIZON:.0f}, warmup {WARMUP:.0f}):\n")
print(f"{'strategy':10s} {'acceptance':>10s} {'avg_rev':>8s} {'avg_cost':>9s} {'r/c':>6s}")
for name, rows in results.items():
    def mean(key):
        vals = [r[key] for r in rows if r[key] is not None]
        return statistics.fmean(vals)
    print(f"{name:10s} {mean('acceptance'):10.3f} {mean('avg_revenue'):8.2f} "
          f"{mean('avg_cost'):9.2f} {mean('rc_ratio'):6.3f}")

print("\nthe swarm strategy trades a little acceptance for visibly cheaper")
print("embeddings (shorter paths), which shows up in the revenue/cost column")
