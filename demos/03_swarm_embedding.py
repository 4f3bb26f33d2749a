"""Embed one request with the discrete particle swarm and watch it converge.

A particle is a complete node assignment; its binary velocity marks which
components survive the next update.  Fitness is total CPU demand plus
bandwidth x path hops, so the swarm is pulled toward placements whose links
route over short paths.
"""

from secvne import (
    GeneratorConfig,
    PsoConfig,
    cost,
    generate_substrate,
    generate_vnr_stream,
    greedy_embed,
    optimize,
    swarm_search,
    validate_embedding,
)

cfg = GeneratorConfig(seed=17)
net = generate_substrate(cfg)
vnr = next(v for v in generate_vnr_stream(cfg, 2000.0) if len(v.nodes) >= 6)

print(f"request {vnr.id}: {len(vnr.nodes)} nodes (cpu {vnr.cpu_total}), "
      f"{len(vnr.links)} links (bw {vnr.bw_total})\n")

result = swarm_search(vnr, net, PsoConfig(seed=7))
history = result.gbest_history
marks = {0, 1, 2, 5, 10, 20, 30, 40, 50}
print("gbest fitness by iteration:")
for i, value in enumerate(history):
    if i in marks:
        print(f"  iter {i:2d}: {value:.0f}")
print(f"  best assignment: {result.assignment}")

swarm_emb = optimize(vnr, net, PsoConfig(seed=7))
greedy_emb = greedy_embed(vnr, net)

def hop_count(emb):
    return sum(len(p) - 1 for p in emb.link_map.values())

print(f"\nswarm embedding:  cost={cost(swarm_emb):.0f} "
      f"({hop_count(swarm_emb)} total hops), violations="
      f"{len(validate_embedding(net, vnr, swarm_emb))}")
print(f"greedy embedding: cost={cost(greedy_emb):.0f} "
      f"({hop_count(greedy_emb)} total hops), violations="
      f"{len(validate_embedding(net, vnr, greedy_emb))}")
