"""Walk through the priority-driven node mapping step by step.

Virtual nodes are ranked by security demand x CPU demand; each takes its
best-scoring unused candidate, where the score blends normalized security
surplus, CPU slack, and boundary proximity with weights 0.5 / 0.3 / 0.2.
"""

from secvne import (
    GeneratorConfig,
    candidate_nodes,
    candidate_scores,
    generate_substrate,
    generate_vnr_stream,
    map_nodes,
    request_candidates,
    virtual_node_priority,
)

cfg = GeneratorConfig(seed=5, node_count=24, domain_count=2, cd_size_range=(1, 2),
                      vnr_node_range=(3, 5))
net = generate_substrate(cfg)
vnr = generate_vnr_stream(cfg, 100.0)[0]

print(f"request {vnr.id}: {len(vnr.nodes)} virtual nodes, {len(vnr.links)} links\n")

order = sorted(vnr.nodes.values(),
               key=lambda v: (-virtual_node_priority(v), v.id))
print("mapping order (priority = vsd x cpu):")
for v in order:
    print(f"  virtual node {v.id}: vsd={v.vsd} cpu={v.cpu_demand} "
          f"-> priority {virtual_node_priority(v)}")

print("\nper-node candidates and scores:")
used = set()
for v in order:
    cands = [s for s in candidate_nodes(v, net) if s not in used]
    scores = candidate_scores(v, cands, net) if cands else {}
    ranked = sorted(cands, key=lambda s: (-scores[s], s))  # same ties as map_nodes
    top = ", ".join(f"node {s} ({scores[s]:.2f})" for s in ranked[:4])
    print(f"  virtual node {v.id}: {len(cands)} candidates -> {top}")
    if ranked:
        used.add(ranked[0])

print(f"\nfinal assignment: {map_nodes(vnr, net, request_candidates(vnr, net))}")
