"""Generate a multi-domain substrate and a request stream, then look around.

Everything is driven by one 64-bit seed: rerunning this script reproduces the
exact same networks, attribute draws, and arrival times.
"""

from collections import Counter

from secvne import GeneratorConfig, generate_substrate, generate_vnr_stream

cfg = GeneratorConfig(seed=2024)
net = generate_substrate(cfg)

print(f"substrate: {len(net.nodes)} nodes in {net.domain_count} domains, "
      f"{len(net.links)} links")
print(f"  intra-domain links: {len(net.links) - len(net.inter_links)}, "
      f"inter-domain links: {len(net.inter_links)}")
print(f"  boundary nodes: {sorted(net.boundary_nodes())}")

for d in range(net.domain_count):
    members = [nid for nid in net.node_ids if net.nodes[nid].domain == d]
    cpu = sum(net.nodes[n].cpu_capacity for n in members)
    hops = [net.nodes[n].hop_to_boundary for n in members]
    print(f"  domain {d}: {len(members)} nodes, {cpu} total cpu, "
          f"boundary distance 0..{max(hops)}")

horizon = 3000.0
vnrs = generate_vnr_stream(cfg, horizon)
print(f"\nworkload: {len(vnrs)} requests over {horizon:.0f} time units")
sizes = Counter(len(v.nodes) for v in vnrs)
print(f"  request sizes: {dict(sorted(sizes.items()))}")
first = vnrs[0]
print(f"  first request: id={first.id} t={first.arrival_time:.1f} "
      f"lifetime={first.lifetime:.1f}")
for node in first.nodes.values():
    print(f"    virtual node {node.id}: cpu={node.cpu_demand} vsd={node.vsd} "
          f"vsl={node.vsl} candidate domains={sorted(node.cd)}")
for key, link in sorted(first.links.items()):
    print(f"    virtual link {key}: bw={link.bw_demand}")
