"""Brute-force reference implementations the fast paths are checked against.

Everything here favors obviousness over speed: exhaustive enumeration,
repeated BFS, per-window re-filtering.  None of it shares code with the
implementation under test beyond the domain types and the swarm's
constants, save ``embeddable_brute``, whose routing rule is the program's
own ``route_all_links``.
"""

import itertools
import math
from collections import deque

import numpy as np

from secvne.errors import EmbeddingInfeasible
from secvne.model import link_key
from secvne.node_mapping import virtual_node_priority
from secvne.pso import RANDOM_INJECTIVE_TRIES, Particle, PsoConfig
from secvne.routing import route_all_links
from secvne.seeding import normalize_seed


def rng_from(seed, *keys):
    """numpy's own ``Generator`` over the (seed, *keys) stream: the reference
    ``seeding.Draws`` is checked against."""
    entropy = [normalize_seed(k) for k in (seed, *keys)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def position_subtract(a, b):
    """Component-wise equality indicator: 1 where the assignments agree.

    The swarm's ``subtract`` operator as the ``secvne.pso`` docstring states
    it, the reference its 8-entry velocity table is checked against.
    """
    if len(a) != len(b):
        raise ValueError(f"positions of length {len(a)} and {len(b)}")
    return [1 if x == y else 0 for x, y in zip(a, b)]


def scalar_velocity_bit(omega, r1, r2, c1, c2, v, pb, gb):
    """The update rule for one component, as the ``secvne.pso`` docstring
    states it."""
    s = omega * v + r1 * c1 * pb + r2 * c2 * gb
    return 1 if math.floor(s + 0.5) >= 1 else 0


def scalar_velocity_update(p, gbest, omega, r1, r2, c1, c2):
    """A particle's new velocity, one component at a time by the scalar rule."""
    pb = position_subtract(p.pbest_position, p.position)
    gb = position_subtract(gbest, p.position)
    return [scalar_velocity_bit(omega, r1, r2, c1, c2, p.velocity[k], pb[k], gb[k])
            for k in range(len(p.position))]


def is_connected(nodes, links):
    """True when the links, pairs of node ids, join all the given nodes."""
    nodes = set(nodes)
    if not nodes:
        return False
    adj = {nid: [] for nid in nodes}
    for (u, v) in links:
        adj[u].append(v)
        adj[v].append(u)
    start = min(nodes)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nbr in adj[cur]:
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    return seen == nodes


def neighbours(net):
    """Node id -> its neighbours' ids, ascending, read off ``net.links``."""
    out = {nid: [] for nid in net.nodes}
    for (u, v) in net.links:
        out[u].append(v)
        out[v].append(u)
    return {nid: sorted(nbrs) for nid, nbrs in out.items()}


def hop_distances_brute(net, dst):
    """Hop count to dst from every node that reaches it, by one plain
    breadth-first search over ``neighbours``."""
    adj = neighbours(net)
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        cur = queue.popleft()
        for nbr in adj[cur]:
            if nbr not in dist:
                dist[nbr] = dist[cur] + 1
                queue.append(nbr)
    return dist


def boundary_hops_brute(net):
    """Per-node boundary distance via one full BFS per node."""
    boundary = net.boundary_nodes()
    adj = neighbours(net)
    out = {}
    for start in net.nodes:
        domain = net.nodes[start].domain
        if start in boundary:
            out[start] = 0
            continue
        dist = {start: 0}
        queue = deque([start])
        best = None
        while queue and best is None:
            cur = queue.popleft()
            for nbr in adj[cur]:
                if nbr in dist or net.nodes[nbr].domain != domain:
                    continue
                dist[nbr] = dist[cur] + 1
                if nbr in boundary:
                    best = dist[nbr]
                    break
                queue.append(nbr)
        out[start] = best
    return out


def all_simple_paths(net, src, dst, max_len=None):
    """Every simple path between src and dst as node tuples."""
    adj = neighbours(net)
    paths = []
    stack = [(src, (src,))]
    while stack:
        cur, path = stack.pop()
        if max_len is not None and len(path) > max_len:
            continue
        for nbr in adj[cur]:
            if nbr in path:
                continue
            if nbr == dst:
                paths.append(path + (nbr,))
            else:
                stack.append((nbr, path + (nbr,)))
    return paths


def shortest_feasible_path_brute(net, src, dst, bw, debits=None):
    """Min-hop, then lexicographically smallest feasible path, or None."""
    debits = debits or {}
    feasible = []
    for path in all_simple_paths(net, src, dst):
        ok = True
        for i in range(len(path) - 1):
            k = link_key(path[i], path[i + 1])
            if net.links[k].bw_residual - debits.get(k, 0) < bw:
                ok = False
                break
        if ok:
            feasible.append(path)
    if not feasible:
        return None
    return min(feasible, key=lambda p: (len(p), p))


def usable_masks_brute(net, bw, debits=None):
    """Each node's usable mask at ``bw``, by bit rank: bit i of node a's mask
    set when a links to the i-th smallest node id with residual minus debit
    at least ``bw``."""
    debits = debits or {}
    ids = sorted(net.nodes)
    masks = []
    for a in ids:
        mask = 0
        for i, b in enumerate(ids):
            k = link_key(a, b)
            if k in net.links and net.links[k].bw_residual - debits.get(k, 0) >= bw:
                mask |= 1 << i
        masks.append(mask)
    return masks


def components_brute(masks):
    """The connected components of the graph whose node i has neighbour mask
    ``masks[i]``, as node masks ordered by their lowest bit: every node
    starts alone, and two parts joined by an edge merge until none are."""
    parts = [1 << i for i in range(len(masks))]
    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(parts)), 2):
            if any(parts[a] >> i & 1 and masks[i] & parts[b] for i in range(len(masks))):
                parts[a] |= parts.pop(b)
                merged = True
                break
    return sorted(parts, key=lambda m: m & -m)


def candidate_nodes_brute(v, net):
    """The substrate nodes that could host virtual node v now, ascending by
    id: every node tested afresh for an allowed domain, enough residual CPU,
    the demanded security level, and a security demand v meets."""
    return [sid for sid in sorted(net.nodes)
            if net.nodes[sid].domain in v.cd
            and net.nodes[sid].cpu_residual >= v.cpu_demand
            and net.nodes[sid].ssl >= v.vsd
            and v.vsl >= net.nodes[sid].ssd]


def greedy_brute(vnr, net):
    """Greedy's node placement as its contract states it: the virtual nodes
    by descending CPU demand, ties by id, each onto the unused candidate of
    largest residual CPU, ties by lowest id.  None when some virtual node
    has no unused candidate."""
    order = sorted(vnr.nodes.values(), key=lambda v: (-v.cpu_demand, v.id))
    used = set()
    assignment = {}
    for v in order:
        pool = [s for s in candidate_nodes_brute(v, net) if s not in used]
        if not pool:
            return None
        best = max(pool, key=lambda sid: (net.nodes[sid].cpu_residual, -sid))
        assignment[v.id] = best
        used.add(best)
    return assignment


def enumerate_assignments(vnr, net):
    """All injective candidate-respecting node assignments."""
    vids = sorted(vnr.nodes)
    cand = [candidate_nodes_brute(vnr.nodes[vid], net) for vid in vids]
    out = []

    def rec(idx, used, acc):
        if idx == len(vids):
            out.append(dict(acc))
            return
        for sid in cand[idx]:
            if sid in used:
                continue
            acc[vids[idx]] = sid
            rec(idx + 1, used | {sid}, acc)
            del acc[vids[idx]]

    rec(0, frozenset(), {})
    return out


def route_all_brute(vnr, assignment, net):
    """Replicates cumulative routing with the brute-force path finder.

    Returns (paths, total_bw_cost) or None when some link cannot be routed.
    """
    order = sorted(vnr.links.values(), key=lambda l: (-l.bw_demand, l.key))
    debits = {}
    paths = {}
    total = 0
    for vlink in order:
        src, dst = assignment[vlink.u], assignment[vlink.v]
        if src == dst:
            return None
        path = shortest_feasible_path_brute(net, src, dst, vlink.bw_demand, debits)
        if path is None:
            return None
        for i in range(len(path) - 1):
            k = link_key(path[i], path[i + 1])
            debits[k] = debits.get(k, 0) + vlink.bw_demand
        paths[vlink.key] = path
        total += vlink.bw_demand * (len(path) - 1)
    return paths, total


def unjoined_hosts(vnr, assignment, net):
    """True when the bare topology, bandwidth ignored, joins the hosts of
    some virtual link by no path: the nodes reachable from one host, grown
    link by link until none is added, miss the other."""
    for l in vnr.links.values():
        reached = {assignment[l.u]}
        grown = True
        while grown:
            grown = False
            for a, b in net.links:
                if (a in reached) != (b in reached):
                    reached |= {a, b}
                    grown = True
        if assignment[l.v] not in reached:
            return True
    return False


def domain_cut_short(vnr, assignment, net):
    """True when, for some domain, the virtual links with exactly one host in
    it demand more bandwidth than the substrate links with exactly one end
    in it have in residual: every path out of the domain crosses one of
    those links, so no routing fits."""
    domain = {nid: n.domain for nid, n in net.nodes.items()}
    for d in range(net.domain_count):
        capacity = cut_residual_brute(net, d, 0)
        demand = sum(l.bw_demand for l in vnr.links.values()
                     if (domain[assignment[l.u]] == d) != (domain[assignment[l.v]] == d))
        if demand > capacity:
            return True
    return False


def request_cut_brute(vnr, net):
    """Per (domain d, demand t of the request), the least summed demand of
    the virtual links of demand >= t with exactly one host inside d, over
    every inside/outside choice of each virtual node that its candidate
    list allows: inside when some candidate lies in d, outside when some
    lies elsewhere.  Every virtual node needs a candidate."""
    vids = sorted(vnr.nodes)
    doms = [{net.nodes[c].domain for c in candidate_nodes_brute(vnr.nodes[vid], net)}
            for vid in vids]
    out = {}
    for d in range(net.domain_count):
        choices = [[side for side in (True, False) if (d in ds if side else ds != {d})]
                   for ds in doms]
        for t in {l.bw_demand for l in vnr.links.values()}:
            crossing = []
            for combo in itertools.product(*choices):
                inside = dict(zip(vids, combo))
                crossing.append(sum(l.bw_demand for l in vnr.links.values()
                                    if l.bw_demand >= t and inside[l.u] != inside[l.v]))
            out[d, t] = min(crossing)
    return out


def cut_residual_brute(net, d, t):
    """The summed residual of the substrate links with exactly one end in
    domain d and residual >= t."""
    return sum(l.bw_residual for (u, v), l in net.links.items()
               if (net.nodes[u].domain == d) != (net.nodes[v].domain == d) and l.bw_residual >= t)


def embeddable_brute(vnr, net):
    """True when some injective assignment from the candidate lists routes:
    every assignment is tried, in candidate order, until one does.  Routable
    means that the program's own ``route_all_links`` succeeds, the rule a
    placement must meet, checked against ``route_all_brute`` elsewhere; on
    six instances of the whole-run family of ``tests/test_pso.py`` the
    brute-force router took about 35 times as long."""
    for assignment in enumerate_assignments(vnr, net):
        try:
            route_all_links(vnr, assignment, net)
        except EmbeddingInfeasible:
            continue
        return True
    return False


def best_fitness_brute(vnr, net):
    """Minimum embedding cost over every injective assignment, or None."""
    best = None
    for assignment in enumerate_assignments(vnr, net):
        routed = route_all_brute(vnr, assignment, net)
        if routed is None:
            continue
        value = vnr.cpu_total + routed[1]
        if best is None or value < best:
            best = value
    return best


def map_nodes_brute(vnr, net):
    """Replays the greedy priority mapping by explicit per-step argmax.

    Scores every unused candidate with an independently coded version of the
    blended priority, with the paper's weights 0.5/0.3/0.2, and picks the max
    (ties by id), mirroring the contract rather than the implementation.
    """
    def step_score(v, sid, pool):
        def norm(value, values):
            lo, hi = min(values), max(values)
            return 0.0 if hi == lo else (value - lo) / (hi - lo)

        sec_vals = [net.nodes[s].ssl - v.vsd for s in pool]
        cpu_vals = [net.nodes[s].cpu_residual - v.cpu_demand for s in pool]
        mh = max(net.nodes[s].hop_to_boundary for s in pool)
        hop_vals = [mh - net.nodes[s].hop_to_boundary for s in pool]
        i = pool.index(sid)
        return (0.5 * norm(sec_vals[i], sec_vals)
                + 0.3 * norm(cpu_vals[i], cpu_vals)
                + 0.2 * norm(hop_vals[i], hop_vals))

    order = sorted(vnr.nodes.values(), key=lambda v: (-virtual_node_priority(v), v.id))
    used = set()
    assignment = {}
    for v in order:
        pool = [s for s in candidate_nodes_brute(v, net) if s not in used]
        if not pool:
            return None
        best = max(pool, key=lambda sid: (step_score(v, sid, pool), -sid))
        assignment[v.id] = best
        used.add(best)
    return assignment


def windowed_metrics_brute(trace, width):
    """Per-window metrics by filtering the raw event list window by window."""
    rows = []
    i = 0
    while i * width < trace.horizon:
        t, end = i * width, min((i + 1) * width, trace.horizon)
        arrivals = [r for r in trace.records
                    if r.kind == "arrival" and t <= r.time < end]
        accepted = [r for r in arrivals if r.outcome == "accepted"]
        rev = sum(r.revenue for r in accepted)
        cst = sum(r.cost for r in accepted)
        acc = len(accepted) / len(arrivals) if arrivals else None
        avg_rev = rev / (end - t)
        avg_cst = cst / (end - t)
        rc = avg_rev / avg_cst if avg_cst > 0 else None
        rows.append((t, end, len(arrivals), len(accepted), acc, avg_rev, avg_cst, rc))
        i += 1
    return rows


def matching_brute(candidate_lists):
    """The injective assignment Kuhn's augmenting paths find, trying virtual
    nodes in order and each one's candidates in list order; None when there
    is none."""
    owner = {}

    def augment(k, seen):
        for c in candidate_lists[k]:
            if c not in seen:
                seen.add(c)
                if c not in owner or augment(owner[c], seen):
                    owner[c] = k
                    return True
        return False

    if not all(augment(k, set()) for k in range(len(candidate_lists))):
        return None
    return [next(c for c, k in owner.items() if k == i) for i in range(len(candidate_lists))]


def sample_injective_brute(candidate_lists, rng):
    """One pass of uniform draws, each pick excluding the earlier ones; None
    when a pool empties."""
    out = []
    for cands in candidate_lists:
        pool = [c for c in cands if c not in out]
        if not pool:
            return None
        out.append(pool[rng.integers(len(pool))])
    return out


def random_injective_brute(candidate_lists, rng):
    """Up to RANDOM_INJECTIVE_TRIES passes of ``sample_injective_brute``,
    then the deterministic matching."""
    for _ in range(RANDOM_INJECTIVE_TRIES):
        out = sample_injective_brute(candidate_lists, rng)
        if out is not None:
            return out
    return matching_brute(candidate_lists)


def swarm_reference(vnr, net, cfg):
    """The swarm of ``secvne.pso`` written plainly, with numpy's own
    ``Generator`` and the scalar velocity rule.  Every position a particle
    reaches, repeats included, is priced by ``route_all_brute``: no cost
    bound, domain cut, cutoff or short-circuit.

    Returns (position, fitness, gbest history), positions in ascending
    virtual-node id order, or None when some virtual node has no candidate
    or the candidate sets admit no injective assignment.
    """
    order = sorted(vnr.nodes)
    cands = [candidate_nodes_brute(vnr.nodes[vid], net) for vid in order]
    if not all(cands) or matching_brute(cands) is None:
        return None
    rng = rng_from(cfg.seed)

    def fitness(position):
        routed = route_all_brute(vnr, dict(zip(order, position)), net)
        return math.inf if routed is None else float(vnr.cpu_total + routed[1])

    mapped = map_nodes_brute(vnr, net)
    particles = []
    for i in range(PsoConfig.particle_count):
        if i == 0 and mapped is not None:
            position = [mapped[vid] for vid in order]
        else:
            position = random_injective_brute(cands, rng)
        velocity = [rng.integers(2) for _ in position]
        particles.append(Particle(position, velocity, list(position), fitness(position)))
    first = min(particles, key=lambda p: p.pbest_fitness)
    gbest, gbest_fitness = list(first.pbest_position), first.pbest_fitness
    history = [gbest_fitness]
    span = PsoConfig.inertia_max - PsoConfig.inertia_min
    for it in range(PsoConfig.iterations):
        omega = PsoConfig.inertia_max - span * (it / (PsoConfig.iterations - 1))
        for p in particles:
            r1, r2 = rng.random(), rng.random()
            velocity = scalar_velocity_update(p, gbest, omega, r1, r2,
                                              PsoConfig.c1, PsoConfig.c2)
            # Keep the components of velocity 1, re-draw the rest in order.
            position = list(p.position)
            used = {x for x, v in zip(position, velocity) if v == 1}
            for k, v in enumerate(velocity):
                if v == 1:
                    continue
                pool = [c for c in cands[k] if c not in used]
                if not pool:
                    position = random_injective_brute(cands, rng)
                    break
                position[k] = pool[rng.integers(len(pool))]
                used.add(position[k])
            p.position, p.velocity = position, velocity
            f = fitness(position)
            if f < p.pbest_fitness:
                p.pbest_position, p.pbest_fitness = list(position), f
            if p.pbest_fitness < gbest_fitness:
                gbest, gbest_fitness = list(p.pbest_position), p.pbest_fitness
        history.append(gbest_fitness)
    return gbest, gbest_fitness, history
