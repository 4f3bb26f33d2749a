"""Discrete particle swarm search over node assignments.

A particle's position is one complete node assignment (one substrate node per
virtual node, injective, each drawn from that node's candidate set).  Its
velocity is a binary mask: 1 keeps a component through the next position
update, 0 re-draws it from the candidate set.

The operator algebra is the indicator form of the classic update rule:

    subtract(a, b)[k] = 1 if a[k] == b[k] else 0
    s[k] = omega * v[k] + r1*c1*subtract(pbest, x)[k] + r2*c2*subtract(gbest, x)[k]
    v'[k] = 1 if round-half-up(s[k]) >= 1 else 0       (clamped to {0, 1})

so agreement with the personal and global bests locks a component in place
while disagreement frees it to explore.  Within one (particle, iteration)
update omega, r1 and r2 are fixed and v, subtract(pbest, x) and
subtract(gbest, x) are each 0 or 1, so s takes one of 8 values:
``velocity_table`` computes the 8 bits once, with the same expression, and
each component indexes into them.

Every search runs the swarm that the ``PsoConfig`` class constants fix:
``particle_count`` 10 over ``iterations`` 50, ``c1`` = ``c2`` = 1.5, omega
falling linearly from ``inertia_max`` 0.9 to ``inertia_min`` 0.1 over the
iterations.  A ``PsoConfig`` instance carries only the search's seed.

Fitness is the embedding cost (total CPU demand plus bandwidth x path hops),
with +inf as the sentinel for positions whose links cannot be routed;
pbest/gbest only move on strict improvement, which makes the gbest series
non-increasing by construction.

A search never changes residuals, so ``evaluation_plan`` tests once per
search whether the request's total bandwidth demand is at most every
substrate link's residual.  If so, bandwidth cannot bind: every path
``route_all_links`` picks is simple, so when it routes a virtual link the
debits on any substrate link come from other virtual links and total at
most the request's demand minus this link's, and every table path stays
feasible.  The routed cost is then the sum of bandwidth x topology hop
distance, which ``fitness`` reads from the substrate's hop-distance table
(``hop_sum``) without building paths or debits.  The table
(``SubstrateNetwork.hop_dist``) holds, per destination, the hop count of
every node that reaches it.  ``hop_sum`` reads its rows directly and calls
``routing.hop_distances``, one breadth-first search, only to fill a row the
first time its destination is asked for.

Otherwise ``evaluation_plan`` makes sure, once per search, that the
substrate's mask store holds each node's usable mask at every distinct
demand d of the request, its neighbours over links with residual >= d
(``routing.stored_masks``, which builds only the demands the store lacks).
It also sums, per domain, the residual of the inter-domain links that touch
the domain, its cut (``SubstrateNetwork.inter_links`` lists those links
once per substrate).  ``fitness`` then settles a position by the first of
three steps that applies, in this order:

1. Domain cut.  Per domain, the demands of the virtual links with exactly
   one host in the domain are summed.  Every path that leaves a domain
   debits its demand on at least one of that domain's cut links, so when
   the sum exceeds the cut no routing order fits: INFEASIBLE.
2. Cutoff.  When ``cutoff`` is finite, the topology hop sum ``cpu_total +
   sum(bw * hops)`` is read from the hop-distance table (``hop_sum``), and
   returned without routing when it is at least ``cutoff``.  No routed
   path is shorter than the topology's min-hop path, so the sum is a lower
   bound on the routed cost; when the topology does not join some link's
   hosts no route joins them either, and the sum is INFEASIBLE.
   ``swarm_search`` passes the particle's pbest fitness as the cutoff, and
   pbest and gbest move only on strict improvement, so such a value moves
   neither, as the routed cost would not.
3. Route.  ``route_all_links`` routes the position in full, and a
   breadth-first search reads the stored masks instead of testing
   residuals link by link.

A finite hop sum at the cutoff is a bound, not a cost, and moves no best.
``optimize`` routes the winner as every strategy does, through
``build_embedding``, which reads the store only if a table path falls
short.

Everything a search scores positions against is fixed per search, so
``evaluation_plan`` derives it once, and holds only what ``fitness`` and
the bound stop read: the virtual-node order, ``cpu_total``, each virtual
link as an (index of u, index of v, demand) triple in the request's routing
order, the slack flag, the bound and, without slack, the domain cuts.
``fitness`` indexes positions with the triples and builds the assignment
dict only when it routes.

Every injective draw goes through one loop, ``draw_injective``.  For each
component it draws, in ascending order, its pool is the candidate list less
``used`` (the nodes kept or picked so far): an empty pool is a dead end, and
otherwise it picks ``pool[rng.integers(len(pool))]`` and adds the pick to
``used``.  The pool is never built.  Each list has a map from its nodes to
their indices (``index_maps``; a list holds distinct nodes), so the used
nodes in list k are a few indices, the hits.  The loop draws ``j`` below the
list's length less the hits and steps ``j`` past each hit index ``<= j`` in
ascending order, which lands on the j-th node of the filtered list: the same
pick from the same one ``integers`` call.  ``position_update`` runs it over
the velocity-0 components, with the kept nodes already in ``used``, and
falls back to ``random_injective`` at a dead end.  ``sample_injective`` runs
it over every component from an empty ``used`` and returns None at a dead
end; ``random_injective`` (each initial particle not seeded by the priority
mapping) and the random baseline draw through it.  ``swarm_search`` builds
the maps once per search and ``baselines.random_embed`` once per request.

Two proofs speak about all positions at once, and either makes the plan's
bound INFEASIBLE, so that the search raises ``EmbeddingInfeasible`` before
the swarm runs instead of spending its evaluations on a certain INFEASIBLE.

- The cost bound.  ``cost_bound`` is ``cpu_total`` plus, per virtual link
  of demand d, d times the hop count between the two candidate sets (one
  multi-source ``bfs_levels``), at least 1: over the stored usable masks
  at d without slack, over the whole topology under it.  A link's hosts
  are distinct, and debits only shrink the usable subgraph, so no routed
  path is shorter and no position costs less, in either regime.  When
  those links join no pair of the candidate sets the bound is INFEASIBLE:
  no position routes that link.
- The request's domain cut, tried without slack once the cost bound is
  finite (``cut_proves_infeasible``).  For a domain D and a demand t of the
  request, the virtual nodes whose candidates all lie in D are inside D in
  every position, those with none there outside, and the rest on either
  side; the least demand of the links of demand >= t that cross D's border
  is then a minimum cut of the request (``request_cut``, a max flow).  Each
  such link leaves D over an inter-domain link that holds its demand, so
  one with residual >= t, and the debits on a link total at most its
  residual: when the cut exceeds the residual of D's inter-domain links
  with residual >= t, no position routes.  Under slack the cut is not
  tried, and skipping it changes no result: every link's residual is then
  at least the request's total demand, so a domain that any link leaves
  has room for every cut and the proof cannot fire there, while a domain
  no link leaves is one that ``compute_boundary_hops`` rejects in every
  generated or loaded substrate, and even there the proof would only
  reject what the swarm, every position being unroutable, ends INFEASIBLE
  on.  A proof never changes a placement, and each search draws from its
  own stream, so no trace moves when it fires.

Three exact shortcuts skip swarm work that cannot change the result.

- Stop at the bound.  pbest and gbest move only on strict improvement, so
  once gbest meets the bound nothing can move it: the search stops before
  the next iteration and pads ``gbest_history`` with gbest.  Each search
  draws from its own stream, so no other search sees the draws it skips.
- Short-circuit a particle held on its pbest.  When ``r1 * c1 + 0.5 >= 1.0``
  (entry 2 of ``velocity_table``, the same expression) and the position
  equals pbest, every component agrees with pbest and so indexes entry 2,
  3, 6 or 7.  Each of those sums adds non-negative terms to ``r1 * c1``,
  and rounding is monotone, so every bit is 1: ``position_update`` would
  keep the position, its fitness is pbest's, and gbest is at most every
  pbest, so neither best moves.  The particle's velocity becomes all ones
  and its update, evaluation and best checks are skipped.
- Skip an all-ones update.  When ``velocity_update`` gives all ones,
  ``position_update`` would draw nothing and keep the position.  Its
  fitness was seen when the particle reached it: the cost, or a bound at
  least the pbest of that time.  pbest is at most that cost and gbest at
  most every pbest, so neither best moves.  The particle takes the new
  velocity, and its position update, evaluation and best checks are
  skipped.  Both this and the held particle give the velocity as the
  search's one shared all-ones list, so the O(1) form needs no update at
  all: when ``omega + 0.5 >= 1.0`` (entry 4 of ``velocity_table``, the same
  expression) and the particle's velocity is that list, every component
  indexes entry 4, 5, 6 or 7, which add non-negative terms to ``omega``, so
  the update would give all ones again.  The particle is skipped without
  calling ``velocity_update``.  The held test comes first.

The search draws through a ``seeding.Draws`` stream, which gives the values
numpy's ``Generator`` would for the same calls, so the draw order alone
fixes the result: per particle, the initial position's draws (none for a
particle seeded by the priority mapping), then one ``integers(2)`` per
component for its velocity; per (iteration, particle), ``r1``, then ``r2``,
then one ``integers`` per re-drawn component in ascending order.  A
short-circuited particle and an all-ones update, computed or not, still
draw ``r1`` and ``r2`` and re-draw nothing, and a search that stops at the
bound draws nothing more.  Particles
cannot be vectorised, since gbest moves between particles within an
iteration.  The operators take any sampler with ``random()`` and
``integers(n)``, a numpy ``Generator`` included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import ClassVar

from .errors import EmbeddingInfeasible
from .model import Embedding, SubstrateNetwork, VirtualNetworkRequest, bfs_levels
from .node_mapping import candidate_nodes, map_nodes
from .routing import build_embedding, hop_distances, route_all_links, stored_masks
from .seeding import draws_from

INFEASIBLE = math.inf
# Rejection-sampling passes of random_injective before it falls back to the
# deterministic matching.
RANDOM_INJECTIVE_TRIES = 100


@dataclass
class PsoConfig:
    """A search's seed; the class constants fix the swarm (module docstring)."""

    particle_count: ClassVar[int] = 10
    iterations: ClassVar[int] = 50
    inertia_max: ClassVar[float] = 0.9
    inertia_min: ClassVar[float] = 0.1
    c1: ClassVar[float] = 1.5
    c2: ClassVar[float] = 1.5
    seed: int = 0


@dataclass
class Particle:
    position: list[int]
    velocity: list[int]
    pbest_position: list[int]
    pbest_fitness: float


@dataclass
class SwarmResult:
    """Best assignment found plus the per-iteration gbest fitness series."""

    vnode_order: list[int]
    position: list[int]
    fitness: float
    gbest_history: list[float]

    @property
    def assignment(self) -> dict[int, int]:
        return dict(zip(self.vnode_order, self.position))


def velocity_table(omega: float, r1: float, r2: float) -> list[int]:
    """The new velocity bit for every (v, pb, gb) in {0, 1}^3, at index
    4*v + 2*pb + gb, where pb and gb are the pbest and gbest agreement
    indicators.

    Each entry is ``omega * v + r1 * c1 * pb + r2 * c2 * gb`` (``PsoConfig``'s
    c1 and c2) rounded half up, with the products by 0 and 1 written out: for
    finite operands x * 1 is x and adding x * 0 changes a sum at most in the
    sign of a zero, which the comparison ignores, so every bit equals the
    scalar rule's.
    """
    a = r1 * PsoConfig.c1
    b = r2 * PsoConfig.c2
    return [1 if s + 0.5 >= 1.0 else 0
            for s in (0.0, b, a, a + b, omega, omega + b, omega + a, omega + a + b)]


def velocity_update(p: Particle, gbest_position: list[int], omega: float,
                    r1: float, r2: float) -> list[int]:
    """New binary velocity from inertia plus pbest/gbest agreement pulls."""
    position = p.position
    n = len(position)
    if len(p.velocity) != n or len(p.pbest_position) != n or len(gbest_position) != n:
        raise ValueError(f"velocity, pbest and gbest of lengths {len(p.velocity)}, "
                         f"{len(p.pbest_position)} and {len(gbest_position)} for "
                         f"position of length {n}")
    table = velocity_table(omega, r1, r2)
    return [table[4 * v + 2 * (b == x) + (g == x)]
            for x, v, b, g in zip(position, p.velocity, p.pbest_position, gbest_position)]


def index_maps(candidate_lists: list[list[int]]) -> list[dict[int, int]]:
    """Per candidate list, each node's index in it; the lists hold distinct
    nodes."""
    return [{c: i for i, c in enumerate(cands)} for cands in candidate_lists]


def draw_injective(out: list[int], keep: list[int], candidate_lists: list[list[int]],
                   maps: list[dict[int, int]], used: set[int], rng) -> list[int] | None:
    """The one exclude-and-draw loop: re-draw each component k of ``out``
    whose ``keep[k]`` is 0, in ascending order, from candidate list k less
    ``used``; ``out``, or None at a dead end (an empty pool).

    The pool is never built: ``maps[k]`` gives each node's index in list k,
    so the used nodes in the list are a few indices, the hits.  The draw
    ``j = rng.integers(len(list) - len(hit))``, stepped past each hit index
    ``<= j`` in ascending order, is the index in list k of the j-th node of
    the filtered list: the pick ``pool[rng.integers(len(pool))]`` of the
    filtered pool, from the same one call.  The pick joins ``used``.
    """
    for k, v in enumerate(keep):
        if v:
            continue
        cands = candidate_lists[k]
        at = maps[k]
        hit = [at[c] for c in used if c in at]
        free = len(cands) - len(hit)
        if not free:
            return None
        j = rng.integers(free)
        if hit:
            hit.sort()
            for h in hit:
                if h > j:
                    break
                j += 1
        pick = cands[j]
        out[k] = pick
        used.add(pick)
    return out


def position_update(p: Particle, v_new: list[int], candidate_lists: list[list[int]],
                    maps: list[dict[int, int]], rng) -> list[int]:
    """Keep components with velocity 1; re-draw the rest injectively.

    ``draw_injective`` re-draws them with every kept node already used.  A
    dead end triggers a full re-randomization of the particle, so the update
    never fails.  The result is a new list and ``p``'s lists are left as
    they are, so ``swarm_search`` shares one list between a position and
    the bests it becomes.
    """
    position = p.position
    if len(v_new) != len(position):
        raise ValueError(f"velocity of length {len(v_new)} for position of "
                         f"length {len(position)}")
    out = draw_injective(list(position), v_new, candidate_lists, maps,
                         set(compress(position, v_new)), rng)
    return random_injective(candidate_lists, maps, rng) if out is None else out


def sample_injective(candidate_lists: list[list[int]], maps: list[dict[int, int]],
                     rng) -> list[int] | None:
    """One pass of uniform draws, one pick per candidate list in order, each
    excluding the earlier picks; None as soon as some pool empties."""
    n = len(candidate_lists)
    return draw_injective([0] * n, [0] * n, candidate_lists, maps, set(), rng)


def random_injective(candidate_lists: list[list[int]], maps: list[dict[int, int]],
                     rng) -> list[int]:
    """Uniform injective sample, one pick per candidate list.

    Rejection-samples dead ends; after RANDOM_INJECTIVE_TRIES passes it falls
    back to the deterministic matching so the call stays total whenever any
    injective assignment exists at all.
    """
    for _ in range(RANDOM_INJECTIVE_TRIES):
        out = sample_injective(candidate_lists, maps, rng)
        if out is not None:
            return out
    matched = injective_assignment(candidate_lists)
    if matched is None:
        raise EmbeddingInfeasible("candidate sets admit no injective assignment")
    return matched


def request_candidates(vnr: VirtualNetworkRequest, net: SubstrateNetwork) -> list[list[int]]:
    """``candidate_nodes`` of each virtual node in ascending id order: the
    one candidate filter of a search.  Raises EmbeddingInfeasible naming
    the first virtual node with no candidate."""
    candidate_lists = []
    for vid in sorted(vnr.nodes):
        cands = candidate_nodes(vnr.nodes[vid], net)
        if not cands:
            raise EmbeddingInfeasible(f"request {vnr.id}: virtual node {vid} has no candidate "
                                      f"substrate node")
        candidate_lists.append(cands)
    return candidate_lists


def injective_assignment(candidate_lists: list[list[int]]) -> list[int] | None:
    """One injective assignment via augmenting paths, or None if impossible.

    Each virtual node in turn searches depth first for an augmenting path,
    trying candidates in list order and, at a candidate another node owns,
    that owner's untried candidates first.  The path is an explicit stack of
    (virtual node, its candidate iterator) frames, so its length is bounded
    by memory, not by the interpreter's recursion limit.
    """
    owner: dict[int, int] = {}
    for k in range(len(candidate_lists)):
        seen: set[int] = set()
        stack = [(k, iter(candidate_lists[k]))]
        path: list[int] = []  # path[i]: the candidate stack[i] is trying
        while stack:
            c = next((c for c in stack[-1][1] if c not in seen), None)
            if c is None:
                # Every candidate of the top node failed: its parent moves on.
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(c)
            path.append(c)
            if c not in owner:
                for (j, _), taken in zip(stack, path):
                    owner[taken] = j
                break
            stack.append((owner[c], iter(candidate_lists[owner[c]])))
        else:
            return None
    position = [0] * len(candidate_lists)
    for c, k in owner.items():
        position[k] = c
    return position


@dataclass(slots=True)
class EvaluationPlan:
    """What a search scores positions against, derived once per search
    (see the module docstring)."""

    vnr: VirtualNetworkRequest
    net: SubstrateNetwork
    vnode_order: list[int]
    cpu_total: int
    # (index of u, index of v, bw demand) per virtual link, in routing order
    links: list[tuple[int, int, int]]
    bw_slack: bool
    # Without slack, per domain, the summed residual of the inter-domain
    # links that touch it; None under slack.
    cut: list[int] | None
    # No position costs less: the search stops once gbest meets it, and
    # INFEASIBLE (the cost bound's or the request's domain cut's) proves
    # that no position routes.
    bound: float


def cost_bound(links: list[tuple[int, int, int]], cpu_total: int,
               candidate_lists: list[list[int]], net: SubstrateNetwork,
               masks: dict[int, list[int]] | None) -> float:
    """A lower bound on the fitness of every position drawn from the
    candidate lists: ``cpu_total`` plus, per virtual link of demand d, d
    times the hop count between the two candidate sets over the links with
    residual >= d (``masks[d]``, as the mask store holds them; the whole
    topology when ``masks`` is None), at least 1; INFEASIBLE when those
    links join no pair of them.

    The hosts of a link are distinct, and debits only shrink the usable
    subgraph, so no routed path is shorter than this hop count and every
    position costs at least the bound.
    """
    rank = net.rank
    cand_masks = [sum(1 << rank[c] for c in cands) for cands in candidate_lists]
    bound = cpu_total
    for iu, iv, bw in links:
        near = cand_masks[iv]
        levels = bfs_levels(cand_masks[iu], net.adj_masks if masks is None else masks[bw],
                            near)
        if not levels[-1] & near:
            return INFEASIBLE
        bound += bw * max(1, len(levels) - 1)
    return float(bound)


def request_cut(links: list[tuple[int, int, int]], domains: list[set[int]], domain: int,
                threshold: int, limit: float = INFEASIBLE) -> int:
    """The least demand, over the virtual links of demand >= ``threshold``,
    crossing ``domain``'s border in any placement whose virtual node k lies
    in one of ``domains[k]``; a value above ``limit`` once the count passes
    it.

    The virtual nodes whose domains are only ``domain`` lie inside, those
    without it outside, and the rest on either side, so the least crossing
    demand is a minimum cut between the first two sets, each link an
    undirected edge of capacity its demand.  By max-flow min-cut it is the
    flow that shortest augmenting paths (Edmonds-Karp) find: O(V E^2) steps
    whatever the demands, and no side assignment is enumerated.
    """
    source = [k for k, ds in enumerate(domains) if ds == {domain}]
    sink = {k for k, ds in enumerate(domains) if domain not in ds}
    room: dict[int, dict[int, int]] = {k: {} for k in range(len(domains))}
    for iu, iv, bw in links:
        if bw >= threshold:
            room[iu][iv] = room[iv][iu] = bw
    flow = 0
    while flow <= limit:
        parent = dict.fromkeys(source)
        queue = list(source)
        for a in queue:
            for b, c in room[a].items():
                if c and b not in parent:
                    parent[b] = a
                    queue.append(b)
        end = next((k for k in queue if k in sink), None)
        if end is None:
            break
        path = []
        while parent[end] is not None:
            path.append((parent[end], end))
            end = parent[end]
        push = min(room[a][b] for a, b in path)
        for a, b in path:
            room[a][b] -= push
            room[b][a] += push
        flow += push
    return flow


def cut_proves_infeasible(links: list[tuple[int, int, int]],
                          candidate_lists: list[list[int]], net: SubstrateNetwork) -> bool:
    """True when, for some domain D and some demand t of the request, the
    least demand of the virtual links of demand >= t that must cross D's
    border (``request_cut``, over the domains of each candidate list)
    exceeds the summed residual of D's inter-domain links with residual
    >= t.

    A virtual link of demand b >= t routed across the border leaves D over
    one of those links, which then holds b >= t, and the debits on a link
    total at most its residual, which debits only shrink: no placement the
    candidate lists allow routes.  Only a domain that holds every candidate
    of some virtual node can have a virtual node inside for sure, so only
    such domains are tried.  Cutting those virtual nodes off is one cut, so
    a (D, t) where the demand of the links leaving them fits under the
    residual is skipped without a flow.
    """
    nodes = net.nodes
    domains = [{nodes[c].domain for c in cands} for cands in candidate_lists]
    held: dict[int, list[int]] = {min(ds): [] for ds in domains if len(ds) == 1}
    for l in net.inter_links:
        for d in (nodes[l.u].domain, nodes[l.v].domain):
            if d in held:
                held[d].append(l.bw_residual)
    thresholds = {bw for _, _, bw in links}
    for d, residuals in held.items():
        inside = {k for k, ds in enumerate(domains) if ds == {d}}
        for t in thresholds:
            capacity = sum(r for r in residuals if r >= t)
            leaving = sum(bw for iu, iv, bw in links
                          if bw >= t and (iu in inside) != (iv in inside))
            if leaving > capacity and request_cut(links, domains, d, t, capacity) > capacity:
                return True
    return False


def evaluation_plan(vnr: VirtualNetworkRequest, net: SubstrateNetwork,
                    candidate_lists: list[list[int]]) -> EvaluationPlan:
    """The plan of a search of ``vnr`` over ``net``, with one candidate list
    per virtual node in ascending id order.

    Bandwidth slack holds when the request's total demand is at most every
    substrate link's residual; only without it does the mask store get the
    request's demands, are the domain cuts built and the bound taken over
    the stored masks, and is a finite bound made INFEASIBLE when
    ``cut_proves_infeasible``.
    """
    vnode_order = sorted(vnr.nodes)
    index = {vid: i for i, vid in enumerate(vnode_order)}
    links = [(index[l.u], index[l.v], l.bw_demand) for l in vnr.routing_order]
    bw_total = vnr.bw_total
    bw_slack = all(l.bw_residual >= bw_total for l in net.links.values())
    masks = cut = None
    if not bw_slack:
        masks = stored_masks([bw for _, _, bw in links], net)
        nodes = net.nodes
        cut = [0] * net.domain_count
        for l in net.inter_links:
            cut[nodes[l.u].domain] += l.bw_residual
            cut[nodes[l.v].domain] += l.bw_residual
    bound = cost_bound(links, vnr.cpu_total, candidate_lists, net, masks)
    if not bw_slack and bound < INFEASIBLE and cut_proves_infeasible(links, candidate_lists, net):
        bound = INFEASIBLE
    return EvaluationPlan(vnr, net, vnode_order, vnr.cpu_total, links, bw_slack, cut, bound)


def hop_sum(position: list[int], plan: EvaluationPlan) -> float:
    """``cpu_total`` plus each virtual link's demand times the topology hop
    distance between its hosts, read from the rows of the hop-distance
    table (``hop_distances`` only fills a missing row); INFEASIBLE when the
    topology does not join some link's hosts or they coincide, since then no
    route joins them."""
    net = plan.net
    rows = net.hop_dist
    total = plan.cpu_total
    for iu, iv, bw in plan.links:
        # A row always holds its destination, so only a missing row is empty.
        dst = position[iv]
        row = rows.get(dst) or hop_distances(dst, net)
        # None: the topology does not join the hosts; 0: they coincide.
        hops = row.get(position[iu])
        if not hops:
            return INFEASIBLE
        total += bw * hops
    return float(total)


def fitness(position: list[int], plan: EvaluationPlan,
            cutoff: float = INFEASIBLE) -> float:
    """Embedding cost of a position; +inf when its links cannot be routed.

    Under bandwidth slack the cost is the hop sum, with no paths routed.
    Otherwise a position a domain cut proves unroutable is +inf without
    routing; a position whose hop sum is at least ``cutoff`` returns that
    sum, a lower bound on its cost (or an exact +inf), without routing; the
    rest are routed (see the module docstring).
    """
    if plan.bw_slack:
        return hop_sum(position, plan)
    nodes = plan.net.nodes
    cut = plan.cut
    need = [0] * len(cut)
    for iu, iv, bw in plan.links:
        du, dv = nodes[position[iu]].domain, nodes[position[iv]].domain
        if du != dv:
            need[du] += bw
            need[dv] += bw
            if need[du] > cut[du] or need[dv] > cut[dv]:
                return INFEASIBLE
    if cutoff < INFEASIBLE:
        total = hop_sum(position, plan)
        if total >= cutoff:
            return total
    try:
        _, bw_cost = route_all_links(plan.vnr, dict(zip(plan.vnode_order, position)), plan.net)
    except EmbeddingInfeasible:
        return INFEASIBLE
    return float(plan.cpu_total + bw_cost)


def _inertia(iteration: int) -> float:
    frac = iteration / (PsoConfig.iterations - 1)
    return PsoConfig.inertia_max - (PsoConfig.inertia_max - PsoConfig.inertia_min) * frac


def swarm_search(vnr: VirtualNetworkRequest, net: SubstrateNetwork,
                 cfg: PsoConfig) -> SwarmResult:
    """Run the swarm and return the best assignment found.

    Particle 0 is seeded from the deterministic priority mapping when that is
    feasible; the rest start as uniform injective samples.  The search stops
    before any iteration that finds gbest at the plan's bound, skips the
    update of a particle held on its pbest, whose all-ones velocity stays
    all ones, or whose new velocity is all ones, and passes each evaluation
    the particle's pbest as the cutoff;
    all of these leave every result and every draw that reaches one
    unchanged (module docstring).  Raises
    EmbeddingInfeasible when some virtual node has no candidate at all, no
    injective assignment exists, or the plan's bound proves that no
    position can be routed.
    """
    candidate_lists = request_candidates(vnr, net)
    if injective_assignment(candidate_lists) is None:
        raise EmbeddingInfeasible(f"request {vnr.id}: candidate sets admit no injective "
                                  f"assignment")

    plan = evaluation_plan(vnr, net, candidate_lists)
    if plan.bound == INFEASIBLE:
        raise EmbeddingInfeasible(f"request {vnr.id}: no placement its candidate lists allow "
                                  f"can carry its virtual links' demand in residual")
    vnode_order = plan.vnode_order
    maps = index_maps(candidate_lists)
    # The one all-ones velocity of the search: a particle holds it exactly
    # when a short-circuit or an all-ones update gave it.
    ones = [1] * len(vnode_order)

    draws = draws_from(cfg.seed)
    try:
        mapped = map_nodes(vnr, net, candidate_lists)
        seeded = [mapped[vid] for vid in vnode_order]
    except EmbeddingInfeasible:
        seeded = None

    particles: list[Particle] = []
    for i in range(PsoConfig.particle_count):
        if i == 0 and seeded is not None:
            position = seeded
        else:
            position = random_injective(candidate_lists, maps, draws)
        velocity = [draws.integers(2) for _ in position]
        f = fitness(position, plan)
        particles.append(Particle(position, velocity, position, f))

    # min keeps the first of equal bests, as strict improvement would.
    first = min(particles, key=lambda p: p.pbest_fitness)
    gbest_position, gbest_fitness = first.pbest_position, first.pbest_fitness
    history = [gbest_fitness]

    for it in range(PsoConfig.iterations):
        if gbest_fitness <= plan.bound:
            history.extend([gbest_fitness] * (PsoConfig.iterations - it))
            break
        omega = _inertia(it)
        # Entry 4 of velocity_table: when it is 1, all ones stay all ones.
        ones_stay = omega + 0.5 >= 1.0
        for p in particles:
            r1 = draws.random()
            r2 = draws.random()
            if r1 * PsoConfig.c1 + 0.5 >= 1.0 and p.position == p.pbest_position:
                # Every velocity bit is 1: the particle stays on its pbest.
                p.velocity = ones
                continue
            if ones_stay and p.velocity is ones:
                # The update would give all ones again and keep the position.
                continue
            v_new = velocity_update(p, gbest_position, omega, r1, r2)
            if 0 not in v_new:
                # The update keeps the position, whose fitness was seen.
                p.velocity = ones
                continue
            x_new = position_update(p, v_new, candidate_lists, maps, draws)
            f = fitness(x_new, plan, p.pbest_fitness)
            p.velocity = v_new
            p.position = x_new
            if p.pbest_fitness > f:
                p.pbest_fitness = f
                p.pbest_position = x_new
            if gbest_fitness > p.pbest_fitness:
                gbest_fitness = p.pbest_fitness
                gbest_position = p.pbest_position
        history.append(gbest_fitness)

    return SwarmResult(vnode_order, gbest_position, gbest_fitness, history)


def optimize(vnr: VirtualNetworkRequest, net: SubstrateNetwork, cfg: PsoConfig) -> Embedding:
    """Swarm-search the request and return the best placement found, routed.

    A pure placement function: the embedding carries no prices, which
    ``simulation.run`` sets on its record.  Raises EmbeddingInfeasible when
    no particle found a routable assignment.
    """
    result = swarm_search(vnr, net, cfg)
    if result.fitness == INFEASIBLE:
        raise EmbeddingInfeasible(f"request {vnr.id}: no particle found a routable "
                                  f"embedding")
    return build_embedding(vnr, result.assignment, net)
