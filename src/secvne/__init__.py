"""Security-aware virtual network embedding on multi-domain edge substrates.

The package provides the full pipeline: seeded instance generation, priority
node mapping, bandwidth-constrained path routing, a discrete particle swarm
search over whole placements, windowed evaluation metrics, and a
deterministic discrete-event simulator with greedy/random baselines.
"""

from .baselines import greedy_embed, random_embed
from .errors import EmbeddingInfeasible, InternalConsistencyError, InvalidConfig, SecVneError
from .generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from .metrics import (
    MetricWindow,
    acceptance_rate,
    cost,
    cumulative_series,
    revenue,
    steady_state_means,
    windowed_series,
)
from .model import (
    Embedding,
    SubstrateLink,
    SubstrateNetwork,
    SubstrateNode,
    VirtualLink,
    VirtualNetworkRequest,
    VirtualNode,
    allocate,
    link_key,
    release,
)
from .node_mapping import (
    candidate_nodes,
    candidate_scores,
    map_nodes,
    virtual_node_priority,
)
from .pso import (
    Particle,
    PsoConfig,
    evaluation_plan,
    fitness,
    optimize,
    position_update,
    request_candidates,
    swarm_search,
    velocity_update,
)
from .routing import build_embedding, route_all_links, route_link, usable_masks
from .simulation import (
    STRATEGY_NAMES,
    EventRecord,
    SimulationTrace,
    Strategy,
    audit_residuals,
    compare,
    make_strategy,
    run,
)
from .validation import Violation, validate_embedding

__version__ = "0.1.0"
