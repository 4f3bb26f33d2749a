"""Per-layer timing for the traced benchmark run.

A `Tracer` replaces the public functions of each secvne module with timing
wrappers, at every name the library looks them up under (a function imported
into another module is a separate binding, so `secvne.pso.route_all_links`
and `secvne.routing.route_all_links` are patched one by one).  Nothing under
`src/` changes and the wrappers return what the wrapped function returns, so
a traced run writes byte-identical outputs.

Calls made once per event or less often ("span" sites) are kept as one span
each: name, start, end, enclosing span and request id.  The hot leaves
(`route_link`, the swarm operators, candidate filtering), which run 1e5-1e6
times per run, are summed per (request id, name) instead.  Both are kept in
memory and written when the run ends.

A layer's self time is its calls' duration minus the time spent in calls of
other layers beneath them, so `pso.search` self time excludes routing and
candidate filtering but keeps the swarm operators.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _is_inf(value) -> int:
    return 1 if value == math.inf else 0


def _is_true(value) -> int:
    return 1 if value else 0


def _count(value) -> int:
    return len(value)


def _req_vnr(args) -> int:
    return args[1].id


def _req_embedding(args) -> int:
    return args[1].vnr.id


# (module, attribute, span name, layer, kind, tally of the result, request id
# of the call or None to inherit the caller's).  The three simulation names
# sit in different layers so that the loop's self time excludes the strategy
# and the audit.
SITES = (
    ("secvne.simulation", "run", "simulation.run", "simulation", "span", None, None),
    ("secvne.simulation", "audit_residuals", "simulation.audit", "audit", "span", None, None),
    ("secvne.simulation", "optimize", "pso.search", "pso", "span", None, None),
    ("secvne.simulation", "greedy_embed", "baselines.greedy", "baselines", "span", None, None),
    ("secvne.simulation", "validate_embedding", "validation.validate", "validation", "span",
     _count, _req_vnr),
    ("secvne.simulation", "allocate", "model.allocate", "model", "span", None, _req_embedding),
    ("secvne.simulation", "release", "model.release", "model", "span", None, _req_embedding),
    ("secvne.pso", "fitness", "pso.fitness", "pso", "leaf", _is_inf, None),
    ("secvne.pso", "velocity_update", "pso.velocity_update", "pso", "leaf", None, None),
    ("secvne.pso", "position_update", "pso.position_update", "pso", "leaf", None, None),
    ("secvne.pso", "random_injective", "pso.random_injective", "pso", "leaf", None, None),
    ("secvne.pso", "injective_assignment", "pso.injective_check", "pso", "leaf", None, None),
    ("secvne.pso", "map_nodes", "node_mapping.map_nodes", "node_mapping", "span", None, None),
    ("secvne.pso", "candidate_nodes", "node_mapping.candidate", "node_mapping", "leaf",
     None, None),
    ("secvne.baselines", "candidate_nodes", "node_mapping.candidate", "node_mapping", "leaf",
     None, None),
    ("secvne.node_mapping", "candidate_nodes", "node_mapping.candidate", "node_mapping",
     "leaf", None, None),
    ("secvne.pso", "route_all_links", "routing.route_all", "routing", "leaf", None, None),
    ("secvne.routing", "route_all_links", "routing.route_all", "routing", "leaf", None, None),
    ("secvne.pso", "build_embedding", "routing.build_embedding", "routing", "span", None, None),
    ("secvne.baselines", "build_embedding", "routing.build_embedding", "routing", "span",
     None, None),
    ("secvne.routing", "route_link", "routing.bfs", "routing", "leaf", None, None),
    # Private: a cached path that is still feasible is a routing cache hit.
    ("secvne.routing", "_path_feasible", "routing.cache_check", "routing", "leaf",
     _is_true, None),
    ("secvne.metrics", "windowed_series", "metrics.windowed", "metrics", "span", None, None),
    ("secvne.metrics", "cumulative_series", "metrics.cumulative", "metrics", "span", None, None),
    ("secvne.fileio", "write_trace", "fileio.write", "fileio", "span", None, None),
    ("secvne.fileio", "write_window_csv", "fileio.write", "fileio", "span", None, None),
    ("secvne.fileio", "write_cumulative_csv", "fileio.write", "fileio", "span", None, None),
    ("secvne.fileio", "save_substrate", "fileio.save", "fileio", "span", None, None),
    ("secvne.fileio", "save_workload", "fileio.save", "fileio", "span", None, None),
    ("secvne.fileio", "load_substrate", "fileio.load", "fileio", "span", None, None),
    ("secvne.fileio", "load_workload", "fileio.load", "fileio", "span", None, None),
    ("secvne.generate", "generate_substrate", "generate.substrate", "generate", "span",
     None, None),
    ("secvne.generate", "generate_vnr_stream", "generate.stream", "generate", "span",
     None, None),
)

# Frame slots: time spent beneath the frame in other layers, the frame's
# layer, the id of the nearest enclosing span, the request id.
_FOREIGN, _LAYER, _SPAN, _REQ = range(4)


class NameStats:
    """Totals over every call of one span name."""

    __slots__ = ("calls", "seconds", "self_seconds", "raised", "tally")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.raised = 0
        self.tally = 0


class Tracer:
    """Installs timing wrappers on the library and collects what they record."""

    def __init__(self):
        self.stats: dict[str, NameStats] = {}
        self.spans: list = []
        self.leaves: dict[tuple, list] = {}
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, layer: str, kind: str = "span", tally=None, req_of=None):
        """`fn` with a wrapper that records each call under `name`."""
        stats = self.stats.setdefault(name, NameStats())
        stack = self._stack
        spans = self.spans
        leaves = self.leaves
        is_span = kind == "span"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if req_of is not None:
                req = req_of(args)
            else:
                req = parent[_REQ] if parent is not None else None
            enclosing = parent[_SPAN] if parent is not None else -1
            if is_span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = enclosing
            frame = [0.0, layer, span_id, req]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            else:
                if tally is not None:
                    stats.tally += tally(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.seconds += duration
                stats.self_seconds += duration - frame[_FOREIGN]
                if parent is not None:
                    parent[_FOREIGN] += (frame[_FOREIGN] if parent[_LAYER] == layer
                                         else duration)
                if is_span:
                    spans[span_id] = (name, start, end, enclosing, req)
                else:
                    acc = leaves.get((req, name))
                    if acc is None:
                        leaves[(req, name)] = [1, duration]
                    else:
                        acc[0] += 1
                        acc[1] += duration

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block, then restore it.

        A site the library no longer has is skipped and its metrics read 0.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, attr, name, layer, kind, tally, req_of in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, layer, kind, tally, req_of))
            yield self
        finally:
            saved, self._saved = self._saved, []
            for module, attr, original in saved:
                setattr(module, attr, original)
            left = [f"{m.__name__}.{a}" for m, a, o in saved if getattr(m, a) is not o]
            if left:
                raise RuntimeError(f"wrappers left installed: {left}")

    def write(self, directory) -> None:
        """Write the spans and the per-request leaf totals as JSON lines."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.jsonl", "w") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "req": req}) + "\n")
        with open(directory / "leaves.jsonl", "w") as fh:
            for (req, name), (calls, seconds) in self.leaves.items():
                fh.write(json.dumps({"req": req, "name": name, "calls": calls,
                                     "seconds": seconds}) + "\n")


def per_layer_metrics(stats: dict[str, NameStats], particle_count: int) -> dict:
    """The per-layer metrics, name -> (value, unit), from the wrappers' totals.

    `pso.evals` counts the swarm's evaluation requests: one per particle when
    a search starts its swarm (each such search maps the priority seed once)
    plus one per position update.  Distinct positions reach `pso.fitness`.
    """
    def get(name: str) -> NameStats:
        return stats.get(name) or NameStats()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    bfs = get("routing.bfs")
    route_all = get("routing.route_all")
    links = bfs.calls + get("routing.cache_check").tally
    search = get("pso.search")
    fit = get("pso.fitness")
    evals = particle_count * get("node_mapping.map_nodes").calls + get("pso.position_update").calls
    cand = get("node_mapping.candidate")
    mapn = get("node_mapping.map_nodes")
    greedy = get("baselines.greedy")
    val = get("validation.validate")
    alloc = get("model.allocate")
    rel = get("model.release")
    run = get("simulation.run")
    embed = get("simulation.embed")
    audit = get("simulation.audit")
    return {
        "routing.bfs_calls": (bfs.calls, "count"),
        "routing.bfs_s": (bfs.seconds, "s"),
        "routing.bfs_failed": (bfs.raised, "count"),
        "routing.links_attempted": (links, "count"),
        "routing.bfs_per_link": (ratio(bfs.calls, links), "ratio"),
        "routing.route_all_calls": (route_all.calls, "count"),
        "routing.route_all_s": (route_all.seconds, "s"),
        "routing.route_all_failed": (route_all.raised, "count"),
        "routing.build_embedding_s": (get("routing.build_embedding").seconds, "s"),
        "pso.search_calls": (search.calls, "count"),
        "pso.search_s": (search.seconds, "s"),
        "pso.search_self_s": (search.self_seconds, "s"),
        "pso.evals": (evals, "count"),
        "pso.fitness_calls": (fit.calls, "count"),
        "pso.unique_eval_ratio": (ratio(fit.calls, evals), "ratio"),
        "pso.fitness_inf_ratio": (ratio(fit.tally, fit.calls), "ratio"),
        "pso.velocity_update_s": (get("pso.velocity_update").seconds, "s"),
        "pso.position_update_s": (get("pso.position_update").seconds, "s"),
        "pso.random_injective_calls": (get("pso.random_injective").calls, "count"),
        "pso.random_injective_s": (get("pso.random_injective").seconds, "s"),
        "pso.injective_check_s": (get("pso.injective_check").seconds, "s"),
        "node_mapping.candidate_calls": (cand.calls, "count"),
        "node_mapping.candidate_s": (cand.seconds, "s"),
        "node_mapping.map_nodes_calls": (mapn.calls, "count"),
        "node_mapping.map_nodes_s": (mapn.seconds, "s"),
        "node_mapping.map_nodes_failed": (mapn.raised, "count"),
        "baselines.greedy_calls": (greedy.calls, "count"),
        "baselines.greedy_s": (greedy.seconds, "s"),
        "baselines.greedy_self_s": (greedy.self_seconds, "s"),
        "validation.calls": (val.calls, "count"),
        "validation.s": (val.seconds, "s"),
        "validation.violations": (val.tally, "count"),
        "model.allocate_calls": (alloc.calls, "count"),
        "model.allocate_s": (alloc.seconds, "s"),
        "model.release_calls": (rel.calls, "count"),
        "model.release_s": (rel.seconds, "s"),
        "simulation.run_s": (run.seconds, "s"),
        "simulation.loop_self_s": (run.self_seconds, "s"),
        "simulation.embed_calls": (embed.calls, "count"),
        "simulation.embed_s": (embed.seconds, "s"),
        "simulation.rejected": (embed.raised, "count"),
        "simulation.audit_calls": (audit.calls, "count"),
        "simulation.audit_s": (audit.seconds, "s"),
        "metrics.windowed_s": (get("metrics.windowed").seconds, "s"),
        "metrics.cumulative_s": (get("metrics.cumulative").seconds, "s"),
        "fileio.write_s": (get("fileio.write").seconds, "s"),
        "generate.substrate_s": (get("generate.substrate").seconds, "s"),
        "generate.stream_s": (get("generate.stream").seconds, "s"),
        "fileio.save_s": (get("fileio.save").seconds, "s"),
        "fileio.load_s": (get("fileio.load").seconds, "s"),
    }
