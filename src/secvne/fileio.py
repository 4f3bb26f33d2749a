"""On-disk formats: substrate/workload JSON, trace NDJSON, metric CSV.

Field names are pinned for cross-implementation compatibility:

    substrate   one JSON document, one node/link object per line;
                nodes carry (id, domain, cpu, ssl, ssd), links (u, v, bw);
                `cpu` and `bw` are capacities - files describe fresh networks
    workload    newline-delimited JSON: a header {"horizon", "vnr_count"}
                followed by one request per line with (id, arrival_time,
                lifetime, nodes[(id, cpu, vsd, vsl, cd)], links[(u, v, bw)])
    trace       newline-delimited JSON, one event per line with
                (time, kind, vnr_id, outcome, revenue, cost); revenue and
                cost are the prices each accepted record was given when it
                was made (null for other records)
    window CSV  header t_start,t_end,arrived,accepted,acceptance,avg_revenue,
                avg_cost,rc_ratio; no-sample cells are left empty
    cumulative  header t_end,arrived,accepted,acceptance,revenue,cost,
    CSV         rc_ratio, the same cells

Every CSV, ``compare``'s tables included, goes through ``write_csv``: one
header line, then one line per row whose cells ``format_cell`` writes.

Every id, capacity, demand, security level and domain in the substrate and
workload files is read through ``read_int``: a JSON integer, never a
boolean, a fraction or a string, and non-negative (``domain_count`` at
least 1), and every time through ``read_number``: a finite JSON number,
never a boolean or a string.  Every domain a substrate declares holds a
node, is connected and holds a boundary node, all checked by
``model.compute_boundary_hops``.
A workload's horizon is positive, its header's ``vnr_count`` is the number
of request lines, its request ids are distinct, and ``VirtualNetworkRequest``
checks that each request has a virtual node, each node a candidate domain,
and each virtual link appears once (``u, v`` and ``v, u`` name the same
link).  A generator config names only ``GeneratorConfig`` fields, and
``GeneratorConfig.validate`` checks their types and values.  No object of a
substrate file, a generator config or a workload header repeats a key
(``_unique_keys``); request lines are parsed without that check, which would
cost a measurable share of a large workload's load time.  A malformed
file raises ``InvalidConfig``.

All writers go through an atomic replace so a crashed run never leaves a
truncated file behind, and all output is byte-deterministic.  Every file is
read and written as UTF-8, and every line ends in ``"\n"``, whatever the
host's locale or platform, so the same inputs give the same bytes on every
host.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path

from .errors import InvalidConfig
from .generate import RANGE_FIELDS, GeneratorConfig
from .model import (
    SubstrateLink,
    SubstrateNetwork,
    SubstrateNode,
    VirtualLink,
    VirtualNetworkRequest,
    VirtualNode,
    compute_boundary_hops,
)

WINDOW_CSV_HEADER = "t_start,t_end,arrived,accepted,acceptance,avg_revenue,avg_cost,rc_ratio"
CUMULATIVE_CSV_HEADER = "t_end,arrived,accepted,acceptance,revenue,cost,rc_ratio"


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_int(value, name: str, lo: int = 0) -> int:
    """``value``, read from a file field ``name``, as an integer of at least
    ``lo``; else ValueError.

    JSON booleans and numbers with a fraction are rejected, not coerced:
    Python reads ``true`` as 1 (``bool`` is a subclass of ``int``, hence the
    exact type test), and residual bookkeeping needs exact integers.
    """
    if type(value) is not int or value < lo:
        bound = "a non-negative integer" if lo == 0 else f"an integer >= {lo}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return value


def read_number(value, name: str) -> float:
    """``value``, read from a file field ``name``, as a finite number; else
    ValueError.  A type test like ``read_int``: ``true`` and ``"1500"`` are
    rejected, not coerced."""
    if type(value) not in (float, int) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for ``json.loads``: the object's pairs as a
    dict, or ValueError naming a key the object repeats, which plain
    ``json.loads`` would resolve silently to its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def format_cell(value) -> str:
    """One CSV cell: empty for no-sample, repr for floats (round-trips)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# -- substrate -----------------------------------------------------------

def save_substrate(net: SubstrateNetwork, path) -> None:
    lines = ["{", f'"domain_count": {net.domain_count},', '"nodes": [']
    node_lines = []
    for nid in sorted(net.nodes):
        n = net.nodes[nid]
        node_lines.append(json.dumps({"id": n.id, "domain": n.domain, "cpu": n.cpu_capacity,
                                      "ssl": n.ssl, "ssd": n.ssd}))
    lines.append(",\n".join(node_lines))
    lines.append('],')
    lines.append('"links": [')
    link_lines = []
    for k in sorted(net.links):
        l = net.links[k]
        link_lines.append(json.dumps({"u": l.u, "v": l.v, "bw": l.bw_capacity}))
    lines.append(",\n".join(link_lines))
    lines.append(']')
    lines.append("}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_substrate(path) -> SubstrateNetwork:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot read substrate file {path}: {exc}") from exc
    try:
        nodes = []
        for n in doc["nodes"]:
            cpu = read_int(n["cpu"], "substrate node cpu")
            nodes.append(SubstrateNode(read_int(n["id"], "substrate node id"),
                                       read_int(n["domain"], "substrate node domain"), cpu, cpu,
                                       read_int(n["ssl"], "substrate node ssl"),
                                       read_int(n["ssd"], "substrate node ssd")))
        links = []
        for l in doc["links"]:
            bw = read_int(l["bw"], "substrate link bw")
            links.append(SubstrateLink(read_int(l["u"], "substrate link u"),
                                       read_int(l["v"], "substrate link v"), bw, bw))
        net = SubstrateNetwork(read_int(doc["domain_count"], "domain_count", lo=1), nodes, links)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"malformed substrate file {path}: {exc}") from exc
    try:
        compute_boundary_hops(net)
    except ValueError as exc:
        raise InvalidConfig(f"substrate file {path}: {exc}") from exc
    return net


# -- workload ------------------------------------------------------------

def save_workload(vnrs, horizon: float, path) -> None:
    lines = [json.dumps({"horizon": horizon, "vnr_count": len(vnrs)})]
    for vnr in vnrs:
        lines.append(json.dumps({
            "id": vnr.id,
            "arrival_time": vnr.arrival_time,
            "lifetime": vnr.lifetime,
            "nodes": [{"id": n.id, "cpu": n.cpu_demand, "vsd": n.vsd, "vsl": n.vsl,
                       "cd": sorted(n.cd)} for n in
                      (vnr.nodes[i] for i in sorted(vnr.nodes))],
            "links": [{"u": k[0], "v": k[1], "bw": vnr.links[k].bw_demand}
                      for k in sorted(vnr.links)],
        }))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_request(doc: dict) -> VirtualNetworkRequest:
    """One workload line's request; KeyError, TypeError or ValueError when
    the line is malformed."""
    nodes = [VirtualNode(read_int(n["id"], "virtual node id"),
                         read_int(n["cpu"], "virtual node cpu"),
                         read_int(n["vsd"], "virtual node vsd"),
                         read_int(n["vsl"], "virtual node vsl"),
                         frozenset([read_int(d, "candidate domain") for d in n["cd"]]))
             for n in doc["nodes"]]
    links = [VirtualLink(read_int(l["u"], "virtual link u"), read_int(l["v"], "virtual link v"),
                         read_int(l["bw"], "virtual link bw"))
             for l in doc["links"]]
    return VirtualNetworkRequest(read_int(doc["id"], "request id"), nodes, links,
                                 read_number(doc["arrival_time"], "arrival_time"),
                                 read_number(doc["lifetime"], "lifetime"))


def load_workload(path) -> tuple[list[VirtualNetworkRequest], float]:
    try:
        # newline="" keeps a raw "\r", which JSON allows as whitespace,
        # inside its line: only "\n" ends a line below.
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot read workload file {path}: {exc}") from exc
    if not text:
        raise InvalidConfig(f"workload file {path} is empty")
    # Only "\n" ends a line: str.splitlines would also split inside a JSON
    # string that holds U+2028, U+2029 or U+0085, which JSON allows raw.
    lines = text.split("\n")
    try:
        header = json.loads(lines[0], object_pairs_hook=_unique_keys)
        horizon = float(read_number(header["horizon"], "horizon"))
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        count = read_int(header["vnr_count"], "vnr_count")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"malformed workload file {path}, line 1: {exc}") from exc
    vnrs = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        # Blank means JSON whitespace alone; any other character goes to the
        # parser, which names the line if it is not JSON.
        if not line.strip(" \t\r"):
            continue
        try:
            vnr = _read_request(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"malformed workload file {path}, line {lineno}: {exc}") from exc
        if vnr.id in seen:
            raise InvalidConfig(f"workload file {path}, line {lineno}: duplicate request id "
                                f"{vnr.id}")
        seen.add(vnr.id)
        vnrs.append(vnr)
    if len(vnrs) != count:
        raise InvalidConfig(f"workload file {path}: the header's vnr_count is {count} but "
                            f"{len(vnrs)} requests follow it")
    return vnrs, horizon


# -- generator config ----------------------------------------------------

def config_from_dict(doc: dict) -> GeneratorConfig:
    """The config a JSON object describes.  JSON lists of the range fields
    become tuples, so a loaded config equals one written out in code;
    ``validate`` types and bounds every value."""
    known = {f.name for f in dataclasses.fields(GeneratorConfig)}
    for key in doc:
        if key not in known:
            raise InvalidConfig(f"unknown config key {key!r}")
    kwargs = {key: tuple(value) if key in RANGE_FIELDS and isinstance(value, list) else value
              for key, value in doc.items()}
    cfg = GeneratorConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path) -> GeneratorConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidConfig(f"config file {path} must hold a JSON object")
    return config_from_dict(doc)


def save_config(cfg: GeneratorConfig, path) -> None:
    atomic_write_text(path, json.dumps(dataclasses.asdict(cfg), indent=2) + "\n")


# -- traces and metric series --------------------------------------------

def write_trace(trace, path) -> None:
    """One line per record; accepted arrivals carry their revenue and cost."""
    lines = [json.dumps({"time": rec.time, "kind": rec.kind, "vnr_id": rec.vnr_id,
                         "outcome": rec.outcome, "revenue": rec.revenue, "cost": rec.cost})
             for rec in trace.records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_csv(header: str, rows, path) -> list[str]:
    """The one CSV writer: ``header``, then one line of ``format_cell``
    cells per row of ``rows``; returns the lines written."""
    lines = [header] + [",".join(format_cell(c) for c in cells) for cells in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")
    return lines


def write_window_csv(rows, path) -> None:
    write_csv(WINDOW_CSV_HEADER,
              ((r.window.t_start, r.window.t_end, r.window.arrived, r.window.accepted,
                r.acceptance, r.avg_revenue, r.avg_cost, r.rc_ratio) for r in rows), path)


def write_cumulative_csv(rows, path) -> None:
    write_csv(CUMULATIVE_CSV_HEADER,
              ((r.t_end, r.arrived, r.accepted, r.acceptance, r.revenue, r.cost, r.rc_ratio)
               for r in rows), path)
