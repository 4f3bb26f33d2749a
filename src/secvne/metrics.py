"""Windowed evaluation metrics: acceptance rate, revenue, cost, and their ratio.

Revenue weights a request's total CPU and bandwidth demand with the paper's
fixed ALPHA = BETA = 0.5.  Cost is the node demand plus each link's demand
multiplied by its path's hop count, so a placement that stretches its links
over more substrate hops costs more.  (Counting each link's demand once
would price every embedding of a request at exactly twice its revenue.)

``revenue`` and ``cost`` are the one pricing rule: strategies return unpriced
embeddings, and ``simulation.run`` prices each acceptance once, on its
record, which the series here and the trace writer read.

Window i is the half-open slice [i * width, min((i + 1) * width, horizon))
for every i with i * width < horizon.  Revenue and cost are counted once, at
acceptance time, in the window whose bounds contain the request's arrival.
A window with no arrivals yields ``None`` (no-sample) for its ratio metrics
rather than a fake zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Revenue weights of CPU and bandwidth demand.
ALPHA = 0.5
BETA = 0.5

# Most windows one series may have: a million take ~250 MiB (CPython 3.11).
MAX_WINDOWS = 10**6


@dataclass(slots=True)
class MetricWindow:
    t_start: float
    t_end: float
    arrived: int = 0
    accepted: int = 0
    revenue_sum: float = 0.0
    cost_sum: float = 0.0


@dataclass(slots=True)
class WindowRow:
    window: MetricWindow
    acceptance: float | None
    avg_revenue: float
    avg_cost: float
    rc_ratio: float | None


@dataclass(slots=True)
class CumulativeRow:
    t_end: float
    arrived: int
    accepted: int
    acceptance: float | None
    revenue: float
    cost: float
    rc_ratio: float | None


def acceptance_rate(window: MetricWindow) -> float | None:
    """Accepted / arrived; None when the window saw no arrivals."""
    if window.arrived == 0:
        return None
    return window.accepted / window.arrived


def revenue(vnr) -> float:
    """Weighted demand served by one request: ALPHA * cpu + BETA * bandwidth."""
    return ALPHA * vnr.cpu_total + BETA * vnr.bw_total


def cost(emb) -> float:
    """CPU demand plus each link's bandwidth demand times its path's hops."""
    bw = 0
    for vkey, path in emb.link_map.items():
        bw += emb.vnr.links[vkey].bw_demand * (len(path) - 1)
    return float(emb.vnr.cpu_total + bw)


def check_window_count(horizon: float, width: float) -> None:
    """Raise ValueError unless width is positive and a series over horizon
    has at most MAX_WINDOWS windows, i.e. ceil(horizon / width) <= MAX_WINDOWS."""
    if width <= 0:
        raise ValueError("window width must be positive")
    count = horizon / width
    if not count <= MAX_WINDOWS:
        if math.isfinite(count):
            count = math.ceil(count)
        raise ValueError(f"horizon {horizon} in windows of width {width} gives "
                         f"{count} windows, more than the {MAX_WINDOWS} allowed")


def _filled_windows(trace, width: float) -> list[MetricWindow]:
    """The windows over ``trace.horizon`` with each arrival counted and each
    acceptance's price added in the window that contains its time."""
    horizon = trace.horizon
    check_window_count(horizon, width)
    windows = []
    i = 0
    while i * width < horizon:
        windows.append(MetricWindow(i * width, min((i + 1) * width, horizon)))
        i += 1
    last = len(windows) - 1
    for rec in trace.records:
        t = rec.time
        if rec.kind != "arrival" or t >= horizon:
            continue
        # t // width is the exact floor of the quotient, so window idx starts
        # at or before t; its end, (idx + 1) * width rounded, can still be <= t.
        idx = int(t // width)
        if idx < last and t >= windows[idx + 1].t_start:
            idx += 1
        w = windows[idx]
        w.arrived += 1
        if rec.outcome == "accepted":
            w.accepted += 1
            w.revenue_sum += rec.revenue
            w.cost_sum += rec.cost
    return windows


def windowed_series(trace, window_width: float) -> list[WindowRow]:
    """Per-window acceptance, unit revenue, unit cost, and revenue/cost ratio.

    ``trace`` must expose ``horizon`` and chronological ``records``; accepted
    arrival records carry their ``revenue`` and ``cost``.
    """
    rows = []
    for w in _filled_windows(trace, window_width):
        span = w.t_end - w.t_start
        avg_rev = w.revenue_sum / span
        avg_cost = w.cost_sum / span
        rc = avg_rev / avg_cost if avg_cost > 0 else None
        rows.append(WindowRow(w, acceptance_rate(w), avg_rev, avg_cost, rc))
    return rows


def cumulative_series(trace, window_width: float) -> list[CumulativeRow]:
    """Running totals over the windowed series' windows, one row per window."""
    rows = []
    arrived = accepted = 0
    rev = cst = 0.0
    for w in _filled_windows(trace, window_width):
        arrived += w.arrived
        accepted += w.accepted
        rev += w.revenue_sum
        cst += w.cost_sum
        acc = accepted / arrived if arrived else None
        rc = rev / cst if cst > 0 else None
        rows.append(CumulativeRow(w.t_end, arrived, accepted, acc, rev, cst, rc))
    return rows


def steady_state_means(rows: list[WindowRow], warmup_t: float) -> dict[str, float | None]:
    """Mean of each per-window metric over windows starting at or after warmup_t.

    No-sample windows are skipped per metric; a metric with no sampled window
    at all comes back as None.
    """
    def mean_of(values):
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else None

    tail = [r for r in rows if r.window.t_start >= warmup_t]
    return {
        "acceptance": mean_of(r.acceptance for r in tail),
        "avg_revenue": mean_of(r.avg_revenue for r in tail),
        "avg_cost": mean_of(r.avg_cost for r in tail),
        "rc_ratio": mean_of(r.rc_ratio for r in tail),
    }
