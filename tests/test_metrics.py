"""Metric formulas and the windowed/cumulative aggregation."""

import itertools
import math
import random

import pytest

from secvne import metrics
from secvne.generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from secvne.metrics import (
    MetricWindow,
    acceptance_rate,
    cost,
    cumulative_series,
    revenue,
    steady_state_means,
    windowed_series,
)
from secvne.model import Embedding
from secvne.simulation import make_strategy, run

from conftest import make_vnr
from oracles import windowed_metrics_brute


class TestAcceptance:
    def test_basic_ratio(self):
        assert acceptance_rate(MetricWindow(0, 10, arrived=10, accepted=8)) == 0.8

    def test_empty_window_is_no_sample(self):
        assert acceptance_rate(MetricWindow(0, 10)) is None

    def test_full_acceptance(self):
        assert acceptance_rate(MetricWindow(0, 10, arrived=4, accepted=4)) == 1.0


class TestRevenue:
    def test_equal_weights(self):
        vnr = make_vnr([(0, 12, 0, 4, (0,)), (1, 8, 0, 4, (0,))], [(0, 1, 10)])
        assert revenue(vnr) == 15.0

    def test_zero_link_vnr(self):
        vnr = make_vnr([(0, 30, 0, 4, (0,))], [])
        assert revenue(vnr) == 15.0


class TestCost:
    def _embedding(self, path):
        vnr = make_vnr([(0, 12, 0, 4, (0,)), (1, 8, 0, 4, (0,))], [(0, 1, 10)])
        return Embedding(vnr, {0: path[0], 1: path[-1]}, {(0, 1): path})

    def test_one_hop_link_costs_its_demand_once(self):
        assert cost(self._embedding((0, 1))) == 30.0

    def test_three_hop_link_costs_its_demand_per_hop(self):
        assert cost(self._embedding((0, 1, 2, 3))) == 50.0

    def test_zero_link_vnr(self):
        vnr = make_vnr([(0, 25, 0, 4, (0,))], [])
        emb = Embedding(vnr, {0: 0}, {})
        assert cost(emb) == 25.0


class _FakeTrace:
    def __init__(self, horizon, records):
        self.horizon = horizon
        self.records = records


class _FakeRecord:
    """An arrival record, priced from `embedding` as ``simulation.run``
    prices an acceptance."""

    def __init__(self, time, outcome, embedding=None):
        self.time = time
        self.kind = "arrival"
        self.outcome = outcome
        self.revenue = None if embedding is None else revenue(embedding.vnr)
        self.cost = None if embedding is None else cost(embedding)


def _accepted(time, cpu, bw, hops):
    path = tuple(range(hops + 1))
    vnr = make_vnr([(0, cpu, 0, 4, (0,)), (1, 0, 0, 4, (0,))], [(0, 1, bw)])
    emb = Embedding(vnr, {0: 0, 1: hops}, {(0, 1): path})
    return _FakeRecord(time, "accepted", emb)


class TestWindowedSeries:
    def test_single_acceptance_unit_revenue(self):
        trace = _FakeTrace(10.0, [_accepted(1.0, 20, 10, 1)])
        rows = windowed_series(trace, 10.0)
        assert len(rows) == 1
        assert rows[0].avg_revenue == pytest.approx(1.5)

    def test_rc_ratio(self):
        trace = _FakeTrace(10.0, [_accepted(1.0, 20, 10, 1)])
        rows = windowed_series(trace, 10.0)
        assert rows[0].rc_ratio == pytest.approx(15.0 / 30.0)

    def test_empty_window_no_samples(self):
        trace = _FakeTrace(10.0, [])
        rows = windowed_series(trace, 5.0)
        assert len(rows) == 2
        for row in rows:
            assert row.acceptance is None
            assert row.rc_ratio is None
            assert row.avg_revenue == 0.0

    def test_rejected_arrivals_count_toward_acceptance_only(self):
        trace = _FakeTrace(10.0, [_accepted(1.0, 20, 10, 1), _FakeRecord(2.0, "rejected")])
        rows = windowed_series(trace, 10.0)
        assert rows[0].window.arrived == 2
        assert rows[0].window.accepted == 1
        assert rows[0].acceptance == 0.5

    def test_partial_last_window(self):
        trace = _FakeTrace(12.0, [_accepted(11.0, 10, 2, 1)])
        rows = windowed_series(trace, 5.0)
        assert [r.window.t_end for r in rows] == [5.0, 10.0, 12.0]
        assert rows[2].avg_revenue == pytest.approx(6.0 / 2.0)

    def test_cumulative_series_runs_totals(self):
        trace = _FakeTrace(10.0, [_accepted(1.0, 20, 10, 1), _accepted(7.0, 20, 10, 3)])
        rows = cumulative_series(trace, 5.0)
        assert rows[0].accepted == 1 and rows[1].accepted == 2
        assert rows[1].revenue == pytest.approx(30.0)
        assert rows[1].cost == pytest.approx(30.0 + 50.0)

    def test_window_grid_ends_at_the_horizon(self):
        # ceil(5418.42 / 2.91) = 1862 windows; summing 2.91 1862 times falls
        # short of the horizon and would leave a zero-revenue sliver window.
        trace = _FakeTrace(5418.42, [])
        expected = [(i * 2.91, min((i + 1) * 2.91, 5418.42)) for i in range(1862)]
        rows = windowed_series(trace, 2.91)
        assert [(r.window.t_start, r.window.t_end) for r in rows] == expected
        assert [r.t_end for r in cumulative_series(trace, 2.91)] == [e for _, e in expected]

    def test_arrival_counts_in_the_window_containing_it(self):
        t = 7.499999999999997
        trace = _FakeTrace(10.0, [_FakeRecord(t, "rejected")])
        hit = [r.window for r in windowed_series(trace, 0.3) if r.window.arrived]
        assert len(hit) == 1
        assert hit[0].t_start <= t < hit[0].t_end

    @pytest.mark.parametrize("width", [0.1, 0.3, 0.7, 2.91, 1 / 3])
    def test_series_match_the_brute_force_grid(self, width):
        """Arrivals at random times and on both sides of every window bound
        land where the brute-force filter puts them; the cumulative series
        totals the same windows."""
        rng = random.Random(int(width * 1000))
        horizon = 97.3
        times = [rng.uniform(0, horizon) for _ in range(200)]
        i = 0
        while i * width < horizon:
            times += [i * width, math.nextafter(i * width, 0.0)]
            i += 1
        records = [_accepted(t, 1 + k % 7, 1 + k % 3, 1 + k % 2) if k % 3 else
                   _FakeRecord(t, "rejected") for k, t in enumerate(sorted(times))]
        trace = _FakeTrace(horizon, records)
        expected = windowed_metrics_brute(trace, width)
        rows = windowed_series(trace, width)
        assert [(r.window.t_start, r.window.t_end, r.window.arrived, r.window.accepted,
                 r.acceptance, r.avg_revenue, r.avg_cost, r.rc_ratio) for r in rows] == expected
        assert sum(r.window.arrived for r in rows) == len(times)
        cum = cumulative_series(trace, width)
        assert [c.t_end for c in cum] == [e[1] for e in expected]
        assert [c.arrived for c in cum] == list(itertools.accumulate(e[2] for e in expected))

    def test_window_count_above_the_cap_is_rejected(self):
        # ceil(1_000_001 / 1) windows is one more than metrics.MAX_WINDOWS
        trace = _FakeTrace(1_000_001.0, [])
        for series in (windowed_series, cumulative_series):
            with pytest.raises(ValueError, match="1000001 windows"):
                series(trace, 1.0)

    def test_window_count_check(self):
        assert metrics.MAX_WINDOWS == 10**6
        metrics.check_window_count(1_000_000.0, 1.0)
        metrics.check_window_count(0.0, 1.0)
        for horizon, width in ((1_000_000.5, 1.0), (math.inf, 500.0), (math.nan, 500.0),
                               (1200.0, 1e-9)):
            with pytest.raises(ValueError, match="windows"):
                metrics.check_window_count(horizon, width)
        with pytest.raises(ValueError, match="positive"):
            metrics.check_window_count(10.0, 0.0)

    def test_steady_state_means_skip_warmup_and_no_samples(self):
        trace = _FakeTrace(20.0, [_accepted(1.0, 20, 10, 1), _accepted(16.0, 20, 10, 1)])
        rows = windowed_series(trace, 5.0)
        means = steady_state_means(rows, warmup_t=10.0)
        assert means["acceptance"] == 1.0  # only the t=16 window sampled
        assert means["avg_revenue"] == pytest.approx(15.0 / 5.0 / 2.0)  # one empty window


class TestOracleEquivalence:
    @pytest.mark.parametrize("strategy_name", ["greedy", "stec-iot"])
    def test_streaming_matches_from_trace_recomputation(self, strategy_name):
        cfg = GeneratorConfig(seed=6, node_count=24, domain_count=2,
                              cd_size_range=(1, 2), vnr_node_range=(2, 5))
        net = generate_substrate(cfg)
        vnrs = generate_vnr_stream(cfg, horizon=800)
        trace = run(net, vnrs, make_strategy(strategy_name, seed=6), 800)
        rows = windowed_series(trace, 100.0)
        expected = windowed_metrics_brute(trace, 100.0)
        assert len(rows) == len(expected)
        for row, exp in zip(rows, expected):
            assert (row.window.t_start, row.window.t_end) == exp[:2]
            assert (row.window.arrived, row.window.accepted) == exp[2:4]
            assert row.acceptance == exp[4]
            assert row.avg_revenue == exp[5]
            assert row.avg_cost == exp[6]
            assert row.rc_ratio == exp[7]

    def test_rc_ratio_bounded_by_one_under_default_weights(self):
        cfg = GeneratorConfig(seed=8, node_count=24, domain_count=2, cd_size_range=(1, 2))
        net = generate_substrate(cfg)
        vnrs = generate_vnr_stream(cfg, horizon=600)
        trace = run(net, vnrs, make_strategy("greedy"), 600)
        for row in windowed_series(trace, 100.0):
            if row.rc_ratio is not None:
                assert row.rc_ratio <= 1.0
