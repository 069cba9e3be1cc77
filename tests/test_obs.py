"""Tests of the observability subsystem (:mod:`repro.obs`).

The load-bearing guarantees:

* **Merge semantics** — fixed-bucket histogram merges are exactly
  associative and commutative: any grouping and any order of the same
  snapshots produces bit-identical integer counts (and identical
  min/max), so fleet views do not depend on shard count, worker backend,
  or snapshot arrival order.
* **Bounded percentile error** — a histogram percentile is the upper
  edge of the bucket holding the nearest rank; the exact nearest-rank
  percentile always lies inside that same bucket, even on adversarial
  distributions (point masses, boundary values, heavy skew).
* **Honest emptiness** — empty histograms answer ``None``, empty samples
  raise, summaries say "no requests served"; nothing fabricates a 0.0.
* **Clock seam** — all timing flows through :mod:`repro.obs.clock`, so a
  :class:`ManualClock` gives tests exact deterministic durations.
* **Sampling determinism** — whether request ``i`` is traced depends
  only on ``(seed, i)``, never on the platform or the serving RNGs.
"""

import itertools
import json
import math
import random
import time

import pytest

from repro.errors import ObsError
from repro.obs import (
    LATENCY_BUCKET_EDGES,
    FixedBucketHistogram,
    HistogramSnapshot,
    ManualClock,
    MonotonicClock,
    SPAN_NAMES,
    SpanCollector,
    SpanSampler,
    get_clock,
    log_bucket_edges,
    merge_histograms,
    metrics_jsonl_lines,
    now,
    prometheus_text,
    request_trace,
    resident_bytes,
    set_clock,
    spans_jsonl_lines,
    write_metrics_jsonl,
    write_prometheus_text,
    write_spans_jsonl,
)
from repro.service.metrics import percentile
from repro.service.observation import (
    FleetSnapshot,
    ShardMetrics,
    ShardMetricsSnapshot,
    StatsReporter,
    fleet_metrics,
    format_stats_line,
)

QUANTILES = (0.50, 0.95, 0.99)

#: A small edge layout most tests use: 1, 10, 100, 1000.
EDGES = log_bucket_edges(1.0, 1_000.0, 1)


def filled(values, edges=EDGES):
    histogram = FixedBucketHistogram(edges)
    for value in values:
        histogram.record(value)
    return histogram.snapshot()


# ----------------------------------------------------------------------
# The clock seam
# ----------------------------------------------------------------------
class TestClock:
    def test_manual_clock_moves_only_when_told(self):
        clock = ManualClock(start=5.0)
        assert clock.now() == 5.0
        assert clock.advance(1.5) == 6.5
        assert clock.now() == 6.5

    def test_manual_clock_rejects_backwards_motion(self):
        with pytest.raises(ObsError, match="cannot move backwards"):
            ManualClock().advance(-0.1)

    def test_monotonic_clock_is_monotonic(self):
        clock = MonotonicClock()
        first = clock.now()
        assert clock.now() >= first

    def test_set_clock_installs_and_returns_previous(self):
        manual = ManualClock(start=2.0)
        previous = set_clock(manual)
        try:
            assert get_clock() is manual
            assert now() == 2.0
            manual.advance(3.0)
            assert now() == 5.0
        finally:
            set_clock(previous)
        assert get_clock() is previous

    def test_set_clock_rejects_non_clocks(self):
        with pytest.raises(ObsError, match="needs a Clock"):
            set_clock(lambda: 0.0)


# ----------------------------------------------------------------------
# Bucket edges
# ----------------------------------------------------------------------
class TestBucketEdges:
    def test_log_edges_cover_the_range(self):
        edges = log_bucket_edges(1e-5, 10.0, 10)
        assert edges[0] == pytest.approx(1e-5)
        assert edges[-1] >= 10.0
        assert all(b > a for a, b in zip(edges, edges[1:]))

    def test_log_edges_are_a_pure_function_of_the_arguments(self):
        # Every shard derives the same layout with no coordination.
        assert log_bucket_edges(1e-5, 10.0, 10) == LATENCY_BUCKET_EDGES
        assert log_bucket_edges(1.0, 1e4, 2) == log_bucket_edges(1.0, 1e4, 2)

    @pytest.mark.parametrize(
        "low, high, per_decade",
        [(0.0, 1.0, 10), (-1.0, 1.0, 10), (1.0, 0.5, 10), (1.0, 10.0, 0)],
    )
    def test_log_edges_reject_bad_arguments(self, low, high, per_decade):
        with pytest.raises(ObsError):
            log_bucket_edges(low, high, per_decade)

    def test_histograms_reject_malformed_edges(self):
        with pytest.raises(ObsError, match="strictly increasing"):
            FixedBucketHistogram([1.0, 1.0, 2.0])
        with pytest.raises(ObsError, match="at least one"):
            FixedBucketHistogram([])


# ----------------------------------------------------------------------
# Recording and exact side-channels
# ----------------------------------------------------------------------
class TestHistogramRecord:
    def test_counts_land_in_half_open_buckets(self):
        # Buckets are (previous_edge, edge]: an exact edge value belongs
        # to the bucket it closes, values above the last edge overflow.
        snapshot = filled([0.5, 1.0, 1.1, 10.0, 10.1, 1_000.0, 2_000.0])
        assert snapshot.counts == (2, 2, 1, 1, 1)
        assert snapshot.count == 7

    def test_sum_min_max_mean_are_exact(self):
        snapshot = filled([2.0, 8.0, 500.0])
        assert snapshot.sum == 510.0
        assert snapshot.min == 2.0
        assert snapshot.max == 500.0
        assert snapshot.mean == pytest.approx(170.0)

    def test_rejects_unrecordable_values(self):
        histogram = FixedBucketHistogram(EDGES)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ObsError, match="finite non-negative"):
                histogram.record(bad)

    def test_empty_histogram_answers_none_never_zero(self):
        snapshot = HistogramSnapshot.empty(EDGES)
        assert snapshot.count == 0
        assert snapshot.percentile(0.99) is None
        assert snapshot.percentile_bounds(0.50) is None
        assert snapshot.mean is None
        assert snapshot.min is None and snapshot.max is None

    def test_percentile_rejects_out_of_range_q(self):
        snapshot = filled([1.0])
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(ObsError, match="must lie in"):
                snapshot.percentile(q)

    def test_overflow_percentile_is_inf_not_a_fake_number(self):
        snapshot = filled([5_000.0])
        assert snapshot.percentile(0.99) == math.inf
        lower, upper = snapshot.percentile_bounds(0.99)
        assert lower == 1_000.0 and upper == math.inf


# ----------------------------------------------------------------------
# Bounded percentile error (the E15 guarantee)
# ----------------------------------------------------------------------
class TestPercentileBounds:
    @pytest.mark.parametrize(
        "values",
        [
            [3.0] * 100,  # point mass
            [1.0, 10.0, 100.0, 1_000.0] * 25,  # every value on an edge
            [1.5] * 99 + [900.0],  # heavy skew, lonely tail
            [0.2] * 50 + [2_000.0] * 50,  # underflow + overflow halves
            [1.0001 * (1.07**i) for i in range(120)],  # geometric sweep
        ],
        ids=["point-mass", "edge-values", "skewed-tail", "extremes", "geometric"],
    )
    def test_exact_percentile_lies_in_the_reported_bucket(self, values):
        rng = random.Random(7)
        shuffled = list(values)
        rng.shuffle(shuffled)
        snapshot = filled(shuffled)
        for q in QUANTILES:
            exact = percentile(shuffled, q)
            lower, upper = snapshot.percentile_bounds(q)
            assert lower < exact <= upper or exact == lower == 0.0
            # The reported value is the bucket's upper edge: an upper
            # bound on the exact percentile, off by < one bucket width.
            assert snapshot.percentile(q) == upper

    def test_histogram_and_exact_share_the_nearest_rank_convention(self):
        # Both sides use rank = max(ceil(q * n), 1); if they disagreed,
        # the bound check above could fail spuriously at tiny samples.
        values = [2.0, 20.0, 200.0]
        snapshot = filled(values)
        for q in (0.01, 1 / 3, 0.34, 2 / 3, 0.67, 1.0):
            exact = percentile(values, q)
            lower, upper = snapshot.percentile_bounds(q)
            assert lower < exact <= upper


# ----------------------------------------------------------------------
# Merge semantics: associative, commutative, bit-identical
# ----------------------------------------------------------------------
class TestMergeSemantics:
    def build_parts(self):
        rng = random.Random(11)
        return [
            filled([rng.uniform(0.5, 2_000.0) for _ in range(40)])
            for _ in range(4)
        ]

    def test_merge_is_commutative_bit_identically(self):
        parts = self.build_parts()
        reference = merge_histograms(parts)
        for order in itertools.permutations(parts):
            merged = merge_histograms(order)
            assert merged.counts == reference.counts
            assert merged.min == reference.min
            assert merged.max == reference.max

    def test_merge_is_associative_bit_identically(self):
        a, b, c, d = self.build_parts()
        left = a.merge(b).merge(c).merge(d)
        right = a.merge(b.merge(c.merge(d)))
        paired = merge_histograms([merge_histograms([a, b]), merge_histograms([c, d])])
        assert left.counts == right.counts == paired.counts
        assert left.count == sum(part.count for part in (a, b, c, d))
        assert left.min == right.min == paired.min
        assert left.max == right.max == paired.max

    def test_merge_requires_identical_edges(self):
        with pytest.raises(ObsError, match="different bucket edges"):
            merge_histograms([filled([1.0]), filled([1.0], edges=(1.0, 2.0))])

    def test_merge_of_nothing_raises(self):
        with pytest.raises(ObsError, match="at least one snapshot"):
            merge_histograms([])

    def test_update_folds_another_histogram_in_place(self):
        histogram = FixedBucketHistogram(EDGES)
        histogram.record(2.0)
        histogram.update(filled([50.0, 800.0]))
        snapshot = histogram.snapshot()
        assert snapshot.count == 3
        assert snapshot.min == 2.0 and snapshot.max == 800.0


# ----------------------------------------------------------------------
# Span traces
# ----------------------------------------------------------------------
class TestSpans:
    def test_sampler_is_a_pure_function_of_seed_and_index(self):
        decisions = [SpanSampler(seed=3, rate=0.25).sampled(i) for i in range(500)]
        again = [SpanSampler(seed=3, rate=0.25).sampled(i) for i in range(500)]
        assert decisions == again
        other_seed = [SpanSampler(seed=4, rate=0.25).sampled(i) for i in range(500)]
        assert decisions != other_seed
        assert 0 < sum(decisions) < 500  # the rate actually thins

    def test_sampler_rate_extremes_and_validation(self):
        assert not any(SpanSampler(0, 0.0).sampled(i) for i in range(50))
        assert all(SpanSampler(0, 1.0).sampled(i) for i in range(50))
        with pytest.raises(ObsError, match="must lie in"):
            SpanSampler(0, 1.5)

    def test_request_trace_has_the_canonical_five_spans(self):
        trace = request_trace(
            request_index=7,
            shard=1,
            enqueued_at=10.0,
            opened_at=10.2,
            engine_started_at=10.3,
            engine_finished_at=10.7,
            replied_at=10.8,
        )
        assert tuple(span.name for span in trace.spans) == SPAN_NAMES
        assert trace.latency_seconds == pytest.approx(0.8)
        assert trace.spans[0].duration_seconds == 0.0  # ingress is a mark
        # Spans tile the lifecycle: each starts where the previous ended.
        for earlier, later in zip(trace.spans, trace.spans[1:]):
            assert later.start_seconds == earlier.end_seconds

    def make_trace(self, index):
        return request_trace(index, 0, 0.0, 0.1, 0.2, 0.3, 0.4)

    def test_collector_respects_sampler_and_cap(self):
        collector = SpanCollector(SpanSampler(seed=0, rate=1.0), max_traces=3)
        for index in (4, 2, 9, 5):
            if collector.wants(index):
                collector.record(self.make_trace(index))
        traces = collector.traces()
        assert [trace.request_index for trace in traces] == [2, 4, 9]
        assert not collector.wants(10)  # cap reached

    def test_spans_jsonl_round_trips(self, tmp_path):
        traces = [self.make_trace(i) for i in range(3)]
        lines = spans_jsonl_lines(traces)
        decoded = [json.loads(line) for line in lines]
        assert [doc["request_index"] for doc in decoded] == [0, 1, 2]
        assert [span["name"] for span in decoded[0]["spans"]] == list(SPAN_NAMES)
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(str(path), traces) == 3
        assert path.read_text().splitlines() == lines


# ----------------------------------------------------------------------
# Exporters and process introspection
# ----------------------------------------------------------------------
class TestExport:
    def metrics(self):
        return {
            "requests_served_total": 7,
            "worker_busy_fraction_mean": 0.5,
            "latency_seconds": filled([2.0, 20.0, 20.0, 5_000.0]),
        }

    def test_prometheus_text_renders_all_three_kinds(self):
        text = prometheus_text(self.metrics())
        assert "# TYPE repro_requests_served_total counter" in text
        assert "repro_requests_served_total 7" in text
        assert "# TYPE repro_worker_busy_fraction_mean gauge" in text
        assert "# TYPE repro_latency_seconds histogram" in text
        assert "repro_latency_seconds_count 4" in text

    def test_prometheus_histogram_buckets_are_cumulative(self):
        text = prometheus_text({"latency_seconds": filled([2.0, 20.0, 20.0, 5_000.0])})
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if "_bucket{" in line
        ]
        assert buckets == sorted(buckets)
        assert 'le="+Inf"} 4' in text  # +Inf bucket equals the total count

    def test_metrics_jsonl_round_trips(self, tmp_path):
        lines = metrics_jsonl_lines(self.metrics())
        decoded = [json.loads(line) for line in lines]
        # Name-sorted output: byte-stable exports for a given snapshot.
        assert [doc["metric"] for doc in decoded] == sorted(self.metrics())
        by_name = {doc["metric"]: doc for doc in decoded}
        assert by_name["requests_served_total"]["type"] == "counter"
        assert by_name["worker_busy_fraction_mean"]["type"] == "gauge"
        assert by_name["latency_seconds"]["histogram"]["count"] == 4
        path = tmp_path / "metrics.jsonl"
        assert write_metrics_jsonl(str(path), self.metrics()) == 3
        assert path.read_text().splitlines() == lines

    def test_write_prometheus_text(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus_text(str(path), self.metrics())
        assert path.read_text() == prometheus_text(self.metrics())

    def test_resident_bytes_on_linux(self):
        rss = resident_bytes()
        if rss is None:
            pytest.skip("/proc/self/status unavailable on this host")
        assert isinstance(rss, int) and rss > 0


# ----------------------------------------------------------------------
# Shard metrics and the fleet view
# ----------------------------------------------------------------------
class TestFleet:
    def shard(self, index, latencies):
        metrics = ShardMetrics(index, edges=EDGES)
        metrics.observe_batch(
            queue_seconds=[value / 2 for value in latencies],
            latency_seconds=latencies,
            num_reveals=len(latencies),
        )
        return metrics.snapshot()

    def test_shard_metrics_aggregate_batches(self):
        metrics = ShardMetrics(0, edges=EDGES)
        metrics.observe_batch([0.5, 0.5], [2.0, 3.0], num_reveals=5)
        metrics.observe_batch([0.5], [4.0], num_reveals=1)
        snapshot = metrics.snapshot()
        assert snapshot.num_requests == 3
        assert snapshot.num_reveals == 6
        assert snapshot.num_batches == 2
        assert snapshot.latency.count == 3

    def test_fleet_merge_is_grouping_invariant(self):
        shards = [self.shard(i, [2.0 * (i + 1)] * (i + 2)) for i in range(4)]
        reference = FleetSnapshot.merge_shards(shards)
        for order in itertools.permutations(shards):
            fleet = FleetSnapshot.merge_shards(order)
            assert fleet.latency.counts == reference.latency.counts
            assert fleet.queue_wait.counts == reference.queue_wait.counts
            # Shard views come back index-sorted however they arrived.
            assert [s.shard_index for s in fleet.shards] == [0, 1, 2, 3]
        assert reference.num_requests == sum(s.num_requests for s in shards)
        assert reference.shard_request_counts() == {0: 2, 1: 3, 2: 4, 3: 5}

    def test_empty_fleet_is_all_zeros(self):
        fleet = FleetSnapshot.merge_shards([])
        assert fleet.num_requests == 0
        assert fleet.latency.percentile(0.99) is None
        line = format_stats_line(fleet, worker_stats=(), elapsed_seconds=0.0)
        assert line.startswith("stats t=0.0s served=0 ")
        assert "p99=-ms" in line  # honest emptiness, not a fake 0.00

    def test_fleet_metrics_is_exportable(self):
        shards = [self.shard(0, [2.0]), ShardMetricsSnapshot.empty(1, EDGES)]
        metrics = fleet_metrics(FleetSnapshot.merge_shards(shards))
        assert metrics["requests_served_total"] == 1
        assert metrics["shards"] == 2
        assert isinstance(metrics["latency_seconds"], HistogramSnapshot)
        assert "repro_requests_served_total 1" in prometheus_text(metrics)

    def test_stats_reporter_emits_on_an_interval_and_on_stop(self):
        class StubService:
            def fleet_snapshot(self):
                return FleetSnapshot.merge_shards([])

            def worker_stats(self):
                return ()

        emitted = []
        reporter = StatsReporter(StubService(), 0.02, emit=emitted.append)
        reporter.start()
        time.sleep(0.08)  # let a few intervals elapse
        reporter.stop()
        assert reporter.num_emitted >= 1
        assert reporter.num_emitted == len(emitted)
        assert all(line.startswith("stats t=") for line in emitted)
        assert not reporter.is_alive()

    def test_stats_reporter_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="must be positive"):
            StatsReporter(object(), 0.0)


# ----------------------------------------------------------------------
# End to end: histograms across jobs, backends, and the soak loop
# ----------------------------------------------------------------------
COST_EDGES = log_bucket_edges(1.0, 1e4, 2)


def cost_histogram_counts(costs):
    histogram = FixedBucketHistogram(COST_EDGES)
    for cost in costs:
        histogram.record(float(max(cost, 1e-9)))
    return histogram.snapshot().counts


class TestAggregationIdentity:
    def test_trial_cost_histograms_bit_identical_across_jobs(self):
        # The same seeded trials fanned across 1 vs 4 worker processes
        # must aggregate into bit-identical histograms: parallelism adds
        # no noise to anything counts are built from.
        from repro.core.instance import OnlineMinLAInstance
        from repro.core.rand_cliques import RandomizedCliqueLearner
        from repro.experiments.parallel import run_trials_parallel
        from repro.graphs.generators import random_clique_merge_sequence

        rng = random.Random(0)
        sequence = random_clique_merge_sequence(16, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        counts_by_jobs = {}
        for jobs in (1, 4):
            results = run_trials_parallel(
                RandomizedCliqueLearner, instance, num_trials=8, seed=11, jobs=jobs
            )
            counts_by_jobs[jobs] = cost_histogram_counts(
                result.total_cost for result in results
            )
        assert counts_by_jobs[1] == counts_by_jobs[4]
        assert sum(counts_by_jobs[1]) == 8

    def test_served_cost_histograms_bit_identical_across_backends(self):
        # E15's claim 3 at test scale: histograms of the deterministic
        # per-request communication costs carry identical counts whether
        # the fleet ran on threads or forked worker processes.
        from repro.service.loadgen import run_scenario_loadgen
        from repro.workloads.registry import get_scenario

        scenario = get_scenario("zipf-tenants")
        counts_by_backend = {}
        requests_by_backend = {}
        for backend in ("thread", "process"):
            report = run_scenario_loadgen(
                scenario,
                num_nodes=16,
                num_requests=60,
                seed=5,
                num_shards=2,
                batch_size=2,
                queue_capacity=64,
                backend=backend,
                retain_requests=True,
            )
            ordered = sorted(report.results, key=lambda r: r.request_index)
            counts_by_backend[backend] = cost_histogram_counts(
                result.communication_cost for result in ordered
            )
            requests_by_backend[backend] = report.snapshot.num_requests
        assert counts_by_backend["thread"] == counts_by_backend["process"]
        assert requests_by_backend == {"thread": 60, "process": 60}


class TestLoadgenObservability:
    def run(self, **overrides):
        from repro.service.loadgen import run_scenario_loadgen
        from repro.workloads.registry import get_scenario

        settings = dict(
            num_nodes=16,
            num_requests=50,
            seed=3,
            num_shards=2,
            batch_size=2,
            queue_capacity=64,
        )
        settings.update(overrides)
        return run_scenario_loadgen(get_scenario("zipf-tenants"), **settings)

    def test_retained_run_histogram_bounds_exact_percentiles(self):
        report = self.run(retain_requests=True)
        latencies = [result.latency_seconds for result in report.results]
        histogram = report.snapshot.latency
        assert histogram.count == len(latencies) == 50
        for q in QUANTILES:
            exact = percentile(latencies, q)
            lower, upper = histogram.percentile_bounds(q)
            assert lower < exact <= upper or exact == lower == 0.0

    def test_unretained_run_serves_at_o1_memory_but_counts_everything(self):
        report = self.run(retain_requests=False)
        assert report.results == ()  # nothing retained per request
        assert report.snapshot.num_requests == 50
        assert sum(report.shard_requests.values()) == 50
        summary = report.summary
        assert summary.num_requests == 50
        assert summary.latency_source == "histogram"
        assert "[histogram]" in summary.to_text()
        assert summary.latency_histogram_table("t") is not None

    def test_span_traces_are_seeded_and_reproducible(self):
        first = self.run(retain_requests=False, span_rate=0.3)
        second = self.run(retain_requests=False, span_rate=0.3)
        assert first.span_traces, "a 30% head-sample of 50 requests traced none"
        sampled = [trace.request_index for trace in first.span_traces]
        assert sampled == [trace.request_index for trace in second.span_traces]
        expected = SpanSampler(seed=3, rate=0.3)
        assert all(expected.sampled(index) for index in sampled)
        for trace in first.span_traces:
            assert tuple(span.name for span in trace.spans) == SPAN_NAMES
            assert trace.latency_seconds >= 0.0

    def test_stats_interval_emits_greppable_lines(self):
        emitted = []
        report = self.run(
            retain_requests=False, stats_interval=0.05, stats_emit=emitted.append
        )
        assert report.summary.num_requests == 50
        assert emitted, "the reporter always emits a final line on stop"
        assert all(line.startswith("stats t=") for line in emitted)


class TestSoak:
    def soak(self, **overrides):
        from repro.service.loadgen import run_scenario_soak
        from repro.workloads.registry import get_scenario

        settings = dict(
            num_nodes=16,
            num_requests=40,
            seed=3,
            num_shards=2,
            batch_size=2,
            queue_capacity=64,
        )
        settings.update(overrides)
        return run_scenario_soak(get_scenario("zipf-tenants"), **settings)

    def test_soak_needs_a_horizon(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="needs a horizon"):
            self.soak()
        with pytest.raises(ServiceError, match="duration must be positive"):
            self.soak(duration_seconds=0.0)
        with pytest.raises(ServiceError, match="max requests must be positive"):
            self.soak(max_requests=0)

    def test_soak_cycles_the_stream_to_the_request_horizon(self):
        # 100 requests from a 40-request stream: the soak loop must cycle
        # the lazily re-iterable stream and stop exactly at the horizon.
        report = self.soak(max_requests=100)
        assert report.num_requests == 100
        assert report.snapshot.num_requests == 100
        assert report.summary.num_requests == 100
        assert report.summary.latency_source == "histogram"
        assert sum(report.shard_requests.values()) == 100
        # Default checkpoint marks at 1% and 10% of the horizon, plus the
        # final one; all carry monotone non-decreasing request counts.
        assert len(report.checkpoints) >= 2
        submitted = [c.requests_submitted for c in report.checkpoints]
        assert submitted == sorted(submitted)
        assert submitted[-1] == 100
        text = report.to_text()
        assert "soak zipf-tenants: 100 requests" in text
        assert "checkpoint req=" in text

    def test_soak_rss_accounting(self):
        report = self.soak(max_requests=60)
        if resident_bytes() is None:
            assert report.rss_growth() is None
            assert report.memory_flat() is None
            assert "rss: unavailable" in report.to_text()
        else:
            growth = report.rss_growth()
            assert growth is not None and growth > 0.0
            assert report.memory_flat() == (growth <= report.FLAT_RSS_FACTOR)
            assert "growth=x" in report.to_text()

    def test_soak_duration_horizon_stops(self):
        report = self.soak(duration_seconds=0.3)
        assert report.num_requests > 0
        assert report.wall_seconds < 30.0  # stopped by the deadline, amply

    def test_percentile_of_nothing_raises_with_the_served_hint(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="no requests served"):
            percentile([], 0.5)
