"""Tests of the arrangement-serving subsystem (:mod:`repro.service`).

The load-bearing guarantees:

* **Determinism** — same scenario + seed + shard count + batch size ⇒
  identical served cost totals across runs (thread timing never leaks into
  costs).
* **Offline equivalence** — one-shard serving is bit-identical to the
  batch harness: reveal serving to :func:`repro.core.simulator.run_online`
  (any batch size), traffic serving to the streamed demand-aware
  controller fed the same batch boundaries.
* **Partitioning** — component-aligned, deterministic, total.
* **Backpressure** — bounded queues reject/block explicitly.
* **Backend equivalence** — the process-backed fleet (one forked worker
  per shard) serves the same costs bit for bit as the thread-backed fleet,
  applies the same backpressure and failure handling, names its dead shard
  instead of hanging, and leaves no orphan processes behind after
  ``close()``.
"""

import os
import queue
import random
import re
import signal
import sys
import threading
import time

import pytest

from repro.core.instance import OnlineMinLAInstance
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.simulator import run_online
from repro.errors import ServiceError
from repro.graphs.reveal import GraphKind
from repro.obs.clock import ManualClock, set_clock
from repro.obs.clock import now as monotonic_now
from repro.obs.spans import SpanCollector, SpanSampler
from repro.service import (
    BACKENDS,
    ArrangementService,
    ShardEngine,
    build_reveal_service,
    build_traffic_service,
    discover_stream_partition,
    partition_components,
    percentile,
    resolve_backend,
    reveal_partition,
    run_scenario_loadgen,
    shard_rng,
    summarize_results,
)
from repro.service.broker import ServeResult, expand_batch, serve_shard
from repro.service.loadgen import learner_factory
from repro.service.observation import ShardMetrics
from repro.vnet.controller import DemandAwareController
from repro.vnet.topology import LinearDatacenter
from repro.workloads.registry import get_scenario


def _serve_stream(scenario_name, nodes, requests, seed, shards, batch, backend=None):
    return run_scenario_loadgen(
        get_scenario(scenario_name),
        num_nodes=nodes,
        num_requests=requests,
        seed=seed,
        num_shards=shards,
        batch_size=batch,
        queue_capacity=requests,
        backend=backend,
    )


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartition:
    def test_components_are_never_split(self):
        scenario = get_scenario("zipf-tenants")
        stream = scenario.request_stream(32, 500, 0)
        partition = discover_stream_partition(stream, 4)
        for u, v in stream:
            assert partition.shard_of(u) == partition.shard_of(v)

    def test_partition_is_deterministic(self):
        scenario = get_scenario("bursty-pipelines")
        stream = scenario.request_stream(32, 500, 3)
        first = discover_stream_partition(stream, 3)
        second = discover_stream_partition(stream, 3)
        assert first.shard_nodes == second.shard_nodes
        assert first.node_to_shard == second.node_to_shard

    def test_every_node_is_placed_exactly_once(self):
        scenario = get_scenario("mixed-fleet")
        stream = scenario.request_stream(32, 400, 1)
        partition = discover_stream_partition(stream, 5)
        placed = [node for nodes in partition.shard_nodes for node in nodes]
        assert sorted(placed) == sorted(stream.virtual_nodes)

    def test_reveal_partition_covers_final_components(self):
        scenario = get_scenario("bursty-pipelines")
        sequence = scenario.reveal_sequences(24, 0)[0]
        partition = reveal_partition(sequence, 3)
        for component in sequence.final_components():
            shards = {partition.shard_of(node) for node in component}
            assert len(shards) == 1

    def test_single_component_collapses_to_one_shard(self):
        scenario = get_scenario("growing-hotspot")
        stream = scenario.request_stream(16, 200, 0)
        partition = discover_stream_partition(stream, 4)
        assert partition.num_shards == 1

    def test_unknown_node_rejected(self):
        scenario = get_scenario("zipf-tenants")
        stream = scenario.request_stream(16, 200, 0)
        partition = discover_stream_partition(stream, 2)
        with pytest.raises(ServiceError):
            partition.shard_of("not-a-node")

    def test_cross_shard_pair_rejected(self):
        partition = partition_components([[0, 1], [2, 3]], [0, 1, 2, 3], 2)
        assert partition.num_shards == 2
        with pytest.raises(ServiceError):
            partition.shard_of_pair(0, 2)

    def test_incomplete_components_rejected(self):
        with pytest.raises(ServiceError):
            partition_components([[0, 1]], [0, 1, 2], 2)

    def test_nonpositive_shard_count_rejected(self):
        with pytest.raises(ServiceError):
            partition_components([[0, 1]], [0, 1], 0)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestServingDeterminism:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_same_config_same_totals_across_runs(self, shards):
        first = _serve_stream("zipf-tenants", 24, 400, 5, shards, 8)
        second = _serve_stream("zipf-tenants", 24, 400, 5, shards, 8)
        assert first.summary.total_cost == second.summary.total_cost
        assert first.summary.migration_cost == second.summary.migration_cost
        assert (
            first.summary.communication_cost == second.summary.communication_cost
        )
        assert first.summary.num_reveals == second.summary.num_reveals
        assert first.shard_requests == second.shard_requests

    def test_per_request_cost_outcomes_are_deterministic(self):
        first = _serve_stream("bursty-pipelines", 24, 300, 2, 2, 4)
        second = _serve_stream("bursty-pipelines", 24, 300, 2, 2, 4)
        for a, b in zip(first.results, second.results):
            assert a.request_index == b.request_index
            assert a.pair == b.pair
            assert a.shard == b.shard
            assert a.revealed == b.revealed
            assert a.migration_swaps == b.migration_swaps
            assert a.communication_cost == b.communication_cost


class TestServedTotalsGolden:
    """Pinned served totals of one fixed replay, the same on both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zipf_tenants_replay(self, backend):
        report = _serve_stream("zipf-tenants", 64, 5000, 0, 2, 16, backend)
        summary = report.summary
        results = report.results
        assert report.shard_requests == {0: 3065, 1: 1935}
        assert (summary.num_requests, summary.num_batches) == (5000, 313)
        assert summary.num_reveals == 42
        # The serving loop's own reveal count, taken from the engine's rows.
        assert report.snapshot.num_reveals == 42
        assert (summary.migration_cost, summary.communication_cost) == (
            18.0,
            5437.0,
        )
        assert sum(result.revealed for result in results) == 42
        assert sum(result.migration_swaps for result in results) == 18
        assert sum(result.communication_cost for result in results) == 5437.0
        # Index-weighted sums pin which requests carried each cost.
        assert (
            sum(result.request_index * result.migration_swaps for result in results)
            == 3743
        )
        assert (
            sum(
                result.request_index * result.communication_cost
                for result in results
            )
            == 13578632.0
        )
        assert {
            (type(result.revealed), type(result.migration_swaps))
            for result in results
        } == {(bool, int)}
        assert {type(result.communication_cost) for result in results} == {float}


# ----------------------------------------------------------------------
# Offline equivalence (the E14 anchors)
# ----------------------------------------------------------------------
class TestOfflineEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", [1, 4])
    def test_reveal_serving_matches_run_online(self, batch, backend):
        # E2-sized instance: the uniform-cliques workload at n=32.
        scenario = get_scenario("uniform-cliques")
        sequence = scenario.reveal_sequences(32, 0)[0]
        instance = OnlineMinLAInstance.with_random_start(
            sequence, random.Random("e14-test")
        )
        offline = run_online(
            RandomizedCliqueLearner(), instance, rng=shard_rng(0, 0)
        )
        service = build_reveal_service(
            instance, num_shards=1, seed=0, batch_size=batch, backend=backend
        ).start()
        try:
            for step in instance.steps:
                service.submit((step.u, step.v))
            results = service.drain()
        finally:
            service.close()
        assert sum(r.migration_swaps for r in results) == offline.total_cost
        report = service.shard_reports()[0]
        assert report.migration_swaps == offline.total_cost
        assert report.num_reveals == instance.num_steps
        if backend == "thread":
            # The learner's phase split survives serving unchanged (the
            # process backend's engines live in the child, so the parent
            # checks the report, not the engine object).
            engine_ledger = service._engines[0].ledger
            assert (
                engine_ledger.total_moving_cost == offline.ledger.total_moving_cost
            )
            assert (
                engine_ledger.total_rearranging_cost
                == offline.ledger.total_rearranging_cost
            )

    @pytest.mark.parametrize("batch", [1, 16])
    def test_traffic_serving_matches_run_stream(self, batch):
        scenario = get_scenario("zipf-tenants")
        stream = scenario.request_stream(24, 500, 9)
        datacenter = LinearDatacenter(stream.num_nodes)
        controller = DemandAwareController(datacenter, RandomizedCliqueLearner)
        offline = controller.run_stream(
            stream, rng=shard_rng(9, 0), batch_size=batch
        )
        report = _serve_stream("zipf-tenants", 24, 500, 9, 1, batch)
        assert report.summary.total_cost == offline.total_cost
        assert report.summary.migration_cost == offline.migration_cost
        assert report.summary.communication_cost == offline.communication_cost
        assert report.summary.num_reveals == offline.num_reveals

    def test_lines_traffic_serving_matches_run_stream(self):
        scenario = get_scenario("bursty-pipelines")
        stream = scenario.request_stream(24, 400, 4)
        datacenter = LinearDatacenter(stream.num_nodes)
        controller = DemandAwareController(
            datacenter, learner_factory(GraphKind.LINES, "rand")
        )
        offline = controller.run_stream(stream, rng=shard_rng(4, 0), batch_size=8)
        report = _serve_stream("bursty-pipelines", 24, 400, 4, 1, 8)
        assert report.summary.total_cost == offline.total_cost


# ----------------------------------------------------------------------
# Broker mechanics
# ----------------------------------------------------------------------
def _engine(nodes=(0, 1, 2, 3)):
    return ShardEngine(
        shard_index=0,
        nodes=nodes,
        kind=GraphKind.CLIQUES,
        learner_factory=RandomizedCliqueLearner,
        rng=random.Random(0),
        datacenter=LinearDatacenter(len(nodes)),
    )


def _partition():
    return partition_components([[0, 1, 2, 3]], [0, 1, 2, 3], 1)


def _exploding_engine(message):
    """An engine whose serve path raises (instance attributes cross the fork)."""
    engine = _engine()

    def explode(pairs):
        raise RuntimeError(message)

    engine.serve_batch = explode
    return engine


@pytest.mark.parametrize("backend", BACKENDS)
class TestFleetMechanics:
    """Backpressure and failure handling, identical on both backends."""

    def test_try_submit_reports_backpressure(self, backend):
        service = ArrangementService(
            [_engine()], _partition(), queue_capacity=2, backend=backend
        )
        try:
            # Workers not started: the bounded queue fills and stays full.
            service._started = True  # submit() guards on lifecycle, not workers
            assert service.try_submit((0, 1)) is not None
            assert service.try_submit((0, 2)) is not None
            time.sleep(0.1)  # let an mp feeder thread settle the queue size
            assert service.try_submit((0, 3)) is None
        finally:
            service._started = False
            service.close()

    def test_submit_timeout_raises_service_error(self, backend):
        service = ArrangementService(
            [_engine()], _partition(), queue_capacity=1, backend=backend
        )
        try:
            service._started = True
            service.submit((0, 1))
            time.sleep(0.1)
            with pytest.raises(ServiceError, match="backpressure"):
                service.submit((0, 2), timeout=0.2)
        finally:
            service._started = False
            service.close()

    def test_worker_failure_surfaces_at_drain(self, backend):
        service = ArrangementService(
            [_exploding_engine("shard died")], _partition(), backend=backend
        ).start()
        try:
            service.submit((0, 1))
            with pytest.raises(ServiceError, match="shard .*shard died"):
                service.drain()
        finally:
            service.close()

    def test_dead_worker_does_not_deadlock_producers(self, backend):
        # A worker that failed must keep draining its bounded queue until
        # the sentinel, so blocking submits past the queue capacity still
        # complete and the failure surfaces at drain() instead of hanging
        # the producer.
        service = ArrangementService(
            [_exploding_engine("shard died early")],
            _partition(),
            queue_capacity=2,
            backend=backend,
        ).start()
        try:
            for _ in range(20):  # far beyond the queue capacity
                service.submit((0, 1), timeout=5.0)
            with pytest.raises(ServiceError, match="shard died early"):
                service.drain()
        finally:
            service.close()


    def test_worker_stats_are_the_metrics_snapshots(self, backend):
        service = ArrangementService(
            [_engine()], _partition(), batch_size=2, backend=backend
        ).start()
        try:
            for pair in [(0, 1), (1, 2), (2, 3)]:
                service.submit(pair)
            service.drain()
            stats = service.worker_stats()
            assert stats == service.metrics_snapshots()
            assert stats[0].num_requests == 3
            assert stats[0].queue_peak >= 1
            assert 0.0 <= stats[0].busy_fraction <= 1.0
        finally:
            service.close()


_PAIRS = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (0, 2), (0, 1), (2, 3)]


def _batches(results):
    """The batch sizes of ``results``, one entry per served batch."""
    sizes = []
    served = 0
    for result in results:
        if served == 0:
            sizes.append(result.batch_size)
        served = (served + 1) % result.batch_size
    return sizes


@pytest.mark.parametrize("backend", BACKENDS)
class TestBufferedSubmission:
    """``batch_timeout=None``: entries ship to the worker one batch per item."""

    def test_drain_flushes_the_partial_final_batch(self, backend):
        service = ArrangementService(
            [_engine()], _partition(), batch_size=3, backend=backend
        ).start()
        try:
            for pair in _PAIRS:
                service.submit(pair)
            results = service.drain()
        finally:
            service.close()
        assert [(r.request_index, r.pair) for r in results] == list(
            enumerate(_PAIRS)
        )
        assert _batches(results) == [3, 3, 2]

    def test_blocking_submit_applies_backpressure_in_requests(self, backend):
        service = ArrangementService(
            [_engine()],
            _partition(),
            batch_size=2,
            queue_capacity=4,
            backend=backend,
        )
        try:
            # Workers not started: two full batches fill the queue's four
            # request slots, the fifth request waits in the buffer.
            service._started = True
            for pair in _PAIRS[:5]:
                service.submit(pair, timeout=0.2)
            time.sleep(0.1)  # let an mp feeder thread settle the queue size
            with pytest.raises(ServiceError, match="backpressure"):
                service.submit(_PAIRS[5], timeout=0.2)
            service._started = False
            service.start()
            results = service.drain()
        finally:
            service.close()
        # The refused request is gone; the buffered one before it is not.
        assert [(r.request_index, r.pair) for r in results] == list(
            enumerate(_PAIRS[:5])
        )
        assert _batches(results) == [2, 2, 1]

    def test_refused_try_submit_takes_its_entry_back(self, backend):
        service = ArrangementService(
            [_engine()],
            _partition(),
            batch_size=2,
            queue_capacity=2,
            backend=backend,
        )
        try:
            service._started = True
            assert service.try_submit(_PAIRS[0]) == 0
            assert service.try_submit(_PAIRS[1]) == 1  # ships; the queue is full
            assert service.try_submit(_PAIRS[2]) == 2  # buffered
            time.sleep(0.1)
            assert service.try_submit(_PAIRS[3]) is None
            assert service.try_submit(_PAIRS[4]) is None
            service._started = False
            service.start()
            assert service.submit(_PAIRS[5]) == 5
            results = service.drain()
        finally:
            service.close()
        # Nothing lost, duplicated or reordered: the refused requests'
        # indices are skipped, request 2 ships with the first one accepted
        # after the refusals.
        assert [(r.request_index, r.pair) for r in results] == [
            (0, _PAIRS[0]),
            (1, _PAIRS[1]),
            (2, _PAIRS[2]),
            (5, _PAIRS[5]),
        ]
        assert _batches(results) == [2, 2]


# ----------------------------------------------------------------------
# The shared serving loop, driven directly on a plain queue
# ----------------------------------------------------------------------
class TestServeShard:
    def _queue(self, pairs, sentinel=True):
        requests = queue.Queue()
        for index, pair in enumerate(pairs):
            requests.put([(index, pair, monotonic_now())])
        if sentinel:
            requests.put(None)
        return requests

    def test_batches_fill_to_size_and_stop_at_the_sentinel(self):
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        requests = self._queue(pairs)
        metrics = ShardMetrics(0)
        emitted = []
        after = []
        serve_shard(
            _engine(),
            requests,
            batch_size=2,
            batch_timeout=None,
            metrics=metrics,
            emit=emitted.append,
            after_batch=lambda: after.append(len(emitted)),
        )
        # One record per batch: (service_seconds, started, finished, rows).
        assert [len(rows) for _, _, _, rows in emitted] == [2, 2, 1]
        served = [row[:2] for _, _, _, rows in emitted for row in rows]
        assert served == list(enumerate(pairs))
        # after_batch runs once per batch, after that batch was emitted.
        assert after == [1, 2, 3]
        snapshot = metrics.snapshot()
        assert (snapshot.num_requests, snapshot.num_batches) == (5, 3)
        # First opening: four requests and the sentinel still queued, plus
        # the request just dequeued.
        assert snapshot.queue_peak == 6
        assert 0.0 <= snapshot.busy_seconds <= snapshot.lifetime_seconds
        assert 0.0 <= snapshot.busy_fraction <= 1.0

    def test_batch_timeout_closes_a_partial_batch(self):
        requests = self._queue([(0, 1)], sentinel=False)
        emitted = []

        def emit(results):
            emitted.append(results)
            requests.put(None)  # end the loop once the first batch closed

        serve_shard(
            _engine(),
            requests,
            batch_size=4,
            batch_timeout=0.01,
            metrics=ShardMetrics(0),
            emit=emit,
        )
        assert [len(rows) for _, _, _, rows in emitted] == [1]

    def test_failure_consumes_the_queue_to_the_sentinel_then_reraises(self):
        requests = self._queue([(0, 1), (1, 2), (2, 3)])
        straggler = [(99, (0, 1), monotonic_now())]
        requests.put(straggler)  # queued after the sentinel: must stay put
        metrics = ShardMetrics(0)
        emitted = []
        with pytest.raises(RuntimeError, match="loop died"):
            serve_shard(
                _exploding_engine("loop died"),
                requests,
                batch_size=1,
                batch_timeout=None,
                metrics=metrics,
                emit=emitted.append,
            )
        assert emitted == []
        assert requests.get_nowait() == straggler
        assert requests.empty()
        assert metrics.finished_at is not None

    def test_spans_trace_every_sampled_request_of_a_batch(self):
        # A batch is skipped only when its last index lies below the
        # collector's next sampled index; any sampled request inside a
        # batch, first entry or not, is traced.
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3)] * 12
        sampler = SpanSampler(5, 0.3)
        spans = SpanCollector(sampler, max_traces=len(pairs))
        serve_shard(
            _engine(),
            self._queue(pairs),
            batch_size=4,
            batch_timeout=None,
            metrics=ShardMetrics(0),
            spans=spans,
        )
        expected = [index for index in range(len(pairs)) if sampler.sampled(index)]
        assert [index % 4 for index in expected] != [0] * len(expected)
        assert [trace.request_index for trace in spans.traces()] == expected

    def test_expanded_results_keep_the_per_request_values(self):
        # expand_batch must reproduce exactly what the loop measured: the
        # same float expressions over the enqueue stamps the queue carried.
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        requests = self._queue(pairs)
        entries = [requests.queue[index][0] for index in range(len(pairs))]
        engine = _engine()
        reference = _engine()
        emitted = []
        serve_shard(
            engine,
            requests,
            batch_size=2,
            batch_timeout=None,
            metrics=ShardMetrics(0),
            emit=emitted.append,
        )
        expected = []
        for service_seconds, started, finished, rows in emitted:
            assert service_seconds == finished - started
            batch = entries[len(expected) : len(expected) + len(rows)]
            reference_rows = reference.serve_batch([pair for _, pair, _ in batch])
            for (index, pair, enqueued_at), (revealed, swaps, cost) in zip(
                batch, reference_rows
            ):
                expected.append(
                    (
                        index,
                        pair,
                        engine.shard_index,
                        revealed,
                        swaps,
                        cost,
                        started - enqueued_at,
                        service_seconds,
                        finished - enqueued_at,
                        len(rows),
                    )
                )
        results = [
            result
            for record in emitted
            for result in expand_batch(engine.shard_index, record)
        ]
        assert all(type(result) is ServeResult for result in results)
        # A tuple subclass: equal, with exact floats, to the plain tuple of
        # the same values.
        assert results == expected
        with pytest.raises(AttributeError):
            results[0].shard = 1

    def test_expand_batch_uses_the_loops_float_expressions(self):
        # Stamps whose differences round: the helper must subtract exactly
        # as written, never reassociate.
        started, finished = 0.7, 1.1
        rows = [
            (4, (0, 1), True, 3, 0.0, 0.1),
            (9, (2, 3), False, 0, 2.5, 0.3),
        ]
        first, second = expand_batch(3, (finished - started, started, finished, rows))
        assert first == ServeResult(
            request_index=4,
            pair=(0, 1),
            shard=3,
            revealed=True,
            migration_swaps=3,
            communication_cost=0.0,
            queue_seconds=started - 0.1,
            service_seconds=finished - started,
            latency_seconds=finished - 0.1,
            batch_size=2,
        )
        assert second.queue_seconds == started - 0.3
        assert second.latency_seconds == finished - 0.3
        assert (second.shard, second.batch_size) == (3, 2)


class TestBrokerMechanics:
    def test_submit_before_start_rejected(self):
        service = ArrangementService([_engine()], _partition())
        with pytest.raises(ServiceError):
            service.submit((0, 1))

    def test_results_come_back_in_submission_order(self):
        report = _serve_stream("zipf-tenants", 24, 300, 0, 3, 4)
        indices = [result.request_index for result in report.results]
        assert indices == list(range(len(report.results)))

    def test_context_manager_drains(self):
        stream = get_scenario("zipf-tenants").request_stream(16, 100, 0)
        pair = next(iter(stream))
        with build_traffic_service(stream, num_shards=2) as service:
            service.submit(pair)
        # Exiting the context drained the service; further submits fail.
        with pytest.raises(ServiceError):
            service.submit(pair)

    def test_engine_count_must_match_partition(self):
        with pytest.raises(ServiceError):
            ArrangementService([_engine()], partition_components(
                [[0, 1], [2, 3]], [0, 1, 2, 3], 2
            ))

    def test_invalid_batch_and_queue_parameters_rejected(self):
        engine = _engine()
        partition = _partition()
        with pytest.raises(ServiceError):
            ArrangementService([engine], partition, batch_size=0)
        with pytest.raises(ServiceError):
            ArrangementService([engine], partition, batch_timeout=0.0)
        with pytest.raises(ServiceError):
            ArrangementService([engine], partition, queue_capacity=0)


_NOT_RUNNING = "the service is not running (start() it, and submit before drain())"


def _two_shard_service(backend, batch_size=1):
    partition = partition_components([[0, 1], [2, 3]], [0, 1, 2, 3], 2)
    engines = [
        ShardEngine(
            shard_index=shard,
            nodes=nodes,
            kind=GraphKind.CLIQUES,
            learner_factory=RandomizedCliqueLearner,
            rng=random.Random(shard),
            datacenter=LinearDatacenter(len(nodes)),
        )
        for shard, nodes in enumerate(partition.shard_nodes)
    ]
    return ArrangementService(engines, partition, batch_size=batch_size, backend=backend)


def _both_submits_raise(service, pair, message):
    for submit in (service.submit, service.try_submit):
        with pytest.raises(ServiceError, match=re.escape(message)):
            submit(pair)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSubmitFold:
    """Routing, numbering and stamping in one frame keeps every refusal."""

    def test_before_start(self, backend):
        service = _two_shard_service(backend)
        try:
            _both_submits_raise(service, (0, 1), _NOT_RUNNING)
        finally:
            service.close()

    def test_after_drain(self, backend):
        service = _two_shard_service(backend).start()
        try:
            assert service.submit((0, 1)) == 0
            service.drain()
            _both_submits_raise(service, (0, 1), _NOT_RUNNING)
        finally:
            service.close()

    def test_after_close(self, backend):
        service = _two_shard_service(backend).start()
        service.close()
        _both_submits_raise(service, (0, 1), _NOT_RUNNING)

    def test_unknown_node(self, backend):
        service = _two_shard_service(backend).start()
        try:
            for pair in ((0, 9), (9, 0)):
                _both_submits_raise(
                    service,
                    pair,
                    "request names unknown node 9; the service hosts 4 nodes",
                )
            # Nothing was numbered: the next request still gets index 0.
            assert service.submit((2, 3)) == 0
            service.drain()
        finally:
            service.close()

    def test_cross_shard_pair(self, backend):
        service = _two_shard_service(backend).start()
        try:
            _both_submits_raise(
                service,
                (1, 2),
                "request (1, 2) crosses shards 0 and 1; the partition must be "
                "component-aligned (requests and reveals are intra-component "
                "in the paper's model)",
            )
            assert service.try_submit((3, 2)) == 0
            assert [result.shard for result in service.drain()] == [1]
        finally:
            service.close()


class TestConcurrentSubmitters:
    def test_every_request_is_numbered_once_and_served_once(self):
        # More submitters than cores and a short switch interval: a lost
        # update of the index counter or a shard buffer shows as a
        # duplicate index or a missing result.
        pairs = [(0, 1), (2, 3), (1, 0), (3, 2)]
        submitters, per_submitter = 6, 300
        service = _two_shard_service("thread", batch_size=4).start()
        indices = [[] for _ in range(submitters)]

        def submit_all(mine):
            for step in range(per_submitter):
                mine.append(service.submit(pairs[step % len(pairs)], timeout=30.0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submit_all, args=(mine,)) for mine in indices
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            results = service.drain()
        finally:
            service.close()
        total = submitters * per_submitter
        assert sorted(index for mine in indices for index in mine) == list(range(total))
        assert [result.request_index for result in results] == list(range(total))
        served = {pair: 0 for pair in pairs}
        for result in results:
            served[result.pair] += 1
        assert served == {pair: total // len(pairs) for pair in pairs}
        for mine in indices:
            assert mine == sorted(mine)


class TestSubmitClock:
    def test_manual_clock_installed_before_start_gives_exact_queue_seconds(self):
        clock = ManualClock(10.0)
        previous = set_clock(clock)
        service = ArrangementService([_engine()], _partition(), batch_size=2)
        try:
            service.start()
            service.submit((0, 1))
            clock.advance(0.25)
            # Completes the batch; the worker stamps it at 10.25.
            service.submit((0, 2))
            first, second = service.drain()
        finally:
            service.close()
            set_clock(previous)
        assert (first.queue_seconds, second.queue_seconds) == (0.25, 0.0)
        assert (first.latency_seconds, second.latency_seconds) == (0.25, 0.0)
        assert first.service_seconds == 0.0


# ----------------------------------------------------------------------
# Load generator modes
# ----------------------------------------------------------------------
class TestLoadGenerator:
    def test_open_loop_requires_a_rate(self):
        with pytest.raises(ServiceError, match="rate"):
            run_scenario_loadgen(
                get_scenario("zipf-tenants"), 16, 100, mode="open"
            )

    def test_open_loop_serves_every_request(self):
        report = run_scenario_loadgen(
            get_scenario("zipf-tenants"),
            16,
            150,
            seed=1,
            num_shards=2,
            mode="open",
            rate=50_000.0,
        )
        assert report.summary.num_requests == 150
        assert report.mode == "open"

    def test_closed_loop_serves_every_request(self):
        report = run_scenario_loadgen(
            get_scenario("zipf-tenants"),
            16,
            150,
            seed=1,
            num_shards=2,
            batch_size=8,
            mode="closed",
            concurrency=4,
        )
        assert report.summary.num_requests == 150
        # Closed-loop batching is adaptive: a window of 4 can never fill an
        # 8-wide batch, so the batcher must have cut batches early.
        assert report.summary.mean_batch <= 4.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ServiceError, match="mode"):
            run_scenario_loadgen(get_scenario("zipf-tenants"), 16, 100, mode="burst")

    def test_mixed_streams_rejected(self):
        stream = get_scenario("mixed-fleet").request_stream(24, 200, 0)
        with pytest.raises(ServiceError, match="kind-pure"):
            build_traffic_service(stream)

    def test_loadgen_latency_summary_is_complete(self):
        report = _serve_stream("zipf-tenants", 16, 200, 0, 2, 4)
        summary = report.summary
        for key in ("p50", "p95", "p99", "mean", "max"):
            assert summary.latency_ms[key] >= 0.0
        assert summary.latency_ms["p50"] <= summary.latency_ms["p95"]
        assert summary.latency_ms["p95"] <= summary.latency_ms["p99"]
        assert summary.throughput > 0
        text = summary.to_text()
        assert "p99" in text and "throughput" in text
        table = summary.to_table("t")
        assert table.rows and len(table.rows[0]) == len(table.columns)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile(values, 1.0) == 4.0
        assert percentile([7.0], 0.5) == 7.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ServiceError):
            percentile([], 0.5)
        with pytest.raises(ServiceError):
            percentile([1.0], 0.0)

    def test_summarize_rejects_empty_runs(self):
        with pytest.raises(ServiceError):
            summarize_results([], [], 1.0, 1)


# ----------------------------------------------------------------------
# Engine validation
# ----------------------------------------------------------------------
class TestShardEngine:
    def test_empty_universe_rejected(self):
        with pytest.raises(ServiceError):
            ShardEngine(0, (), GraphKind.CLIQUES, RandomizedCliqueLearner)

    def test_datacenter_size_must_match(self):
        with pytest.raises(ServiceError):
            ShardEngine(
                0,
                (0, 1, 2),
                GraphKind.CLIQUES,
                RandomizedCliqueLearner,
                datacenter=LinearDatacenter(5),
            )

    def test_serve_batch_returns_plain_rows(self):
        # One (revealed, migration_swaps, communication_cost) tuple per
        # request: the reveal is charged on the embedding as of the batch
        # start, the repeat of a joined pair costs no swaps.
        engine = ShardEngine(
            0,
            (0, 1, 2, 3),
            GraphKind.CLIQUES,
            RandomizedCliqueLearner,
            rng=random.Random(1),
            datacenter=LinearDatacenter(4),
        )
        rows = engine.serve_batch([(0, 3), (0, 3)])
        swaps = engine.ledger.total_cost
        assert swaps > 0
        assert rows == [(True, swaps, 3.0), (False, 0, 3.0)]
        assert [type(value) for value in rows[0]] == [bool, int, float]
        report = engine.report()
        assert report.num_requests == 2
        assert report.num_batches == 1
        assert report.num_reveals == 1
        # The next batch is charged on the embedding the reveal left.
        moved = engine.current_arrangement
        distance = float(abs(moved.position(0) - moved.position(3)))
        assert engine.serve_batch([(3, 0)]) == [(False, 0, distance)]

    def test_reveals_mode_rows_carry_no_communication(self):
        engine = ShardEngine(
            0,
            (0, 1, 2, 3),
            GraphKind.CLIQUES,
            RandomizedCliqueLearner,
            rng=random.Random(1),
        )
        rows = engine.serve_batch([(0, 3), (1, 2)])
        assert [revealed for revealed, _, _ in rows] == [True, True]
        assert [cost for _, _, cost in rows] == [0.0, 0.0]
        assert sum(swaps for _, swaps, _ in rows) == engine.ledger.total_cost
        assert engine.serve_batch([]) == []
        assert engine.report().num_batches == 1

    def test_concurrent_shards_do_not_share_state(self):
        # Two engines served from two threads produce the same totals as
        # the same engines served sequentially.
        def build_engines():
            return [
                ShardEngine(
                    index,
                    tuple(range(index * 4, index * 4 + 4)),
                    GraphKind.CLIQUES,
                    RandomizedCliqueLearner,
                    rng=shard_rng(0, index),
                    datacenter=LinearDatacenter(4),
                )
                for index in range(2)
            ]

        pairs = [(0, 1), (4, 5), (0, 2), (6, 7), (1, 3), (4, 6)]
        sequential = build_engines()
        for u, v in pairs:
            sequential[u // 4].serve_batch([(u, v)])
        concurrent = build_engines()
        threads = [
            threading.Thread(
                target=lambda shard: [
                    concurrent[shard].serve_batch([pair])
                    for pair in pairs
                    if pair[0] // 4 == shard
                ],
                args=(shard,),
            )
            for shard in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for left, right in zip(sequential, concurrent):
            assert left.report().total_cost == right.report().total_cost


# ----------------------------------------------------------------------
# Process backend: bit-identity, liveness, cleanup
# ----------------------------------------------------------------------
def _cost_outcome(result):
    """The deterministic slice of a ServeResult (timings excluded)."""
    return (
        result.request_index,
        result.pair,
        result.shard,
        result.revealed,
        result.migration_swaps,
        result.communication_cost,
        result.batch_size,
    )


class TestProcessBackend:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_backends_serve_identical_outcomes(self, shards):
        # Same scenario, seed, shards and batch ⇒ the thread- and
        # process-backed fleets produce identical per-request outcomes,
        # request by request, not just equal totals.
        reports = {
            backend: _serve_stream("zipf-tenants", 24, 300, 7, shards, 4, backend)
            for backend in BACKENDS
        }
        thread_outcomes = [_cost_outcome(r) for r in reports["thread"].results]
        process_outcomes = [_cost_outcome(r) for r in reports["process"].results]
        assert thread_outcomes == process_outcomes
        assert (
            reports["thread"].summary.total_cost
            == reports["process"].summary.total_cost
        )

    def test_sequential_thread_process_totals_agree(self):
        # The 1-shard offline controller is the sequential reference; both
        # concurrent backends must reproduce its totals bit for bit.
        scenario = get_scenario("zipf-tenants")
        stream = scenario.request_stream(24, 400, 3)
        datacenter = LinearDatacenter(stream.num_nodes)
        controller = DemandAwareController(datacenter, RandomizedCliqueLearner)
        offline = controller.run_stream(stream, rng=shard_rng(3, 0), batch_size=8)
        for backend in BACKENDS:
            report = _serve_stream("zipf-tenants", 24, 400, 3, 1, 8, backend)
            assert report.summary.total_cost == offline.total_cost
            assert report.backend == backend

    def test_killed_worker_raises_instead_of_hanging(self):
        service = ArrangementService(
            [_engine()], _partition(), queue_capacity=1, backend="process"
        ).start()
        try:
            process = service._fleet._processes[0]
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10.0)
            deadline = time.monotonic() + 10.0
            with pytest.raises(ServiceError, match="shard 0"):
                # The queue may absorb one pending slot; keep submitting
                # until liveness polling notices the corpse.
                while time.monotonic() < deadline:
                    service.submit((0, 1), timeout=1.0)
                raise AssertionError("dead worker never surfaced")
            with pytest.raises(ServiceError, match="shard 0"):
                service.drain()
        finally:
            service.close()
        assert not service._fleet._processes[0].is_alive()

    def test_close_leaves_no_orphans(self):
        service = build_traffic_service(
            get_scenario("zipf-tenants").request_stream(16, 50, 0),
            num_shards=2,
            backend="process",
        )
        with service:
            service.start()
            for pair in get_scenario("zipf-tenants").request_stream(16, 50, 0):
                service.submit(pair)
        # Context exit drained and closed: every worker is reaped.
        assert all(not p.is_alive() for p in service._fleet._processes)

    def test_shard_arrangement_needs_a_drain(self):
        # The process backend's arrangements live in the workers until the
        # drain ships them home; an earlier read is an error, not stale data.
        service = ArrangementService([_engine()], _partition(), backend="process")
        try:
            service.start()
            service.submit((0, 1))
            with pytest.raises(ServiceError, match="drain"):
                service.shard_arrangement(0)
            service.drain()
            assert service.shard_arrangement(0).nodes == frozenset(range(4))
        finally:
            service.close()

    def test_shard_arrangement_matches_thread_backend(self):
        # The arrangement each process worker ships home at the drain must
        # equal the arrangement the thread backend's engines hold after the
        # identical workload.
        arrangements = {}
        for backend in BACKENDS:
            service = build_traffic_service(
                get_scenario("zipf-tenants").request_stream(24, 200, 5),
                num_shards=2,
                seed=5,
                batch_size=4,
                backend=backend,
            )
            try:
                service.start()
                for pair in get_scenario("zipf-tenants").request_stream(24, 200, 5):
                    service.submit(pair)
                service.drain()
                arrangements[backend] = [
                    service.shard_arrangement(shard).order
                    for shard in range(service.num_shards)
                ]
            finally:
                service.close()
        assert arrangements["thread"] == arrangements["process"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_stats_reach_the_summary(self, backend):
        report = _serve_stream("zipf-tenants", 16, 100, 0, 2, 4, backend)
        summary = report.summary
        assert summary.backend == backend
        assert len(summary.shard_stats) == 2
        for stats in summary.shard_stats:
            assert stats.num_batches > 0
            assert stats.queue_peak >= 1
            assert 0.0 <= stats.busy_fraction <= 1.0
        assert summary.max_queue_peak >= 1
        assert f"backend={backend}" in summary.to_text()
        assert "queue peak" in summary.to_text()


# ----------------------------------------------------------------------
# Backend selection (explicit argument and REPRO_SERVICE_BACKEND)
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_explicit_backend_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_BACKEND", "process")
        assert resolve_backend("thread") == "thread"

    def test_env_backend_applies_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_BACKEND", "process")
        assert resolve_backend() == "process"
        assert resolve_backend(None) == "process"

    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_BACKEND", raising=False)
        assert resolve_backend() == "thread"

    def test_invalid_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_BACKEND", "greenlet")
        with pytest.raises(ServiceError, match="REPRO_SERVICE_BACKEND"):
            resolve_backend()

    def test_invalid_explicit_backend_rejected(self):
        with pytest.raises(ServiceError, match="backend"):
            resolve_backend("fiber")

    def test_service_rejects_unknown_backend(self):
        engine = ShardEngine(
            shard_index=0,
            nodes=(0, 1, 2, 3),
            kind=GraphKind.CLIQUES,
            learner_factory=RandomizedCliqueLearner,
            rng=random.Random(0),
            datacenter=LinearDatacenter(4),
        )
        partition = partition_components([[0, 1, 2, 3]], [0, 1, 2, 3], 1)
        with pytest.raises(ServiceError, match="backend"):
            ArrangementService([engine], partition, backend="fiber")
