"""Tests for the virtual network embedding substrate (topology, embedding, traffic, controllers)."""

import random

import pytest

from repro.core.det import DeterministicClosestLearner
from repro.core.permutation import Arrangement, random_arrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.errors import EmbeddingError, ReproError
from repro.graphs.reveal import GraphKind
from repro.vnet.controller import (
    DemandAwareController,
    OracleController,
    StaticController,
)
from repro.vnet.embedding import Embedding
from repro.vnet.topology import LinearDatacenter
from repro.vnet.traffic import pipeline_traffic, tenant_traffic


class TestLinearDatacenter:
    def test_distances_and_costs(self):
        datacenter = LinearDatacenter(8, communication_cost_per_hop=2.0, migration_cost_per_swap=3.0)
        assert datacenter.distance(1, 5) == 4
        assert datacenter.communication_cost(1, 5) == 8.0
        assert datacenter.migration_cost(5) == 15.0
        assert list(datacenter) == list(range(8))
        assert datacenter.slots == list(range(8))

    def test_validation(self):
        with pytest.raises(EmbeddingError):
            LinearDatacenter(0)
        with pytest.raises(EmbeddingError):
            LinearDatacenter(4, communication_cost_per_hop=-1)
        datacenter = LinearDatacenter(4)
        with pytest.raises(EmbeddingError):
            datacenter.distance(0, 4)
        with pytest.raises(EmbeddingError):
            datacenter.migration_cost(-1)


class TestEmbedding:
    def test_initial_embedding_and_queries(self):
        datacenter = LinearDatacenter(3)
        embedding = Embedding.initial(datacenter, ["vmA", "vmB", "vmC"])
        assert embedding.slot_of("vmB") == 1
        assert embedding.communication_cost([("vmA", "vmC")]) == 2.0

    def test_size_mismatch_rejected(self):
        datacenter = LinearDatacenter(3)
        with pytest.raises(EmbeddingError):
            Embedding.initial(datacenter, ["a", "b"])

    def test_migration_cost_is_kendall_tau_times_price(self):
        datacenter = LinearDatacenter(4, migration_cost_per_swap=2.0)
        first = Embedding.initial(datacenter, ["a", "b", "c", "d"])
        second = first.with_arrangement(Arrangement(["b", "a", "d", "c"]))
        assert first.migration_cost_to(second) == 4.0

    def test_migration_requires_same_datacenter(self):
        first = Embedding.initial(LinearDatacenter(2), ["a", "b"])
        second = Embedding.initial(LinearDatacenter(2, migration_cost_per_swap=5.0), ["a", "b"])
        with pytest.raises(EmbeddingError):
            first.migration_cost_to(second)


class TestTrafficGenerators:
    def test_tenant_traffic_structure(self):
        rng = random.Random(0)
        trace = tenant_traffic([4, 4], 300, rng)
        assert trace.kind is GraphKind.CLIQUES
        assert trace.num_nodes == 8
        assert trace.num_requests == 300
        groups = [set(range(4)), set(range(4, 8))]
        for u, v in trace.requests:
            assert any(u in group and v in group for group in groups)
        # The induced reveal sequence only ever merges within groups.
        final_sizes = sorted(len(c) for c in trace.sequence.final_components())
        assert max(final_sizes) <= 4

    def test_pipeline_traffic_structure(self):
        rng = random.Random(1)
        trace = pipeline_traffic([5, 3], 300, rng)
        assert trace.kind is GraphKind.LINES
        valid_edges = {(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)}
        for u, v in trace.requests:
            assert (u, v) in valid_edges or (v, u) in valid_edges

    def test_generator_validation(self):
        with pytest.raises(ReproError):
            tenant_traffic([1, 4], 10, random.Random(0))
        with pytest.raises(ReproError):
            pipeline_traffic([4], 0, random.Random(0))


class TestControllers:
    def _setup(self, seed=0):
        rng = random.Random(seed)
        trace = tenant_traffic([4, 4, 4], 400, rng)
        datacenter = LinearDatacenter(trace.num_nodes)
        initial = Embedding(datacenter, random_arrangement(trace.virtual_nodes, rng))
        return datacenter, trace, initial

    def test_static_controller_never_migrates(self):
        datacenter, trace, initial = self._setup()
        report = StaticController(datacenter).run(trace, initial_embedding=initial)
        assert report.migration_cost == 0.0
        assert report.communication_cost > 0
        assert report.total_cost == report.communication_cost
        assert report.num_requests == trace.num_requests

    def test_oracle_controller_migrates_once_and_reduces_communication(self):
        datacenter, trace, initial = self._setup()
        static = StaticController(datacenter).run(trace, initial_embedding=initial)
        oracle = OracleController(datacenter).run(trace, initial_embedding=initial)
        assert oracle.communication_cost < static.communication_cost
        assert oracle.migration_cost >= 0

    def test_demand_aware_controller_beats_static_on_repeating_traffic(self):
        datacenter, trace, initial = self._setup()
        static = StaticController(datacenter).run(trace, initial_embedding=initial)
        demand_aware = DemandAwareController(datacenter, RandomizedCliqueLearner).run(
            trace, initial_embedding=initial, rng=random.Random(7)
        )
        assert demand_aware.total_cost < static.total_cost
        assert demand_aware.migration_cost > 0

    def test_demand_aware_with_det_on_pipeline_traffic(self):
        rng = random.Random(2)
        trace = pipeline_traffic([4, 4], 200, rng)
        datacenter = LinearDatacenter(trace.num_nodes)
        initial = Embedding(datacenter, random_arrangement(trace.virtual_nodes, rng))
        report = DemandAwareController(datacenter, DeterministicClosestLearner).run(
            trace, initial_embedding=initial
        )
        assert report.total_cost > 0

    def test_demand_aware_with_rand_lines_on_pipeline_traffic(self):
        rng = random.Random(3)
        trace = pipeline_traffic([5, 5], 300, rng)
        datacenter = LinearDatacenter(trace.num_nodes)
        initial = Embedding(datacenter, random_arrangement(trace.virtual_nodes, rng))
        static = StaticController(datacenter).run(trace, initial_embedding=initial)
        demand_aware = DemandAwareController(datacenter, RandomizedLineLearner).run(
            trace, initial_embedding=initial, rng=random.Random(4)
        )
        assert demand_aware.communication_cost < static.communication_cost

    def test_default_embedding_requires_matching_slot_count(self):
        rng = random.Random(5)
        trace = tenant_traffic([3, 3], 50, rng)
        datacenter = LinearDatacenter(trace.num_nodes + 1)
        with pytest.raises(EmbeddingError):
            StaticController(datacenter).run(trace)

    def test_mismatched_embedding_rejected(self):
        datacenter, trace, _ = self._setup()
        other_datacenter = LinearDatacenter(trace.num_nodes, migration_cost_per_swap=9.0)
        wrong_embedding = Embedding.initial(other_datacenter, trace.virtual_nodes)
        with pytest.raises(EmbeddingError):
            StaticController(datacenter).run(trace, initial_embedding=wrong_embedding)


class TestStaticStreamDistanceCache:
    """The per-tenant-pair distance cache of StaticController.run_stream."""

    def _stream(self, num_requests=3_000):
        from repro.workloads.streaming import tenant_request_stream

        return tenant_request_stream(
            [4, 6, 5, 3], num_requests, "cache-seed", weighting="zipf"
        )

    def test_cached_costs_are_bit_identical_to_the_naive_loop(self):
        # An irrational per-hop price makes every term a non-trivial float,
        # so this really checks bit-identity of the accumulation, not just
        # integer luck.
        stream = self._stream()
        datacenter = LinearDatacenter(
            stream.num_nodes, communication_cost_per_hop=1.0 / 3.0
        )
        initial = Embedding(
            datacenter, random_arrangement(stream.virtual_nodes, random.Random(11))
        )
        report = StaticController(datacenter).run_stream(
            stream, initial_embedding=initial, batch_size=256
        )
        naive = 0.0
        for u, v in stream:
            naive += datacenter.communication_cost(
                initial.slot_of(u), initial.slot_of(v)
            )
        assert report.communication_cost == naive
        assert report.migration_cost == 0.0
        assert report.num_requests == stream.num_requests

    def test_cached_stream_matches_the_materialized_run(self):
        stream = self._stream(num_requests=800)
        datacenter = LinearDatacenter(stream.num_nodes)
        initial = Embedding(
            datacenter, random_arrangement(stream.virtual_nodes, random.Random(3))
        )
        streamed = StaticController(datacenter).run_stream(
            stream, initial_embedding=initial, batch_size=128
        )
        materialized = StaticController(datacenter).run(
            stream.materialize_trace(), initial_embedding=initial
        )
        assert streamed.communication_cost == materialized.communication_cost
        assert streamed.num_requests == materialized.num_requests


class TestDemandAwareIncrementalDistanceCache:
    """Incremental invalidation of the demand-aware streamed distance cache."""

    def _stream(self, num_requests=2_500):
        from repro.workloads.streaming import tenant_request_stream

        return tenant_request_stream(
            [5, 4, 6, 3, 4], num_requests, "da-cache-seed", weighting="zipf"
        )

    def _uncached_run_stream(self, stream, datacenter, initial, rng, batch_size):
        """The pre-cache reference loop: full recomputation every batch."""
        from repro.graphs.components import DisjointSetForest
        from repro.graphs.reveal import RevealStep

        learner = RandomizedCliqueLearner()
        learner.reset(
            nodes=list(stream.virtual_nodes),
            kind=stream.kind,
            initial_arrangement=initial.arrangement,
            rng=rng,
        )
        components = DisjointSetForest(stream.virtual_nodes)
        embedding = initial
        migration_swaps = 0
        communication = 0.0
        for batch in stream.batches(batch_size):
            communication += embedding.communication_cost(batch)
            revealed = False
            for u, v in batch:
                if not components.connected(u, v):
                    migration_swaps += learner.process(RevealStep(u, v)).total_cost
                    components.union(u, v)
                    revealed = True
            if revealed:
                embedding = embedding.with_arrangement(learner.current_arrangement)
        return migration_swaps, communication

    def test_incremental_cache_is_bit_identical_to_the_uncached_path(self):
        # An irrational per-hop price makes every term a non-trivial float:
        # this checks bit-identity of values *and* accumulation order.
        stream = self._stream()
        datacenter = LinearDatacenter(
            stream.num_nodes, communication_cost_per_hop=1.0 / 3.0
        )
        initial = Embedding(
            datacenter, random_arrangement(stream.virtual_nodes, random.Random(21))
        )
        for batch_size in (1, 64, 512):
            swaps, communication = self._uncached_run_stream(
                stream, datacenter, initial, random.Random("da-ref"), batch_size
            )
            report = DemandAwareController(
                datacenter, RandomizedCliqueLearner
            ).run_stream(
                stream,
                initial_embedding=initial,
                rng=random.Random("da-ref"),
                batch_size=batch_size,
            )
            assert report.communication_cost == communication
            assert report.migration_ledger.total_cost == swaps

    def test_rebind_evicts_only_pairs_with_moved_endpoints(self):
        from repro.core.permutation import Arrangement
        from repro.vnet.distance_cache import SlotDistanceCache

        datacenter = LinearDatacenter(5)
        embedding = Embedding(datacenter, Arrangement([0, 1, 2, 3, 4]))
        cache = SlotDistanceCache(embedding)
        assert cache.cost(0, 1) == 1.0
        assert cache.cost(3, 4) == 1.0
        assert len(cache) == 2
        # Swap nodes 3 and 4: only their pair may be evicted.
        moved = Embedding(datacenter, Arrangement([0, 1, 2, 4, 3]))
        assert cache.rebind(moved) == 1
        assert len(cache) == 1
        assert cache.cost(3, 4) == 1.0  # recomputed on the new embedding
        # A no-op rebind evicts nothing.
        assert cache.rebind(moved) == 0

    def test_rebind_handles_pairs_whose_both_endpoints_moved(self):
        from repro.core.permutation import Arrangement
        from repro.vnet.distance_cache import SlotDistanceCache

        datacenter = LinearDatacenter(4)
        embedding = Embedding(datacenter, Arrangement([0, 1, 2, 3]))
        cache = SlotDistanceCache(embedding)
        cache.cost(0, 1)
        cache.cost(2, 3)
        rotated = Embedding(datacenter, Arrangement([1, 0, 3, 2]))
        assert cache.rebind(rotated) == 2
        assert len(cache) == 0
        assert cache.cost(0, 1) == 1.0

    def test_trace_every_records_a_downsampled_migration_trace(self):
        stream = self._stream(num_requests=1_200)
        datacenter = LinearDatacenter(stream.num_nodes)
        report = DemandAwareController(
            datacenter, RandomizedCliqueLearner
        ).run_stream(stream, rng=random.Random(5), batch_size=128, trace_every=4)
        trace = report.trace
        assert trace is not None
        assert trace.every == 4
        # Exact totals survive downsampling and equal the ledger's.
        assert trace.total_cost == report.migration_ledger.total_cost
        assert trace.num_steps == report.num_reveals
        assert len(trace.events) <= report.num_reveals // 4 + 2
        # Untraced runs carry no trace.
        untraced = DemandAwareController(
            datacenter, RandomizedCliqueLearner
        ).run_stream(stream, rng=random.Random(5), batch_size=128)
        assert untraced.trace is None
        assert untraced.migration_ledger.total_cost == report.migration_ledger.total_cost
