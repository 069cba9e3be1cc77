"""Property-based tests for the workload generators and the JSON round trip."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import OnlineMinLAInstance
from repro.graphs.reveal import GraphKind
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    sequence_from_dict,
    sequence_to_dict,
)
from repro.workloads.generation import (
    balanced_clique_merge_sequence,
    growing_clique_sequence,
    pipeline_line_sequence,
    random_clique_merge_sequence,
    random_line_sequence,
    tenant_clique_sequence,
)


class TestGeneratorInvariants:
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=5),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_clique_generator_reaches_requested_component_count(
        self, n, seed, final_components, size_biased
    ):
        final_components = min(final_components, n)
        sequence = random_clique_merge_sequence(
            n, random.Random(seed), num_final_components=final_components, size_biased=size_biased
        )
        assert sequence.kind is GraphKind.CLIQUES
        assert len(sequence) == n - final_components
        assert len(sequence.final_components()) == final_components
        assert frozenset().union(*sequence.final_components()) == frozenset(range(n))

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=5),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_line_generator_produces_valid_paths(self, n, seed, final_components, sequential):
        final_components = min(final_components, n)
        sequence = random_line_sequence(
            n,
            random.Random(seed),
            num_final_components=final_components,
            sequential=sequential,
        )
        assert sequence.kind is GraphKind.LINES
        paths = sequence.final_paths()
        assert len(paths) == final_components
        assert sum(len(path) for path in paths) == n

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_structured_clique_generators(self, n):
        for sequence in (growing_clique_sequence(n), balanced_clique_merge_sequence(n)):
            assert len(sequence) == n - 1
            assert sequence.final_components() == [frozenset(range(n))]

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_tenant_and_pipeline_generators_respect_group_sizes(
        self, sizes, seed, interleave
    ):
        rng = random.Random(seed)
        tenants = tenant_clique_sequence(sizes, rng, interleave=interleave)
        assert sorted(len(c) for c in tenants.final_components()) == sorted(sizes)
        pipelines = pipeline_line_sequence(sizes, random.Random(seed + 1), interleave=interleave)
        assert sorted(len(c) for c in pipelines.final_components()) == sorted(sizes)


class TestSerializationRoundTripProperties:
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sequence_round_trip_preserves_structure(self, n, seed, use_lines):
        rng = random.Random(seed)
        if use_lines:
            sequence = random_line_sequence(n, rng)
        else:
            sequence = random_clique_merge_sequence(n, rng)
        restored = sequence_from_dict(sequence_to_dict(sequence))
        assert restored.kind == sequence.kind
        assert restored.nodes == sequence.nodes
        assert [s.as_tuple() for s in restored.steps] == [s.as_tuple() for s in sequence.steps]
        assert sorted(map(len, restored.final_components())) == sorted(
            map(len, sequence.final_components())
        )

    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_instance_round_trip_is_identity(self, n, seed):
        rng = random.Random(seed)
        sequence = random_clique_merge_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        restored = instance_from_dict(instance_to_dict(instance))
        assert restored.initial_arrangement == instance.initial_arrangement
        assert restored.num_steps == instance.num_steps
        assert restored.kind == instance.kind
