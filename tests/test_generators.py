"""Unit tests for the workload generators."""

import random

import pytest

from repro.errors import ReproError
from repro.graphs.reveal import GraphKind
from repro.workloads.generation import (
    balanced_clique_merge_sequence,
    growing_clique_sequence,
    pipeline_line_sequence,
    random_clique_merge_sequence,
    random_line_sequence,
    sequential_line_sequence,
    tenant_clique_sequence,
)


class TestCliqueGenerators:
    def test_random_merge_fully_connects(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(10, rng)
        assert sequence.kind is GraphKind.CLIQUES
        assert len(sequence) == 9
        assert sequence.final_components() == [frozenset(range(10))]

    def test_random_merge_multiple_final_components(self):
        rng = random.Random(1)
        sequence = random_clique_merge_sequence(10, rng, num_final_components=3)
        assert len(sequence.final_components()) == 3
        assert len(sequence) == 7

    def test_random_merge_size_biased(self):
        rng = random.Random(2)
        sequence = random_clique_merge_sequence(12, rng, size_biased=True)
        assert sequence.final_components() == [frozenset(range(12))]

    def test_random_merge_custom_nodes(self):
        rng = random.Random(3)
        nodes = [f"vm{i}" for i in range(5)]
        sequence = random_clique_merge_sequence(5, rng, nodes=nodes)
        assert set(sequence.nodes) == set(nodes)

    def test_random_merge_node_count_mismatch(self):
        with pytest.raises(ReproError):
            random_clique_merge_sequence(4, random.Random(0), nodes=["a", "b"])

    def test_invalid_component_count(self):
        with pytest.raises(ReproError):
            random_clique_merge_sequence(4, random.Random(0), num_final_components=0)
        with pytest.raises(ReproError):
            random_clique_merge_sequence(4, random.Random(0), num_final_components=5)

    def test_balanced_merges_power_of_two(self):
        sequence = balanced_clique_merge_sequence(8)
        assert len(sequence) == 7
        sizes_after_round_one = sorted(len(c) for c in sequence.components_after(4))
        assert sizes_after_round_one == [2, 2, 2, 2]
        sizes_after_round_two = sorted(len(c) for c in sequence.components_after(6))
        assert sizes_after_round_two == [4, 4]

    def test_balanced_merges_non_power_of_two(self):
        sequence = balanced_clique_merge_sequence(6, rng=random.Random(0))
        assert sequence.final_components() == [frozenset(range(6))]

    def test_growing_clique(self):
        sequence = growing_clique_sequence(6)
        assert len(sequence) == 5
        sizes = sorted(len(c) for c in sequence.components_after(3))
        assert sizes == [1, 1, 4]

    def test_tenant_cliques(self):
        rng = random.Random(4)
        sequence = tenant_clique_sequence([3, 4, 2], rng)
        final_sizes = sorted(len(c) for c in sequence.final_components())
        assert final_sizes == [2, 3, 4]

    def test_tenant_cliques_sequential(self):
        rng = random.Random(5)
        sequence = tenant_clique_sequence([2, 2], rng, interleave=False)
        assert len(sequence) == 2

    def test_tenant_cliques_invalid_sizes(self):
        with pytest.raises(ReproError):
            tenant_clique_sequence([], random.Random(0))
        with pytest.raises(ReproError):
            tenant_clique_sequence([0, 3], random.Random(0))


class TestLineGenerators:
    def test_random_line_single_path(self):
        rng = random.Random(0)
        sequence = random_line_sequence(10, rng)
        assert sequence.kind is GraphKind.LINES
        paths = sequence.final_paths()
        assert len(paths) == 1
        assert len(paths[0]) == 10

    def test_random_line_multiple_paths(self):
        rng = random.Random(1)
        sequence = random_line_sequence(10, rng, num_final_components=3)
        assert len(sequence.final_components()) == 3

    def test_random_line_sequential_reveal(self):
        rng = random.Random(2)
        sequence = random_line_sequence(6, rng, sequential=True)
        # Sequential reveal grows one path from one end: after i steps there is
        # a path of i+1 nodes plus singletons.
        sizes = sorted(len(c) for c in sequence.components_after(3))
        assert sizes == [1, 1, 4]

    def test_sequential_line_sequence(self):
        sequence = sequential_line_sequence(5)
        assert sequence.final_paths() in ([(0, 1, 2, 3, 4)], [(4, 3, 2, 1, 0)])

    def test_pipeline_lines(self):
        rng = random.Random(3)
        sequence = pipeline_line_sequence([3, 5], rng)
        sizes = sorted(len(c) for c in sequence.final_components())
        assert sizes == [3, 5]

    def test_pipeline_invalid_sizes(self):
        with pytest.raises(ReproError):
            pipeline_line_sequence([], random.Random(0))
        with pytest.raises(ReproError):
            pipeline_line_sequence([2, -1], random.Random(0))

    def test_generators_are_reproducible(self):
        first = random_line_sequence(12, random.Random(9))
        second = random_line_sequence(12, random.Random(9))
        assert [s.as_tuple() for s in first.steps] == [s.as_tuple() for s in second.steps]
