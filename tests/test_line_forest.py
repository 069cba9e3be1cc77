"""Unit tests for the incremental line-collection (path) model."""

import random

import pytest

from repro.errors import RevealError
from repro.graphs.line_forest import LineForest
from repro.workloads.generation import random_line_sequence


class TestLineForest:
    def test_initial_state(self):
        forest = LineForest(range(3))
        assert forest.num_components == 3
        assert forest.num_edges == 0
        assert forest.paths() == [(0,), (1,), (2,)] or len(forest.paths()) == 3
        assert all(forest.is_endpoint(node) for node in range(3))

    def test_duplicate_universe_rejected(self):
        with pytest.raises(RevealError):
            LineForest([1, 1])

    def test_add_edge_builds_paths_in_order(self):
        forest = LineForest(range(4))
        forest.add_edge(0, 1)
        forest.add_edge(2, 1)
        assert forest.path_of(0) in ((0, 1, 2), (2, 1, 0))
        forest.add_edge(3, 0)
        path = forest.path_of(1)
        assert path in ((3, 0, 1, 2), (2, 1, 0, 3))
        assert forest.num_edges == 3
        assert forest.num_components == 1

    def test_add_edge_same_component_rejected(self):
        forest = LineForest(range(3))
        forest.add_edge(0, 1)
        with pytest.raises(RevealError):
            forest.add_edge(1, 0)

    def test_add_edge_to_path_interior_rejected(self):
        forest = LineForest(range(4))
        forest.add_edge(0, 1)
        forest.add_edge(1, 2)
        # Node 1 is now in the interior of the path 0-1-2.
        with pytest.raises(RevealError):
            forest.add_edge(3, 1)

    def test_add_edge_unknown_node_rejected(self):
        forest = LineForest(range(2))
        with pytest.raises(RevealError):
            forest.add_edge(0, 99)

    def test_peek_edge_does_not_mutate(self):
        forest = LineForest(range(3))
        first, second = forest.peek_edge(0, 2)
        assert first == (0,) and second == (2,)
        assert forest.num_edges == 0

    def test_merge_record_contents(self):
        forest = LineForest(range(4))
        forest.add_edge(0, 1)
        record = forest.add_edge(2, 0)
        assert record.endpoint_first == 2
        assert record.endpoint_second == 0
        assert record.first == (2,)
        assert set(record.second) == {0, 1}
        assert record.merged in ((2, 0, 1), (1, 0, 2))

    def test_edges_and_networkx(self):
        forest = LineForest(range(5))
        forest.add_edge(0, 1)
        forest.add_edge(1, 2)
        forest.add_edge(3, 4)
        graph = forest.to_networkx()
        assert graph.number_of_edges() == 3
        degrees = sorted(dict(graph.degree()).values())
        assert degrees == [1, 1, 1, 1, 2]

    def test_is_endpoint(self):
        forest = LineForest(range(3))
        forest.add_edge(0, 1)
        forest.add_edge(1, 2)
        assert forest.is_endpoint(0)
        assert forest.is_endpoint(2)
        assert not forest.is_endpoint(1)

    def test_copy_is_independent(self):
        forest = LineForest(range(3))
        forest.add_edge(0, 1)
        clone = forest.copy()
        clone.add_edge(1, 2)
        assert forest.num_edges == 1
        assert clone.num_edges == 2


def _edge_steps(seed, n=24, final_components=3):
    """A seeded line reveal sequence's ``(u, v)`` pairs."""
    sequence = random_line_sequence(
        n, random.Random(seed), num_final_components=final_components
    )
    return [(step.u, step.v) for step in sequence.steps]


class TestPathObjects:
    """Reveals keep every unchanged path's tuple and append the joined one."""

    @pytest.mark.parametrize("seed", range(5))
    def test_a_reveal_replaces_exactly_the_joined_paths(self, seed):
        forest = LineForest(range(24))
        for first, second in _edge_steps(seed):
            before = forest.paths()
            path_a, path_b = forest.peek_edge(first, second)
            record = forest.add_edge(first, second)
            after = forest.paths()
            kept = [path for path in before if path is not path_a and path is not path_b]
            assert len(after) == len(kept) + 1 == len(before) - 1
            assert all(new is old for new, old in zip(after, kept))
            assert after[-1] is record.merged
            assert forest.path_of(first) is record.merged

    @pytest.mark.parametrize("seed", range(5))
    def test_order_equals_a_freshly_built_forest_after_every_reveal(self, seed):
        steps = _edge_steps(seed)
        forest = LineForest(range(24))
        for count, (first, second) in enumerate(steps, start=1):
            forest.add_edge(first, second)
            fresh = LineForest(range(24))
            for pair in steps[:count]:
                fresh.add_edge(*pair)
            assert forest.paths() == fresh.paths()
            assert forest.components() == [frozenset(path) for path in fresh.paths()]

    def test_copy_stays_independent_both_ways(self):
        forest = LineForest(range(6))
        forest.add_edge(0, 1)
        clone = forest.copy()
        clone.add_edge(2, 3)
        forest.add_edge(4, 5)
        assert forest.paths() == [(2,), (3,), (0, 1), (4, 5)]
        assert clone.paths() == [(4,), (5,), (0, 1), (2, 3)]
        assert forest.path_of(2) == (2,)
        assert clone.path_of(4) == (4,)
